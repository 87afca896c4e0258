"""Block classification across consecutive rounds.

When a round ends, every observed block gets exactly one label: blocks on
the pegged main chain are regular, the rest are orphans. An orphan is an
uncle if it is the first block of a losing sub-chain and sits within the
reward distance of the nephew block; other orphans are stale. The nephew is
the first block after the round's main chain: the first block of the next
round, or, when the winner reserved part of its chain, the first reserved
block. Counts and ratio numerators are integers computed from the round's
counters without visiting a block; block_labels derives per-block labels on
demand for the oracle and tests. Uncle rewards are integers in units of 1/32
(4 * (8 - d) at distance d), so the per-round identities hold exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

from .engine import RoundOutcome
from .tree import HONEST, Block

MAX_UNCLE_DISTANCE = 6
UNITS_PER_BLOCK = 32  # reward units of one regular block
NEPHEW_REFERENCE_UNIT = Fraction(1, UNITS_PER_BLOCK)


class NotAnUncle(ValueError):
    """Distance outside the rewarded uncle range."""


class NephewUnavailable(RuntimeError):
    """No nephew source: nothing reserved and the next round's first block unknown."""


@dataclass(frozen=True)
class BlockClass:
    kind: str  # "regular" | "uncle" | "stale"
    distance: Optional[int] = None  # set for uncles


REGULAR = BlockClass("regular")
STALE = BlockClass("stale")


class UncleRecord(NamedTuple):
    owner: int
    height: int
    distance: int

    @property
    def units(self) -> int:
        return uncle_units(self.distance)

    @property
    def reward(self) -> Fraction:
        return Fraction(self.units, UNITS_PER_BLOCK)


class NephewRecord(NamedTuple):
    owner: int
    height: int  # in the closed round's local heights (main chain length + 1)
    uncle_count: int
    from_reserve: bool


class Classification(NamedTuple):
    round_index: int
    regular_count: int
    orphan_count: int
    uncles: Tuple[UncleRecord, ...]
    stale_count: int
    nephew: NephewRecord

    @property
    def uncle_count(self) -> int:
        return len(self.uncles)


class RoundRatios(NamedTuple):
    """Per-round ratios as integer numerators over the observed block count;
    chain quality is honest_main / main. The properties are exact ratios."""

    total: int  # observed blocks
    main: int  # main-chain (regular) blocks
    honest_main: int  # honest blocks on the main chain
    uncles: int

    def as_floats(self) -> Tuple[float, float, float, float, float]:
        """Chain quality, main, orphan, uncle and stale ratios, each a correctly
        rounded integer division, so equal to float() of the exact ratio."""
        total, main, uncles = self.total, self.main, self.uncles
        return (
            self.honest_main / main,
            main / total,
            (total - main) / total,
            uncles / total,
            (total - main - uncles) / total,
        )

    @property
    def chain_quality(self) -> Fraction:
        return Fraction(self.honest_main, self.main)

    @property
    def main_chain(self) -> Fraction:
        return Fraction(self.main, self.total)

    @property
    def orphan(self) -> Fraction:
        return Fraction(self.total - self.main, self.total)

    @property
    def uncle(self) -> Fraction:
        return Fraction(self.uncles, self.total)

    @property
    def stale(self) -> Fraction:
        return Fraction(self.total - self.main - self.uncles, self.total)


def uncle_units(distance: int) -> int:
    """Reward of an uncle at a generation distance, in units of 1/32."""
    return 4 * (8 - distance)


def uncle_reward(distance: int) -> Fraction:
    """Reward of an uncle at the given generation distance from its nephew."""
    if not 1 <= distance <= MAX_UNCLE_DISTANCE:
        raise NotAnUncle(f"distance {distance} outside 1..{MAX_UNCLE_DISTANCE}")
    return Fraction(uncle_units(distance), UNITS_PER_BLOCK)


def nephew_reward(uncle_count: int) -> Fraction:
    """Reference reward a nephew earns for the uncles it names."""
    if uncle_count < 0:
        raise ValueError("uncle count cannot be negative")
    return uncle_count * NEPHEW_REFERENCE_UNIT


def determine_nephew(
    outcome: RoundOutcome, next_first_owner: Optional[int] = None
) -> NephewRecord:
    """Locate the nephew block that closes this round's classification.

    If the winner reserved blocks, the nephew is the first reserved block;
    otherwise it is the next round's first mined block, whose owner the
    caller must supply. Either way it sits just above the main chain. The
    uncle count is filled in by classify_round.
    """
    height = outcome.pegged_count + 1
    if outcome.reserved >= 1:
        return NephewRecord(owner=outcome.winner, height=height, uncle_count=0, from_reserve=True)
    if next_first_owner is None:
        raise NephewUnavailable("nothing reserved and no next-round first block given")
    return NephewRecord(owner=next_first_owner, height=height, uncle_count=0, from_reserve=False)


def find_uncles(
    outcome: RoundOutcome,
    nephew_height: int,
    max_distance: int = MAX_UNCLE_DISTANCE,
) -> Tuple[UncleRecord, ...]:
    """Orphans of this round that qualify as uncles of the nephew.

    Candidates are the first block of each losing dishonest sub-chain, plus
    the first orphaned honest block when a dishonest pool won. A candidate
    qualifies when its distance to the nephew is within the reward range.
    When the honest candidate qualifies, dishonest first blocks forked at or
    above it are disqualified (their parent is itself an orphan).
    """
    candidates = []  # (height, owner)
    if outcome.winner == HONEST:
        for i, stat in enumerate(outcome.per_pool, start=1):
            if stat.length >= 1:
                candidates.append((stat.fork_position + 1, i))
    else:
        win_fork = outcome.per_pool[outcome.winner - 1].fork_position
        honest_candidate = None
        if outcome.honest_length > win_fork:
            honest_candidate = win_fork + 1
            candidates.append((honest_candidate, HONEST))
        honest_qualifies = (
            honest_candidate is not None
            and 1 <= nephew_height - honest_candidate <= max_distance
        )
        for i, stat in enumerate(outcome.per_pool, start=1):
            if i == outcome.winner or stat.length < 1:
                continue
            if honest_qualifies and stat.fork_position >= win_fork + 1:
                continue
            candidates.append((stat.fork_position + 1, i))

    records = []
    for height, owner in sorted(candidates):
        distance = nephew_height - height
        if 1 <= distance <= max_distance:
            records.append(UncleRecord(owner, height, distance))
    return tuple(records)


def classify_round(
    outcome: RoundOutcome,
    nephew: NephewRecord,
    uncles: Tuple[UncleRecord, ...],
    round_index: int = 0,
) -> Classification:
    """Count the regular, uncle and stale blocks of a closed round.

    Observed blocks are all blocks of the round but a winner's reserved
    tail; the regular ones are exactly the pegged main chain.
    """
    observed = outcome.honest_length + sum([stat.length for stat in outcome.per_pool]) - outcome.reserved
    regular = outcome.pegged_count
    orphan = observed - regular
    return Classification(
        round_index=round_index,
        regular_count=regular,
        orphan_count=orphan,
        uncles=uncles,
        stale_count=orphan - len(uncles),
        nephew=NephewRecord(nephew.owner, nephew.height, len(uncles), nephew.from_reserve),
    )


def block_labels(outcome: RoundOutcome, classification: Classification) -> Dict[Block, BlockClass]:
    """Label of every observed block of a closed round, from its block tree."""
    pegged = set(outcome.pegged)
    uncle_at = {(u.owner, u.height): u for u in classification.uncles}
    tree = outcome.tree
    observed = list(tree.honest.blocks)
    for sub in tree.dishonest:
        observed += sub.blocks[: outcome.released] if sub.owner == outcome.winner else sub.blocks
    labels: Dict[Block, BlockClass] = {}
    for block in observed:
        uncle = uncle_at.get((block.owner, block.height))
        if block in pegged:
            labels[block] = REGULAR
        elif uncle is not None:
            labels[block] = BlockClass("uncle", distance=uncle.distance)
        else:
            labels[block] = STALE
    return labels


def round_ratios(outcome: RoundOutcome, classification: Classification) -> RoundRatios:
    """Chain quality and main/orphan/uncle/stale ratios for one round."""
    main = classification.regular_count
    return RoundRatios(
        total=main + classification.orphan_count,
        main=main,
        honest_main=main - outcome.released,  # the winner's released blocks are its own
        uncles=len(classification.uncles),
    )
