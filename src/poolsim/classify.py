"""Block classification across consecutive rounds.

When a round ends, every observed block gets exactly one label: blocks on
the pegged main chain are regular, the rest are orphans. An orphan is an
uncle if it is the first block of a losing sub-chain and sits within the
reward distance of the nephew block; other orphans are stale. The nephew is
the first block after the round's main chain: the first block of the next
round, or, when the winner reserved part of its chain, the first reserved
block. Counts and ratio numerators are integers computed from the round's
counters without visiting a block. Uncle rewards are integers in units of
1/32 (4 * (8 - d) at distance d), so the per-round identities hold exactly.

The rules work on columns: RoundColumns (from the engine) holds a buffer
of consecutive rounds, one row each, and nephew_columns, uncle_columns and
block_counts classify every row at once. determine_nephew, find_uncles and
classify_round are their one-row case, on round_columns of one outcome.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .engine import RoundColumns, RoundOutcome, round_columns

MAX_UNCLE_DISTANCE = 6
UNITS_PER_BLOCK = 32  # reward units of one regular block


class NephewUnavailable(RuntimeError):
    """No nephew source: nothing reserved and the next round's first block unknown."""


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
    from_reserve: bool


class Classification(NamedTuple):
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
        """Chain quality, main, orphan, uncle and stale ratios as floats."""
        return ratio_floats(*self)

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


def nephew_columns(
    rounds: RoundColumns, next_first_owner: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner, height and reserve flag of each round's nephew, the first block
    after its main chain.

    If the winner reserved blocks, the nephew is the first reserved block;
    otherwise it is the next round's first mined block: the next row's first
    block, or next_first_owner after the last row. Either way it sits just
    above the main chain.
    """
    from_reserve = rounds.reserved >= 1
    if next_first_owner is None:
        if not from_reserve[-1]:
            raise NephewUnavailable("nothing reserved and no next-round first block given")
        next_first_owner = -1  # unused: the reserve is the nephew
    following = np.append(rounds.first_owner[1:], next_first_owner)
    return np.where(from_reserve, rounds.winner, following), rounds.pegged + 1, from_reserve


def uncle_columns(rounds: RoundColumns, nephew_height: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Height and distance of each pool's uncle; distance 0 where it has none.

    Candidates are the first block of each losing dishonest sub-chain, plus
    the first orphaned honest block when a dishonest pool won. A candidate
    qualifies when its distance to the nephew is within the reward range.
    When the honest candidate qualifies, dishonest first blocks forked at or
    above it are disqualified (their parent is itself an orphan).
    """
    rows = np.arange(len(rounds.winner))
    win_fork = rounds.fork_pos[rows, rounds.winner]
    height = rounds.fork_pos + 1  # first block of each dishonest chain
    height[:, 0] = win_fork + 1  # first honest block above the winner's fork
    lost = rounds.length.copy()  # blocks of each pool off the main chain
    lost[:, 0] -= win_fork
    lost[rows, rounds.winner] = 0
    distance = nephew_height[:, None] - height
    qualifies = (lost >= 1) & (distance >= 1) & (distance <= MAX_UNCLE_DISTANCE)
    qualifies[:, 1:] &= ~(qualifies[:, :1] & (rounds.fork_pos[:, 1:] >= height[:, :1]))
    return height, np.where(qualifies, distance, 0)


def uncle_records(height: np.ndarray, distance: np.ndarray) -> Iterator[Tuple[UncleRecord, ...]]:
    """Each round's uncles from its height and distance rows, in (height, pool) order, one row at a time."""
    pools = height.shape[1]
    order = np.argsort(height * pools + np.arange(pools), axis=1)
    rows = np.arange(len(height))[:, None]
    height = height[rows, order]
    distance = distance[rows, order]
    named = distance > 0
    uncles = map(UncleRecord, order[named].tolist(), height[named].tolist(), distance[named].tolist())
    return (tuple(islice(uncles, count)) for count in named.sum(axis=1).tolist())


def block_counts(rounds: RoundColumns, uncle_count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Orphan and stale blocks of each round.

    Observed blocks are all but a winner's reserved tail; the regular ones
    are exactly the pegged main chain, the rest are orphans, and orphans
    that are not uncles are stale.
    """
    orphan = rounds.length.sum(axis=1) - rounds.reserved - rounds.pegged
    return orphan, orphan - uncle_count


def ratio_numerators(regular, orphan, released, uncle_count):
    """Observed, main-chain, honest main-chain and uncle block counts, the
    numerators of the per-round ratios, from scalars or columns."""
    return regular + orphan, regular, regular - released, uncle_count  # the winner's released blocks are its own


def ratio_floats(total, main, honest_main, uncles):
    """Chain quality, main, orphan, uncle and stale ratios from integer
    numerators, scalars or columns. Each is one correctly rounded division,
    so it equals float() of the exact ratio."""
    return (
        honest_main / main,
        main / total,
        (total - main) / total,
        uncles / total,
        (total - main - uncles) / total,
    )


def determine_nephew(
    outcome: RoundOutcome, next_first_owner: Optional[int] = None
) -> NephewRecord:
    """The nephew block that closes this round's classification; the
    one-row case of nephew_columns."""
    owner, height, from_reserve = nephew_columns(round_columns([outcome]), next_first_owner)
    return NephewRecord(int(owner[0]), int(height[0]), bool(from_reserve[0]))


def find_uncles(outcome: RoundOutcome, nephew_height: int) -> Tuple[UncleRecord, ...]:
    """Orphans of this round that qualify as uncles of the nephew; the
    one-row case of uncle_columns."""
    return next(uncle_records(*uncle_columns(round_columns([outcome]), np.array([nephew_height]))))


def classify_round(
    outcome: RoundOutcome,
    nephew: NephewRecord,
    uncles: Tuple[UncleRecord, ...],
) -> Classification:
    """Count the regular, uncle and stale blocks of a closed round; the
    one-row case of block_counts."""
    orphan, stale = block_counts(round_columns([outcome]), np.array([len(uncles)]))
    return Classification(outcome.pegged, int(orphan[0]), uncles, int(stale[0]), nephew)


def round_ratios(outcome: RoundOutcome, classification: Classification) -> RoundRatios:
    """Chain quality and main/orphan/uncle/stale ratio numerators for one
    round; the one-row case of ratio_numerators."""
    c = classification
    return RoundRatios(*ratio_numerators(c.regular_count, c.orphan_count, outcome.released, c.uncle_count))
