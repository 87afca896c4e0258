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
block_counts classify every row at once. uncle_columns states the uncle
rule once, one pool's column at a time, as each pool's uncle distance;
uncle_records reads any rows' uncles from those. determine_nephew,
find_uncles and classify_round are their one-row case, on round_columns of
one outcome.
ratio_floats states the five ratios once: floats from integer numerators,
exact ratios from Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Any, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .engine import HONEST, RoundColumns, RoundOutcome, round_columns

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


class Ratios(NamedTuple):
    """The five per-round ratios, by name, as ratio_floats gives them."""

    chain_quality: Any
    main_chain: Any
    orphan: Any
    uncle: Any
    stale: Any


class RoundRatios(NamedTuple):
    """Per-round ratios as integer numerators over the observed block count;
    chain quality is honest_main / main."""

    total: int  # observed blocks
    main: int  # main-chain (regular) blocks
    honest_main: int  # honest blocks on the main chain
    uncles: int

    def as_floats(self) -> Ratios:
        """The five ratios as floats."""
        return ratio_floats(*self)

    def exact(self) -> Ratios:
        """The five ratios as exact Fractions, by the same rule as as_floats."""
        return ratio_floats(*map(Fraction, self))


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


def uncle_columns(rounds: RoundColumns, nephew_height: np.ndarray) -> np.ndarray:
    """Each pool's uncle distance in each round, one column per pool; 0
    where it has none. The rule runs one pool's column at a time: a
    candidate, the first block of a chain off the main chain, qualifies
    within the reward range of the nephew. The honest candidate comes
    first: when a dishonest pool won, the first orphaned honest block, on
    the winner's fork, the last pegged block the winner did not release. A
    rival's is the first block of its losing chain, disqualified when it
    forked at or above a qualifying honest candidate (its parent is itself
    an orphan).
    """
    distance = np.empty((rounds.length.shape[1], len(rounds.winner)), dtype=rounds.length.dtype)  # a row per pool
    above = nephew_height - 1  # the nephew's parent: a chain forked at height f is at distance above - f
    honest_main = rounds.pegged - rounds.released

    def first_block(fork: np.ndarray, lost: np.ndarray, pool: int) -> None:
        far = above - fork
        np.multiply(far, lost & (far >= 1) & (far <= MAX_UNCLE_DISTANCE), out=distance[pool])

    first_block(honest_main, rounds.length[:, HONEST] > honest_main, HONEST)
    ceiling = np.where(distance[HONEST] > 0, honest_main, above)  # the highest fork a rival candidate may sit on
    for pool in range(1, len(distance)):
        fork = rounds.fork_pos[:, pool]
        first_block(fork, (rounds.length[:, pool] > 0) & (rounds.winner != pool) & (fork <= ceiling), pool)
    return distance.T


def uncle_records(nephew_height: np.ndarray, distance: np.ndarray) -> Iterator[Tuple[UncleRecord, ...]]:
    """Each round's uncles from its nephew height and its row of uncle
    distances, in (height, pool) order, one round at a time."""
    rows, pools = np.nonzero(distance)
    far = distance[rows, pools]
    height = nephew_height[rows] - far
    order = np.lexsort((pools, height, rows))
    uncles = map(UncleRecord, pools[order].tolist(), height[order].tolist(), far[order].tolist())
    return (tuple(islice(uncles, count)) for count in np.bincount(rows, minlength=len(distance)).tolist())


def block_counts(rounds: RoundColumns, uncle_count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Orphan and stale blocks of each round.

    Observed blocks are all but a winner's reserved tail; the regular ones
    are exactly the pegged main chain, the rest are orphans, and orphans
    that are not uncles are stale.
    """
    orphan = np.einsum("ij->i", rounds.length) - rounds.reserved - rounds.pegged
    return orphan, orphan - uncle_count


def ratio_numerators(regular, orphan, released, uncle_count):
    """Observed, main-chain, honest main-chain and uncle block counts, the
    numerators of the per-round ratios, from scalars or columns."""
    return regular + orphan, regular, regular - released, uncle_count  # the winner's released blocks are its own


def ratio_floats(total, main, honest_main, uncles) -> Ratios:
    """Chain quality, main, orphan, uncle and stale ratios from integer
    numerators, scalars or columns. Each is one correctly rounded division,
    so it equals float() of the exact ratio; Fraction numerators give the
    exact ratios."""
    return Ratios(
        chain_quality=honest_main / main,
        main_chain=main / total,
        orphan=(total - main) / total,
        uncle=uncles / total,
        stale=(total - main - uncles) / total,
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
    height = np.array([nephew_height])
    return next(uncle_records(height, uncle_columns(round_columns([outcome]), height)))


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
