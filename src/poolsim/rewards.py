"""Per-round reward booking.

Regular rewards go to the round in which the blocks peg: the winner is paid
its pegged blocks, and when a dishonest pool wins, the honest pool is still
paid for the pegged honest prefix. Uncle rewards are booked to the round the
uncles were mined in. The nephew reference reward is booked one round later,
to the round the nephew block lives in, paid to whoever owns that round's
first block. Amounts are integers in units of 1/32 of a block reward (a
regular block is 32, an uncle at distance d is 4 * (8 - d), a nephew
reference one per uncle named); regular, uncle, nephew and total give them
as exact numbers of blocks. close_columns classifies a buffer into
ClosedRounds: 1-D columns, one row per round, and each pool's uncle
distance. The estimator bank books its totals from those; reward_columns
builds each pool's unit matrices only for records and for allocate, its
one-row case.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .classify import UNITS_PER_BLOCK, Classification, block_counts, nephew_columns, uncle_columns, uncle_units
from .engine import RoundColumns, RoundOutcome, round_columns


@lru_cache(maxsize=4096)  # values are immutable; a round's unit counts are few and small
def exact(units: int) -> Union[int, Fraction]:
    """Units of 1/32 as an exact number of blocks: an int when whole."""
    whole, rest = divmod(units, UNITS_PER_BLOCK)
    return Fraction(units, UNITS_PER_BLOCK) if rest else whole


class PoolReward(NamedTuple):
    regular_units: int = 0
    uncle_units: int = 0
    nephew_units: int = 0

    @property
    def total_units(self) -> int:
        return self.regular_units + self.uncle_units + self.nephew_units

    @property
    def regular(self) -> Union[int, Fraction]:
        return exact(self.regular_units)

    @property
    def uncle(self) -> Union[int, Fraction]:
        return exact(self.uncle_units)

    @property
    def nephew(self) -> Union[int, Fraction]:
        return exact(self.nephew_units)

    @property
    def total(self) -> Union[int, Fraction]:
        return exact(self.total_units)


class RewardVector(NamedTuple):
    per_pool: Tuple[PoolReward, ...]  # indexed by pool id


class ClosedRounds(NamedTuple):
    """A buffer of consecutive rounds closed together: their columns, their
    durations and their classification, one row per round. uncle_distance
    has one column per pool; the booked units are read off the rows
    (reward_columns)."""

    rounds: RoundColumns
    duration: np.ndarray  # float: drawn from the events by the one time rule (0 for a script)
    nephew_owner: np.ndarray
    nephew_height: np.ndarray
    from_reserve: np.ndarray
    uncle_distance: np.ndarray  # 0 where the pool has no uncle
    uncle_count: np.ndarray
    orphan: np.ndarray
    stale: np.ndarray
    prev_uncle_count: np.ndarray  # the round before's uncles: the nephew units its first owner collects


def reward_columns(
    rounds: RoundColumns, uncle_distance: np.ndarray, prev_uncle_count: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regular, uncle and nephew units of every pool in each round, one
    column per pool; built only for records and allocate, since the
    estimator bank books its totals from the 1-D columns.

    prev_uncle_count[i] is the uncle count of the round before row i; row
    i's first block is that round's nephew, so its owner collects the
    reference reward there.
    """
    rows = np.arange(len(rounds.winner))
    regular = np.zeros_like(rounds.length)
    # The honest pool is paid the pegged honest prefix, the winner its released blocks.
    regular[:, 0] = UNITS_PER_BLOCK * (rounds.pegged - rounds.released)
    regular[rows, rounds.winner] += UNITS_PER_BLOCK * rounds.released
    uncle = np.where(uncle_distance > 0, uncle_units(uncle_distance), 0)
    nephew = np.zeros_like(regular)
    nephew[rows, rounds.first_owner] = prev_uncle_count
    return regular, uncle, nephew


def close_columns(
    rounds: RoundColumns, duration: np.ndarray, next_first_owner: Optional[int], prev_uncle_count: int
) -> ClosedRounds:
    """Classify a buffer of consecutive rounds, whose durations it carries.

    next_first_owner owns the first block after the buffer (None if the last
    round reserved blocks); prev_uncle_count is the uncle count of the round
    before the buffer, 0 if there is none.
    """
    nephew = nephew_columns(rounds, next_first_owner)
    distance = uncle_columns(rounds, nephew[1])
    uncle_count = np.count_nonzero(distance, axis=1)
    prev = np.concatenate(([prev_uncle_count], uncle_count[:-1]))
    return ClosedRounds(rounds, duration, *nephew, distance, uncle_count, *block_counts(rounds, uncle_count), prev)


def allocate(
    outcome: RoundOutcome,
    classification: Classification,
    prev_uncle_count: int,
) -> RewardVector:
    """Book one round's rewards for every pool; the one-row case of
    reward_columns. Pass prev_uncle_count 0 for the first round."""
    rounds = round_columns([outcome])
    distance = np.zeros_like(rounds.length)
    for record in classification.uncles:
        distance[0, record.owner] = record.distance
    regular, uncle, nephew = reward_columns(rounds, distance, np.array([prev_uncle_count]))
    per_pool = map(PoolReward, regular[0].tolist(), uncle[0].tolist(), nephew[0].tolist())
    return RewardVector(tuple(per_pool))
