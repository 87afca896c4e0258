"""Per-round reward booking.

Regular rewards go to the round in which the blocks peg: the winner is paid
its pegged blocks, and when a dishonest pool wins, the honest pool is still
paid for the pegged honest prefix. Uncle rewards are booked to the round the
uncles were mined in. The nephew reference reward is booked one round later,
to the round the nephew block lives in, paid to whoever owns that round's
first block. Amounts are integers in units of 1/32 of a block reward (a
regular block is 32, an uncle at distance d is 4 * (8 - d), a nephew
reference one per uncle named); regular, uncle, nephew and total give them
as exact numbers of blocks.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple, Union

from .classify import UNITS_PER_BLOCK, Classification, NephewUnavailable
from .engine import RoundOutcome
from .tree import HONEST


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
    round_index: int
    per_pool: Tuple[PoolReward, ...]  # indexed by pool id


def allocate(
    outcome: RoundOutcome,
    classification: Classification,
    prev_uncle_count: int,
) -> RewardVector:
    """Book one round's rewards for every pool.

    prev_uncle_count is the uncle count of the previous round; this round's
    first block is that round's nephew, so its owner collects the reference
    reward here. Pass 0 for the first round.
    """
    n_pools = len(outcome.per_pool) + 1
    regular = [0] * n_pools
    uncle = [0] * n_pools
    nephew = [0] * n_pools

    if outcome.winner == HONEST:
        regular[HONEST] = UNITS_PER_BLOCK * outcome.honest_length
    else:
        regular[outcome.winner] = UNITS_PER_BLOCK * outcome.released
        regular[HONEST] = UNITS_PER_BLOCK * outcome.per_pool[outcome.winner - 1].fork_position

    for record in classification.uncles:
        uncle[record.owner] += record.units

    if prev_uncle_count:
        nephew[outcome.first_block_owner] += prev_uncle_count

    return RewardVector(
        round_index=classification.round_index,
        per_pool=tuple(map(PoolReward, regular, uncle, nephew)),
    )


def settle_uncle_rewards(classification: Classification) -> List[Tuple[int, Fraction]]:
    """Uncle payments of a closed round, in (height, pool) order."""
    if classification.nephew is None:
        raise NephewUnavailable("round not closed: nephew unknown")
    return [(u.owner, u.reward) for u in classification.uncles]
