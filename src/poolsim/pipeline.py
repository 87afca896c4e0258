"""Multi-round simulation driver.

Plays rounds and closes them in blocks of consecutive rounds: one columnar
pass finds every round's nephew and uncles, counts its blocks, books its
rewards with the one-round-late nephew reference, and hands the block to
the estimator bank. An eager run (no termination policy) plays its rounds
as lane blocks of the engine; a run with a policy plays them one at a time
with run_round, chained through carryover, in blocks of up to CLOSE_ROWS.
A round's nephew is its first reserved block, or else the next round's
first block, so each block waits until the next one has been played; the
uncle count the next nephew reference needs carries across blocks. After
the last block one extra first-block miner is drawn just to close it when
its last round reserved nothing; that block books nothing.
"""
from __future__ import annotations

from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# The per-round functions are each the one-row case of the columnar close;
# they stay importable here with it, where the benchmark's tracer finds them.
from .classify import (  # noqa: F401
    Classification,
    NephewRecord,
    RoundRatios,
    block_counts,
    classify_round,
    determine_nephew,
    find_uncles,
    nephew_columns,
    ratio_numerators,
    round_ratios,
    uncle_columns,
    uncle_records,
)
from .engine import (
    Carryover, LaneDraws, MiningClock, RoundColumns, RoundOutcome, SimConfig, TerminationPolicy, lane_blocks,
    make_carryover, round_columns, run_round,
)
from .metrics import EstimatorBank
from .rewards import ClosedRounds, PoolReward, RewardVector, allocate, reward_columns  # noqa: F401

CLOSE_ROWS = 512  # rounds closed together: amortizes numpy calls, bounds the buffer


class RoundRecord(NamedTuple):
    index: int  # 1-based round number
    outcome: RoundOutcome
    classification: Classification
    ratios: RoundRatios
    rewards: RewardVector


def close_columns(rounds: RoundColumns, next_first_owner: Optional[int], prev_uncle_count: int) -> ClosedRounds:
    """Classify and book a buffer of consecutive rounds.

    next_first_owner owns the first block after the buffer (None if the last
    round reserved blocks); prev_uncle_count is the uncle count of the round
    before the buffer, 0 if there is none.
    """
    nephew = nephew_columns(rounds, next_first_owner)
    uncle_height, uncle_distance = uncle_columns(rounds, nephew[1])
    uncle_count = (uncle_distance > 0).sum(axis=1)
    prev = np.concatenate(([prev_uncle_count], uncle_count[:-1]))
    return ClosedRounds(
        rounds, *nephew, uncle_height, uncle_distance, uncle_count, *block_counts(rounds, uncle_count),
        *reward_columns(rounds, uncle_distance, prev),
    )


class _Distinct(dict):
    """build(*row) for each row looked up, built once per distinct row."""

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, row: tuple):
        built = self[row] = self.build(*row)
        return built


def _shared(build: Callable, *columns: np.ndarray) -> Iterator:
    """build(*row) for every row of the columns; equal rows share one record."""
    return map(_Distinct(build).__getitem__, zip(*(c.tolist() for c in columns)))


def round_records(closed: ClosedRounds, outcomes: Sequence[RoundOutcome], first_index: int) -> Iterator[RoundRecord]:
    """One record per closed round, read from the buffer's rows."""
    rounds = closed.rounds
    nephews = _shared(NephewRecord, closed.nephew_owner, closed.nephew_height, closed.from_reserve)
    ratios = _shared(RoundRatios, *ratio_numerators(rounds.pegged, closed.orphan, rounds.released, closed.uncle_count))
    # One PoolReward per pool and round, regrouped into each round's tuple.
    pools = _shared(PoolReward, *(m.ravel() for m in (closed.regular_units, closed.uncle_units, closed.nephew_units)))
    pays = zip(*[pools] * rounds.length.shape[1])
    columns = zip(
        outcomes, rounds.pegged.tolist(), closed.orphan.tolist(), closed.stale.tolist(),
        uncle_records(closed.uncle_height, closed.uncle_distance), nephews, ratios, pays,
    )
    for index, (outcome, regular, orphan, stale, uncles, nephew, ratio, per_pool) in enumerate(
        columns, start=first_index
    ):
        classification = Classification(regular, orphan, uncles, stale, nephew)
        yield RoundRecord(index, outcome, classification, ratio, RewardVector(per_pool))


class _Played(NamedTuple):
    """A block of rounds run_round played, read like a lane block."""

    columns: RoundColumns
    played: List[RoundOutcome]
    first_owner: np.ndarray

    def outcomes(self) -> List[RoundOutcome]:
        return self.played


def _played_blocks(
    config: SimConfig, rounds: int, clock: MiningClock, termination_policy: TerminationPolicy
) -> Iterator[_Played]:
    """`rounds` rounds of run_round on one clock, chained through carryover,
    in blocks of up to CLOSE_ROWS."""
    carry: Optional[Carryover] = None
    for start in range(0, rounds, CLOSE_ROWS):
        played = []
        for _ in range(min(CLOSE_ROWS, rounds - start)):
            outcome = run_round(config, carry, clock, termination_policy)
            carry = make_carryover(outcome)
            played.append(outcome)
        columns = round_columns(played)
        yield _Played(columns, played, columns.first_owner)


def simulate_rounds(
    config: SimConfig,
    rounds: int,
    seed=0,
    bank: Optional[EstimatorBank] = None,
    termination_policy: Optional[TerminationPolicy] = None,
    on_record: Optional[Callable[[RoundRecord], None]] = None,
    collect: bool = False,
) -> Tuple[EstimatorBank, Optional[List[RoundRecord]]]:
    """Run the full pipeline for a number of rounds.

    Returns the bank (created if not given) and, with collect=True, the list
    of closed-round records. on_record is called once per closed round, in
    round order, as each block closes, for callers that want to inspect
    rounds without holding them all in memory. Records are built only when
    one of the two asks. Without a termination policy the rounds are lane
    blocks on LaneDraws(config, seed); with one, they are played by run_round
    on MiningClock(config, seed).
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if bank is None:
        bank = EstimatorBank(config.num_dishonest)
    elif bank.num_pools != len(config.alphas):
        raise ValueError(f"bank holds {bank.num_pools} pools, config has {len(config.alphas)}")
    records: Optional[List[RoundRecord]] = [] if collect else None
    want_records = collect or on_record is not None
    closed_rounds = 0
    prev_uncles = 0

    def close(block, next_owner: Optional[int]) -> None:
        nonlocal closed_rounds, prev_uncles
        closed = close_columns(block.columns, next_owner, prev_uncles)
        bank.add(closed)
        if want_records:
            for record in round_records(closed, block.outcomes(), closed_rounds + 1):
                if on_record is not None:
                    on_record(record)
                if records is not None:
                    records.append(record)
        closed_rounds += len(block.columns.winner)
        prev_uncles = int(closed.uncle_count[-1])

    if termination_policy is None:
        draws = LaneDraws(config, seed)
        blocks = lane_blocks(config, rounds, draws)
    else:
        draws = MiningClock(config, seed)
        blocks = _played_blocks(config, rounds, draws, termination_policy)
    pending = None
    for block in blocks:
        if pending is not None:
            # The block's first round's first block closes the pending block's last round.
            close(pending, int(block.first_owner[0]))
        pending = block
    close(pending, None if pending.columns.reserved[-1] else int(draws.miners(1)[0]))
    return bank, records
