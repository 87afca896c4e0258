"""Multi-round simulation driver.

Chains rounds through carryover and closes them in buffers of up to
CLOSE_ROWS consecutive rounds: one columnar pass finds every round's nephew
and uncles, counts its blocks, books its rewards with the one-round-late
nephew reference, and hands the buffer to the estimator bank. A round's
nephew is its first reserved block, or else the next round's first block,
so the newest round waits in the buffer until the next round has been
played; the uncle count the next nephew reference needs carries across
buffers. After the last round one extra first-block event is drawn just to
close it when it reserved nothing; that block books nothing.
"""
from __future__ import annotations

from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# The per-round functions are each the one-row case of the columnar close;
# they stay importable here with it, where the benchmark's tracer finds them.
from .classify import (  # noqa: F401
    Classification,
    NephewRecord,
    RoundColumns,
    RoundRatios,
    block_counts,
    classify_round,
    determine_nephew,
    find_uncles,
    nephew_columns,
    ratio_numerators,
    round_columns,
    round_ratios,
    uncle_columns,
    uncle_records,
)
from .engine import Carryover, MiningClock, RoundOutcome, SimConfig, TerminationPolicy, make_carryover, run_round
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
    nephews = _shared(NephewRecord, closed.nephew_owner, closed.nephew_height, closed.uncle_count, closed.from_reserve)
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
        classification = Classification(index, regular, orphan, uncles, stale, nephew)
        yield RoundRecord(index, outcome, classification, ratio, RewardVector(index, per_pool))


def simulate_rounds(
    config: SimConfig,
    rounds: int,
    clock=None,
    seed=None,
    bank: Optional[EstimatorBank] = None,
    termination_policy: Optional[TerminationPolicy] = None,
    on_record: Optional[Callable[[RoundRecord], None]] = None,
    collect: bool = False,
) -> Tuple[EstimatorBank, Optional[List[RoundRecord]]]:
    """Run the full pipeline for a number of rounds.

    Returns the bank (created if not given) and, with collect=True, the list
    of closed-round records. on_record is called once per closed round, in
    round order, as each buffer closes, for callers that want to inspect
    rounds without holding them all in memory. Records are built only when
    one of the two asks.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if clock is None:
        clock = MiningClock(config, seed=seed)
    if bank is None:
        bank = EstimatorBank(config.num_dishonest)
    records: Optional[List[RoundRecord]] = [] if collect else None
    want_records = collect or on_record is not None
    closed_rounds = 0
    prev_uncles = 0

    def close(outcomes: List[RoundOutcome], next_owner: Optional[int]) -> None:
        nonlocal closed_rounds, prev_uncles
        closed = close_columns(round_columns(outcomes), next_owner, prev_uncles)
        bank.add(closed)
        if want_records:
            for record in round_records(closed, outcomes, closed_rounds + 1):
                if on_record is not None:
                    on_record(record)
                if records is not None:
                    records.append(record)
        closed_rounds += len(outcomes)
        prev_uncles = int(closed.uncle_count[-1])

    buffer: List[RoundOutcome] = []
    carry: Optional[Carryover] = None
    for _ in range(rounds):
        outcome = run_round(config, carry, clock, termination_policy)
        carry = make_carryover(outcome)
        buffer.append(outcome)
        if len(buffer) > CLOSE_ROWS:
            # The newest round's first block closes the buffer's last round.
            close(buffer[:-1], outcome.first_block_owner)
            del buffer[:-1]

    next_owner = None
    if carry is None:
        # One extra first-block draw closes the last round; it books nothing.
        clock.begin_round()
        next_owner, _ = clock.next_event()
    close(buffer, next_owner)
    return bank, records
