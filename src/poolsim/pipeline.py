"""Multi-round simulation driver.

Plays rounds and closes them in blocks of consecutive rounds: one columnar
pass finds every round's nephew and uncles, counts its blocks, books its
rewards with the one-round-late nephew reference, and hands the block to
the estimator bank. An eager run (no termination policy) plays its rounds
as lane blocks of the engine; a run with a policy plays them one at a time
with run_round, chained through carryover by chained_rounds, in blocks of
up to CLOSE_ROWS. A round's nephew is its first reserved block, or else the
next round's first block, so each block waits until the next one has been
played; the uncle count the next nephew reference needs carries across
blocks. After the last block one extra first-block miner is drawn just to
close it when its last round reserved nothing; that block books nothing.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# The per-round functions are each the one-row case of the columnar close;
# they stay importable here with it, where the benchmark's tracer finds them.
from .classify import (  # noqa: F401
    Classification,
    NephewRecord,
    RoundRatios,
    classify_round,
    determine_nephew,
    find_uncles,
    ratio_numerators,
    round_ratios,
    uncle_records,
)
from .engine import (
    Carryover, LaneDraws, MiningClock, RoundColumns, RoundOutcome, ScriptExhausted, SimConfig, TerminationPolicy,
    lane_blocks, lane_columns, make_carryover, round_columns, round_outcomes, run_round,
)
from .metrics import EstimatorBank
from .rewards import ClosedRounds, PoolReward, RewardVector, allocate, close_columns  # noqa: F401

CLOSE_ROWS = 512  # rounds closed together: amortizes numpy calls, bounds the buffer


class RoundRecord(NamedTuple):
    index: int  # 1-based round number
    outcome: RoundOutcome
    classification: Classification
    ratios: RoundRatios
    rewards: RewardVector


def _shared(build: Callable, *columns: np.ndarray) -> Iterator:
    """build(*row) for every row of the columns; equal rows share one record."""
    return map(lru_cache(maxsize=None)(build), *(c.tolist() for c in columns))


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


def chained_rounds(
    config: SimConfig, clock, termination_policy: Optional[TerminationPolicy] = None,
    carryover: Optional[Carryover] = None,
) -> Iterator[RoundOutcome]:
    """run_round's rounds on one event source, each starting from the carry
    the round before it left, until the source runs out."""
    while True:
        try:
            outcome = run_round(config, carryover, clock, termination_policy)
        except ScriptExhausted:
            return
        yield outcome
        carryover = make_carryover(outcome)


def simulate_rounds(
    config: SimConfig,
    rounds: int,
    seed=0,
    termination_policy: Optional[TerminationPolicy] = None,
    on_record: Optional[Callable[[RoundRecord], Optional[bool]]] = None,
    collect: bool = False,
) -> Tuple[EstimatorBank, Optional[List[RoundRecord]]]:
    """Run the full pipeline for a number of rounds.

    Returns a new bank and, with collect=True, the list of closed-round
    records. on_record is called once per closed round, in round order, as
    each block closes, for callers that want to inspect rounds without
    holding them all in memory. It may return True to say it wants no more
    records; it is then not called again. Records are built only while one
    of the two asks, and the bank takes every round either way. Without a
    termination policy the rounds are lane blocks on LaneDraws(config,
    seed); with one, they are played by run_round on MiningClock(config,
    seed).
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    bank = EstimatorBank(config.num_dishonest)
    records: Optional[List[RoundRecord]] = [] if collect else None
    closed_rounds = 0
    prev_uncles = 0

    def close(columns: RoundColumns, played: Optional[List[RoundOutcome]], next_owner: Optional[int]) -> None:
        nonlocal closed_rounds, prev_uncles, on_record
        closed = close_columns(columns, next_owner, prev_uncles)
        bank.add(closed)
        if on_record is not None or records is not None:
            outcomes = round_outcomes(columns) if played is None else played
            for record in round_records(closed, outcomes, closed_rounds + 1):
                if on_record is not None and on_record(record):
                    on_record = None
                if records is not None:
                    records.append(record)
                elif on_record is None:
                    break
        closed_rounds += len(columns.winner)
        prev_uncles = int(closed.uncle_count[-1])

    # Blocks of (columns, the outcomes run_round played or None): a policy
    # block keeps the outcomes it was built from, so records never rebuild them.
    if termination_policy is None:
        draws = LaneDraws(config, seed)
        blocks = (
            (lane_columns(config, lanes, draws.durations(lanes.events)), None)
            for lanes in lane_blocks(config, rounds, draws)
        )
    else:
        draws = MiningClock(config, seed)
        chain = chained_rounds(config, draws, termination_policy)
        chunks = (list(islice(chain, min(CLOSE_ROWS, rounds - start))) for start in range(0, rounds, CLOSE_ROWS))
        blocks = ((round_columns(played), played) for played in chunks)
    pending = None
    for block in blocks:
        if pending is not None:
            # The block's first round's first block closes the pending block's last round.
            close(*pending, int(block[0].first_owner[0]))
        pending = block
    close(*pending, None if pending[0].reserved[-1] else int(draws.miners(1)[0]))
    return bank, records
