"""Multi-round simulation driver.

Plays rounds and closes them in blocks of consecutive rounds: one columnar
pass finds every round's nephew and uncles, counts its blocks, books its
rewards with the one-round-late nephew reference, and hands the block to
the estimator bank. An eager run (no termination policy) plays its rounds
as lane blocks of the engine; a run with a policy plays them one at a time
with run_round, chained through carryover by chained_rounds, in blocks of
up to CLOSE_ROWS. Neither engine keeps time: each block's durations are
drawn once from its event counts (LaneDraws.durations) as it closes. A
round's nephew is its first reserved block, or else the next round's first
block, so the close pairs each block with the next one, played before it
closes; the uncle count the next nephew reference needs carries from one
pair to the next. The last block pairs with an end marker: if its last
round reserved nothing, one extra miner is drawn for that round's nephew,
and the block it mines books nothing.
"""
from __future__ import annotations

from itertools import chain, islice, pairwise
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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
    Carryover, LaneDraws, MiningClock, RoundOutcome, ScriptExhausted, SimConfig, TerminationPolicy,
    lane_blocks, lane_columns, make_carryover, round_columns, round_outcomes, run_round,
)
from .metrics import EstimatorBank
from .rewards import ClosedRounds, PoolReward, RewardVector, allocate, close_columns, reward_columns  # noqa: F401

CLOSE_ROWS = 512  # rounds closed together: amortizes numpy calls, bounds the buffer


class RoundRecord(NamedTuple):
    index: int  # 1-based round number
    outcome: RoundOutcome
    classification: Classification
    ratios: RoundRatios
    rewards: RewardVector
    duration: float  # drawn from outcome.events by the one time rule


def _rows(columns: tuple, start: int, stop: int) -> tuple:
    """Rows start:stop of a NamedTuple of columns, nested ones included."""
    return type(columns)._make(
        c[start:stop] if isinstance(c, np.ndarray) else _rows(c, start, stop) for c in columns
    )


class _Interned(dict):
    """Records of one kind by row: a row read for the first time builds its
    record, so equal rows share one."""

    def __init__(self, kind):
        self.kind = kind

    def __missing__(self, row: tuple):
        record = self[row] = self.kind._make(row)
        return record


def round_records(
    closed: ClosedRounds, outcomes: Optional[Sequence[RoundOutcome]], first_index: int
) -> Iterator[RoundRecord]:
    """One record per closed round, read from the buffer CLOSE_ROWS rows at
    a time, so a consumer that stops early pays for one slice. Without
    outcomes, each slice's are built from its rows. Equal rows share one
    record."""
    rows, pools = closed.rounds.length.shape
    nephew_of, ratios_of, pay_of = map(_Interned, (NephewRecord, RoundRatios, PoolReward))
    for start in range(0, rows, CLOSE_ROWS):
        part = closed if rows <= CLOSE_ROWS else _rows(closed, start, start + CLOSE_ROWS)
        rounds = part.rounds
        played = round_outcomes(rounds) if outcomes is None else outcomes[start:start + CLOSE_ROWS]
        nephew_fields = (part.nephew_owner, part.nephew_height, part.from_reserve)
        nephews = map(nephew_of.__getitem__, zip(*(c.tolist() for c in nephew_fields)))
        numerators = ratio_numerators(rounds.pegged, part.orphan, rounds.released, part.uncle_count)
        ratios = map(ratios_of.__getitem__, zip(*(c.tolist() for c in numerators)))
        units = reward_columns(rounds, part.uncle_distance, part.prev_uncle_count)
        # One PoolReward per pool and round, regrouped into each round's tuple.
        pays = zip(*[map(pay_of.__getitem__, zip(*(m.ravel().tolist() for m in units)))] * pools)
        columns = zip(
            played, rounds.pegged.tolist(), part.orphan.tolist(), part.stale.tolist(),
            uncle_records(part.nephew_height, part.uncle_distance), nephews, ratios, pays, part.duration.tolist(),
        )
        for index, (outcome, regular, orphan, stale, uncles, nephew, ratio, per_pool, duration) in enumerate(
            columns, start=first_index + start
        ):
            classification = Classification(regular, orphan, uncles, stale, nephew)
            yield RoundRecord(index, outcome, classification, ratio, RewardVector(per_pool), duration)


def chained_rounds(
    config: SimConfig, miners: Iterable[int], termination_policy: Optional[TerminationPolicy] = None,
    carryover: Optional[Carryover] = None,
) -> Iterator[RoundOutcome]:
    """run_round's rounds on one miner iterator, each starting from the
    carry the round before it left, until the iterator runs out."""
    while True:
        try:
            outcome = run_round(config, carryover, miners, termination_policy)
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
    # Blocks of (columns, the outcomes run_round played, or None for a lane
    # block): a policy block keeps the outcomes it was built from, so records
    # never rebuild them. A lane block's columns are built as soon as it is
    # played, so its rows can go. MiningClock is a LaneDraws, so both kinds
    # of block draw their durations from `draws`.
    if termination_policy is None:
        draws = LaneDraws(config, seed)
        blocks = ((lane_columns(config, lanes), None) for lanes in lane_blocks(config, rounds, draws))
    else:
        draws = MiningClock(config, seed)
        chained = chained_rounds(config, draws, termination_policy)
        chunks = (list(islice(chained, min(CLOSE_ROWS, rounds - start))) for start in range(0, rounds, CLOSE_ROWS))
        blocks = ((round_columns(played), played) for played in chunks)
    bank = EstimatorBank(config.num_dishonest)
    records: Optional[List[RoundRecord]] = [] if collect else None
    closed_rounds = prev_uncles = 0
    # Consecutive blocks, the last paired with None: a block's last round
    # takes its nephew from the next block's first owner unless it reserved.
    for (columns, played), after in pairwise(chain(blocks, [None])):
        if after is not None:
            next_owner = int(after[0].first_owner[0])
        elif columns.reserved[-1]:
            next_owner = None  # the nephew is the winner's first reserved block
        else:
            next_owner = int(draws.miners(1)[0])
        closed = close_columns(columns, draws.durations(columns.events), next_owner, prev_uncles)
        bank.add(closed)
        if on_record is not None or records is not None:
            for record in round_records(closed, played, closed_rounds + 1):
                if on_record is not None and on_record(record):
                    on_record = None
                if records is not None:
                    records.append(record)
                elif on_record is None:
                    break
        closed_rounds += len(columns.winner)
        prev_uncles = int(closed.uncle_count[-1])
    return bank, records
