"""Multi-round simulation driver.

Chains rounds through carryover, closes each round's classification as soon
as its nephew is known, books rewards with the one-round-late nephew
reference, and feeds every closed round to an estimator bank. A round that
reserved blocks closes immediately (its nephew is the first reserved block);
otherwise it closes when the next round's first block appears. After the
last round one extra first-block event is drawn just to close its
classification; that block books nothing.
"""
from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from .classify import Classification, RoundRatios, classify_round, determine_nephew, find_uncles, round_ratios
from .engine import Carryover, MiningClock, RoundOutcome, SimConfig, TerminationPolicy, make_carryover, run_round
from .metrics import EstimatorBank
from .rewards import RewardVector, allocate


class RoundRecord(NamedTuple):
    index: int  # 1-based round number
    outcome: RoundOutcome
    classification: Classification
    ratios: RoundRatios
    rewards: RewardVector


def close_round(
    outcome: RoundOutcome,
    prev_uncle_count: int,
    next_first_owner: Optional[int] = None,
    round_index: int = 0,
) -> Tuple[Classification, RoundRatios, RewardVector]:
    """Classify a finished round and book its rewards."""
    nephew = determine_nephew(outcome, next_first_owner)
    uncles = find_uncles(outcome, nephew.height)
    classification = classify_round(outcome, nephew, uncles, round_index=round_index)
    ratios = round_ratios(outcome, classification)
    rewards = allocate(outcome, classification, prev_uncle_count)
    return classification, ratios, rewards


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
    round order, for callers that want to inspect rounds without holding
    them all in memory. Records are built only when one of the two asks.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if clock is None:
        clock = MiningClock(config, seed=seed)
    if bank is None:
        bank = EstimatorBank(config.num_dishonest)
    records: Optional[List[RoundRecord]] = [] if collect else None
    want_records = collect or on_record is not None

    def emit(index: int, outcome: RoundOutcome, next_owner: Optional[int], prev_uncles: int) -> int:
        classification, ratios, rewards = close_round(
            outcome, prev_uncles, next_first_owner=next_owner, round_index=index
        )
        bank.update(outcome, ratios, rewards, classification)
        if want_records:
            record = RoundRecord(index, outcome, classification, ratios, rewards)
            if on_record is not None:
                on_record(record)
            if records is not None:
                records.append(record)
        return classification.uncle_count

    carry: Optional[Carryover] = None
    pending: Optional[Tuple[int, RoundOutcome]] = None
    prev_uncles = 0
    for index in range(1, rounds + 1):
        outcome = run_round(config, carry, clock, termination_policy)
        if pending is not None:
            p_index, p_outcome = pending
            prev_uncles = emit(p_index, p_outcome, outcome.first_block_owner, prev_uncles)
            pending = None
        carry = make_carryover(outcome)
        if carry is not None:
            prev_uncles = emit(index, outcome, None, prev_uncles)
        else:
            pending = (index, outcome)

    if pending is not None:
        # One extra first-block draw closes the last round; it books nothing.
        clock.begin_round()
        next_owner, _ = clock.next_event()
        p_index, p_outcome = pending
        emit(p_index, p_outcome, next_owner, prev_uncles)

    return bank, records
