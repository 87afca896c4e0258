"""Reference implementations and exhaustive cross-checks.

Two deliberately separate implementations of the round rules exist: the
engine plays rounds over plain counters for speed, while replay_script here
drives the value-semantic tree operations directly from a fixed event order.
On top of that, reference_analysis is a from-scratch transcription of the
classification, ratio, and reward rules that shares no code with the
production classifier or allocator. enumerate_and_check replays every pool
sequence of a given length through all of them and reports any disagreement
or invariant violation; the report must come back empty.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Tuple

from . import tree as chain
from .classify import block_labels, classify_round, determine_nephew, find_uncles, round_ratios
from .engine import (
    RELEASE_ALL,
    Carryover,
    PoolRoundStat,
    RoundOutcome,
    ScriptClock,
    ScriptExhausted,
    SimConfig,
    make_carryover,
    run_round,
)
from .pipeline import close_round
from .rewards import allocate
from .tree import HONEST

UNCLE_REWARDS = {d: Fraction(8 - d, 8) for d in range(1, 7)}


class IncompleteScript(RuntimeError):
    """The script ended before a single round could close."""


@dataclass(frozen=True)
class EventScript:
    """A round-rule test vector: who mines, in order, with time abstracted away."""

    events: Tuple[int, ...]
    carryover: Optional[Carryover] = None


@dataclass
class ScriptRound:
    """One closed round of a replay, with the tree the replay built;
    classification stays None when the script ended before the round's
    nephew could be identified."""

    outcome: RoundOutcome
    tree: chain.RoundTree
    classification: object = None
    ratios: object = None
    rewards: object = None
    prev_uncle_count: int = 0  # uncle count of the round before this one


def script_config(num_dishonest: int, **kwargs) -> SimConfig:
    """Convenience config for timestamp-free replays."""
    n = num_dishonest + 1
    return SimConfig.from_alphas([1.0 / n] * n, **kwargs)


def _snapshot(
    state: chain.RoundTree,
    winner: int,
    released: int,
    duration: float,
    first_owner: int,
    fork_order: Tuple[int, ...],
    lengths: chain.SortedLengths,
) -> RoundOutcome:
    own = state.subchain(winner).length if winner != HONEST else 0
    return RoundOutcome(
        winner=winner,
        honest_length=state.honest_length,
        per_pool=tuple(
            PoolRoundStat(s.forked, s.fork_position if s.forked else 0, len(s.blocks))
            for s in state.dishonest
        ),
        released=released if winner != HONEST else 0,
        reserved=(own - released) if winner != HONEST else 0,
        duration=duration,
        first_block_owner=first_owner,
        fork_order=fork_order,
        longest=lengths.omega1,
        second=lengths.omega2,
        events=int(duration),
    )


def _classify_entry(entry: ScriptRound, next_first_owner: Optional[int]) -> None:
    entry.classification, entry.ratios, entry.rewards = close_round(
        entry.outcome, entry.prev_uncle_count, next_first_owner
    )


def replay_script(script: EventScript, config: SimConfig) -> List[ScriptRound]:
    """Replay an event order through the tree operations, closing rounds.

    Returns one entry per closed round, in order. A trailing round that
    closed on the script's last event with nothing reserved comes back with
    classification None (its nephew would be the next round's first block).
    Raises IncompleteScript when no round closes at all.
    """
    m = config.num_dishonest
    tip = config.fork_rule == chain.FORK_TIP
    rounds: List[ScriptRound] = []
    carry = script.carryover
    prev_uncles = 0
    pos = 0
    events = script.events

    while pos < len(events):
        state = chain.RoundTree.empty(m)
        fork_order: List[int] = []
        first_owner = -1
        if carry is not None:
            state = chain.fork_subchain(state, carry.owner, 0)
            for _ in range(carry.private_blocks):
                state = chain.append_block(state, carry.owner)
            fork_order.append(carry.owner)
            first_owner = carry.owner
        mined = 0
        closed = None
        while pos < len(events):
            pool = events[pos]
            pos += 1
            mined += 1
            if first_owner < 0:
                first_owner = pool
            if pool != HONEST and not state.subchain(pool).forked:
                state = chain.fork_subchain(state, pool, state.honest_length)
                fork_order.append(pool)
            state = chain.append_block(state, pool)
            if pool == HONEST and tip:
                state = chain.ride_tip(state)
            lengths = chain.sorted_lengths(state)
            verdict = chain.check_termination(lengths, config.lead_threshold)
            if verdict.state == chain.HONEST_WIN:
                closed = (HONEST, 0, lengths)
                break
            if verdict.state == chain.DISHONEST_ELIGIBLE and mined >= 1:
                owner = verdict.pool
                sub = state.subchain(owner)
                if config.release_policy == RELEASE_ALL:
                    released = sub.length
                else:
                    released = min(
                        sub.length,
                        max(1, lengths.omega2 + config.lead_threshold - sub.fork_position),
                    )
                closed = (owner, released, lengths)
                break
        if closed is None:
            break  # script exhausted mid-round
        winner, released, lengths = closed
        outcome = _snapshot(state, winner, released, float(mined), first_owner, tuple(fork_order), lengths)

        # The new round's first block closes the previous round, whose uncle
        # count then feeds the new round's nephew booking.
        if rounds and rounds[-1].classification is None:
            _classify_entry(rounds[-1], outcome.first_block_owner)
            prev_uncles = rounds[-1].classification.uncle_count
        entry = ScriptRound(outcome=outcome, tree=state, prev_uncle_count=prev_uncles)
        rounds.append(entry)
        carry = make_carryover(outcome)
        if carry is not None:
            _classify_entry(entry, None)
            prev_uncles = entry.classification.uncle_count

    if not rounds:
        raise IncompleteScript(f"no round closed within {len(events)} events")
    return rounds


# -- independent reference analysis -------------------------------------------


def reference_analysis(
    outcome: RoundOutcome,
    prev_uncle_count: int,
    max_distance: int = 6,
) -> dict:
    """From-scratch classification, ratios, and rewards for one closed round.

    Straight-line transcription of the rules, working only on the outcome's
    plain counters, kept free of any code shared with the production
    classifier or allocator so it can serve as their oracle.
    """
    n_pools = len(outcome.per_pool) + 1
    v = outcome.honest_length
    winner = outcome.winner

    # Observed blocks as (owner, height) pairs; reserved blocks are unseen.
    observed: List[Tuple[int, int]] = [(HONEST, h) for h in range(1, v + 1)]
    for i, stat in enumerate(outcome.per_pool, start=1):
        count = outcome.released if i == winner else stat.length
        for j in range(1, count + 1):
            observed.append((i, stat.fork_position + j))

    if winner == HONEST:
        main = {(HONEST, h) for h in range(1, v + 1)}
        main_len = v
    else:
        k = outcome.per_pool[winner - 1].fork_position
        main = {(HONEST, h) for h in range(1, k + 1)}
        main |= {(winner, k + j) for j in range(1, outcome.released + 1)}
        main_len = k + outcome.released

    nephew_height = main_len + 1

    # Uncle candidates: first blocks of losing chains; when a dishonest pool
    # won, also the first orphaned honest block, which, if it qualifies,
    # knocks out dishonest first blocks forked at or above it.
    candidates: List[Tuple[int, int]] = []  # (owner, height)
    if winner == HONEST:
        for i, stat in enumerate(outcome.per_pool, start=1):
            if stat.length >= 1:
                candidates.append((i, stat.fork_position + 1))
    else:
        k = outcome.per_pool[winner - 1].fork_position
        honest_is_uncle = False
        if v >= k + 1:
            honest_is_uncle = 1 <= nephew_height - (k + 1) <= max_distance
            candidates.append((HONEST, k + 1))
        for i, stat in enumerate(outcome.per_pool, start=1):
            if i == winner or stat.length == 0:
                continue
            if honest_is_uncle and stat.fork_position >= k + 1:
                continue
            candidates.append((i, stat.fork_position + 1))

    uncles: List[Tuple[int, int, int]] = []  # (owner, height, distance)
    for owner, height in candidates:
        distance = nephew_height - height
        if 1 <= distance <= max_distance:
            uncles.append((owner, height, distance))
    uncles.sort(key=lambda u: (u[1], u[0]))

    uncle_set = {(owner, height) for owner, height, _ in uncles}
    labels: Dict[Tuple[int, int], str] = {}
    for owner, height in observed:
        if (owner, height) in main:
            labels[(owner, height)] = "regular"
        elif (owner, height) in uncle_set:
            labels[(owner, height)] = "uncle"
        else:
            labels[(owner, height)] = "stale"

    total = len(observed)
    n_uncles = len(uncles)
    if winner == HONEST:
        quality = Fraction(1)
    else:
        k = outcome.per_pool[winner - 1].fork_position
        quality = Fraction(k, k + outcome.released)
    main_ratio = Fraction(main_len, total)
    orphan_ratio = Fraction(total - main_len, total)
    uncle_ratio = Fraction(n_uncles, total)

    regular = [Fraction(0)] * n_pools
    uncle_pay = [Fraction(0)] * n_pools
    nephew_pay = [Fraction(0)] * n_pools
    if winner == HONEST:
        regular[HONEST] = Fraction(v)
    else:
        regular[winner] = Fraction(outcome.released)
        regular[HONEST] = Fraction(outcome.per_pool[winner - 1].fork_position)
    for owner, _height, distance in uncles:
        uncle_pay[owner] += Fraction(8 - distance, 8)
    if prev_uncle_count:
        nephew_pay[outcome.first_block_owner] += Fraction(prev_uncle_count, 32)

    return {
        "labels": labels,
        "uncles": uncles,
        "nephew_height": nephew_height,
        "ratios": {
            "chain_quality": quality,
            "main_chain": main_ratio,
            "orphan": orphan_ratio,
            "uncle": uncle_ratio,
            "stale": orphan_ratio - uncle_ratio,
        },
        "rewards": [(regular[p], uncle_pay[p], nephew_pay[p]) for p in range(n_pools)],
        "main_len": main_len,
        "observed": total,
    }


# -- exhaustive comparison ----------------------------------------------------


@dataclass
class ViolationReport:
    scripts: int = 0
    rounds_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, script, message: str) -> None:
        if len(self.violations) < 200:
            self.violations.append(f"{list(script)}: {message}")

    def to_dict(self) -> dict:
        return {
            "scripts": self.scripts,
            "rounds_checked": self.rounds_checked,
            "violations": self.violations,
            "ok": self.ok,
        }


def _engine_outcomes(
    events: Tuple[int, ...], config: SimConfig, carry: Optional[Carryover] = None
) -> List[RoundOutcome]:
    clock = ScriptClock(events)
    outcomes: List[RoundOutcome] = []
    while True:
        try:
            outcome = run_round(config, carry, clock)
        except ScriptExhausted:
            break
        outcomes.append(outcome)
        carry = make_carryover(outcome)
    return outcomes


def _check_round(
    report: ViolationReport,
    events,
    outcome: RoundOutcome,
    classification,
    ratios,
    rewards,
    prev_uncles: int,
    config: SimConfig,
) -> None:
    """Per-round invariants plus the production-vs-reference comparison."""
    report.rounds_checked += 1

    if config.fork_rule == chain.FORK_TIP:
        for i, stat in enumerate(outcome.per_pool, start=1):
            if stat.forked and stat.fork_position != outcome.honest_length:
                report.add(events, f"pool {i} at {stat.fork_position}, off the honest tip {outcome.honest_length}")
    elif outcome.fork_order:
        first_fork = outcome.fork_order[0]
        pos = outcome.per_pool[first_fork - 1].fork_position
        # Before any dishonest block the honest pool leads by its length, so
        # it has won by the time that length reaches the threshold.
        if not 0 <= pos < config.lead_threshold:
            report.add(events, f"first fork of pool {first_fork} at {pos}, not below {config.lead_threshold}")
    # The leading criterion and the pegged main chain must measure from one
    # base: a round that reserves nothing pegs its leader's generalized length.
    if outcome.reserved == 0 and outcome.pegged_count != outcome.longest:
        report.add(events, f"pegged {outcome.pegged_count} blocks, leader measured {outcome.longest}")

    ref = reference_analysis(outcome, prev_uncles)

    got_uncles = [(u.owner, u.height, u.distance) for u in classification.uncles]
    if got_uncles != ref["uncles"]:
        report.add(events, f"uncles {got_uncles} != reference {ref['uncles']}")
    got_labels = {(b.owner, b.height): c.kind for b, c in block_labels(outcome, classification).items()}
    if got_labels != ref["labels"]:
        report.add(events, f"labels differ: {got_labels} != {ref['labels']}")
    # The counts are arithmetic; the reference labels count them block by block.
    kinds = Counter(ref["labels"].values())
    c = classification
    got_counts = (c.regular_count, c.uncle_count, c.stale_count, c.orphan_count)
    if got_counts != (kinds["regular"], kinds["uncle"], kinds["stale"], kinds["uncle"] + kinds["stale"]):
        report.add(events, f"regular/uncle/stale/orphan counts {got_counts} != reference labels {dict(kinds)}")
    if c.nephew.height != ref["nephew_height"]:
        report.add(events, f"nephew height {c.nephew.height} != {ref['nephew_height']}")

    got_ratios = {name: getattr(ratios, name) for name in ref["ratios"]}
    if got_ratios != ref["ratios"]:
        report.add(events, f"ratios differ: {got_ratios} != {ref['ratios']}")
    if ratios.main_chain + ratios.orphan != 1:
        report.add(events, "main + orphan != 1")
    if ratios.orphan != ratios.uncle + ratios.stale:
        report.add(events, "orphan != uncle + stale")
    if outcome.winner == HONEST and ratios.chain_quality != 1:
        report.add(events, "honest win with chain quality != 1")

    got_rewards = [(p.regular, p.uncle, p.nephew) for p in rewards.per_pool]
    if got_rewards != ref["rewards"]:
        report.add(events, f"rewards differ: {got_rewards} != {ref['rewards']}")
    if sum(p.regular for p in rewards.per_pool) != outcome.pegged_count:
        report.add(events, "regular rewards != pegged count")
    for record in classification.uncles:
        if record.reward not in UNCLE_REWARDS.values():
            report.add(events, f"uncle reward {record.reward} not in the table")


def enumerate_and_check(
    max_events: int,
    num_dishonest: int,
    config: Optional[SimConfig] = None,
    mutate_max_distance: Optional[int] = None,
    carryover: Optional[Carryover] = None,
    scripts=None,
) -> ViolationReport:
    """Replay every pool sequence of length max_events through the engine,
    the tree-op replay, and the reference analysis; report disagreements.

    A round closed by the script's last event without a nephew source is
    checked once per possible next-first-block owner. carryover seeds every
    replay with a private lead; scripts, when given, replaces the exhaustive
    enumeration with an explicit script list. mutate_max_distance reruns the
    production classifier with a non-standard distance cutoff against the
    unchanged reference; such a run must produce violations, which is how
    the harness's own sensitivity is verified.
    """
    if max_events > 10:
        raise ValueError("bounded enumeration only: max_events <= 10")
    if config is None:
        config = script_config(num_dishonest)
    cutoff = 6 if mutate_max_distance is None else mutate_max_distance
    report = ViolationReport()
    n = num_dishonest + 1

    if scripts is None:
        scripts = (
            EventScript(events=events, carryover=carryover)
            for events in product(range(n), repeat=max_events)
        )
    for script in scripts:
        events = script.events
        report.scripts += 1
        try:
            rounds = replay_script(script, config)
        except IncompleteScript:
            continue

        engine_rounds = _engine_outcomes(events, config, script.carryover)
        if len(engine_rounds) != len(rounds):
            report.add(events, f"engine closed {len(engine_rounds)} rounds, replay closed {len(rounds)}")
        for got, want in zip(engine_rounds, rounds):
            for name in RoundOutcome._fields:
                a, b = getattr(got, name), getattr(want.outcome, name)
                if a != b:
                    report.add(events, f"engine {name}={a!r} != replay {b!r}")
                    break
            # The engine keeps counters only: the tree derived from them must
            # be the one the replay built, and the pegged count its main chain.
            if got.tree != want.tree:
                report.add(events, f"engine tree {got.tree!r} != replay tree {want.tree!r}")
            pegged = chain.select_main_chain(want.tree, want.outcome.winner, want.outcome.released)
            if got.pegged_count != len(pegged):
                report.add(events, f"engine pegged_count {got.pegged_count} != replay main chain {len(pegged)}")

        for entry in rounds:
            outcome = entry.outcome
            if entry.classification is not None and cutoff == 6:
                _check_round(
                    report, events, outcome, entry.classification, entry.ratios,
                    entry.rewards, entry.prev_uncle_count, config,
                )
                continue
            # Trailing round, or a mutated rerun: close under each possible
            # next-first-block owner (the reserve fixes it when present).
            owners = [None] if outcome.reserved >= 1 else list(range(n))
            for owner in owners:
                nephew = determine_nephew(outcome, owner)
                uncles = find_uncles(outcome, nephew.height, max_distance=cutoff)
                classification = classify_round(outcome, nephew, uncles)
                ratios = round_ratios(outcome, classification)
                rewards = allocate(outcome, classification, entry.prev_uncle_count)
                _check_round(
                    report, events, outcome, classification, ratios, rewards,
                    entry.prev_uncle_count, config,
                )

    return report
