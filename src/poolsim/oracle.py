"""Reference implementations and exhaustive cross-checks.

Two deliberately separate implementations of the round rules exist: the
engine plays rounds over plain counters for speed, while replay_script here
drives a value-semantic block tree from a fixed event order. On top of that,
reference_analysis is a from-scratch transcription of the classification,
ratio, and reward rules that shares no code with the production classifier
or allocator. enumerate_and_check replays every pool sequence of a given
length through the engine and the tree replay, closes the rounds with the
production columnar close, checks them against the reference, and reports
any disagreement or invariant violation; the report must come back empty.

The tree is the paper's representation of a round: m+1 sub-chains, one
honest chain and one (initially empty) chain per dishonest pool. A
dishonest chain forks off the honest chain at the honest tip when the pool
mines its first block of the round. Under the anchored fork rule that fork
position stays fixed; under the tip rule (ride_tip) every forked chain moves
up with each honest block. The round ends under the two-block leading
criterion, evaluated on the generalized lengths (fork position plus own
blocks) of all sub-chains; block heights and main-chain selection use the
same fork position. Every tree operation takes a tree and returns a new one.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .engine import (
    FORK_TIP,
    HONEST,
    RELEASE_ALL,
    Carryover,
    RoundOutcome,
    ScriptClock,
    SimConfig,
    round_columns,
)
from .pipeline import RoundRecord, chained_rounds, close_columns, round_records

UNCLE_REWARDS = {d: Fraction(8 - d, 8) for d in range(1, 7)}


# -- the round tree -------------------------------------------------------------


class InvalidPool(ValueError):
    """An operation named a pool that cannot perform it."""


class AlreadyForked(ValueError):
    """A dishonest pool tried to fork twice in one round."""


class NotForked(ValueError):
    """A dishonest pool tried to extend a chain it has not forked yet."""


class InvalidRelease(ValueError):
    """The released block count is outside the winner's mined range."""


class Block(NamedTuple):
    """One mined block.

    height counts from the round genesis (first block of the round = 1);
    ordinal is the 1-based position within the owner's own sequence. For an
    honest block the two coincide; for a dishonest block height equals the
    fork position plus the ordinal.
    """

    owner: int
    height: int
    ordinal: int


class SubChain(NamedTuple):
    """The blocks one pool has mined this round.

    A dishonest sub-chain is empty until the pool forks; fork_position is
    meaningful only while forked is True. It changes within a round only
    under the tip fork rule, through ride_tip.
    """

    owner: int
    fork_position: int = 0
    blocks: Tuple[Block, ...] = ()
    forked: bool = False

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def generalized_length(self) -> int:
        if self.owner == HONEST:
            return len(self.blocks)
        return self.fork_position + len(self.blocks) if self.forked else 0


class RoundTree(NamedTuple):
    honest: SubChain
    dishonest: Tuple[SubChain, ...]

    @classmethod
    def empty(cls, num_dishonest: int) -> "RoundTree":
        if num_dishonest < 1:
            raise ValueError("need at least one dishonest pool")
        return cls(
            honest=SubChain(owner=HONEST),
            dishonest=tuple(SubChain(owner=i) for i in range(1, num_dishonest + 1)),
        )

    @property
    def honest_length(self) -> int:
        return len(self.honest.blocks)

    def subchain(self, pool: int) -> SubChain:
        if pool == HONEST:
            return self.honest
        if not 1 <= pool <= len(self.dishonest):
            raise InvalidPool(f"no pool {pool} in a tree with {len(self.dishonest)} dishonest pools")
        return self.dishonest[pool - 1]

    def _with_subchain(self, pool: int, sub: SubChain) -> "RoundTree":
        if pool == HONEST:
            return self._replace(honest=sub)
        chains = list(self.dishonest)
        chains[pool - 1] = sub
        return self._replace(dishonest=tuple(chains))


class SortedLengths(NamedTuple):
    """Generalized lengths of all pools, longest first.

    Ties are broken deterministically: the honest pool sorts before any
    dishonest pool of equal length, then by ascending pool index. The
    tie-break never affects a termination verdict (the leader only matters
    once its lead is at least the threshold, i.e. strictly positive).
    """

    entries: Tuple[Tuple[int, int], ...]  # (pool, generalized length)

    @property
    def omega1(self) -> int:
        return self.entries[0][1]

    @property
    def omega2(self) -> int:
        return self.entries[1][1]

    @property
    def leader(self) -> int:
        return self.entries[0][0]


CONTINUE = "continue"
HONEST_WIN = "honest-win"
DISHONEST_ELIGIBLE = "dishonest-eligible"


class TerminationVerdict(NamedTuple):
    state: str
    pool: Optional[int] = None

    @property
    def ends_round(self) -> bool:
        return self.state != CONTINUE


def fork_subchain(tree: RoundTree, pool: int, honest_length_now: int) -> RoundTree:
    """Fix a dishonest pool's fork position at the current honest tip."""
    if pool == HONEST:
        raise InvalidPool("the honest pool never forks")
    sub = tree.subchain(pool)
    if sub.forked:
        raise AlreadyForked(f"pool {pool} already forked at {sub.fork_position}")
    if not 0 <= honest_length_now <= tree.honest_length:
        raise ValueError(f"fork position {honest_length_now} beyond honest length {tree.honest_length}")
    return tree._with_subchain(pool, sub._replace(forked=True, fork_position=honest_length_now))


def append_block(tree: RoundTree, pool: int) -> RoundTree:
    """Append the next block to a pool's sub-chain."""
    sub = tree.subchain(pool)
    if pool != HONEST and not sub.forked:
        raise NotForked(f"pool {pool} must fork before mining")
    ordinal = len(sub.blocks) + 1
    base = 0 if pool == HONEST else sub.fork_position
    block = Block(owner=pool, height=base + ordinal, ordinal=ordinal)
    return tree._with_subchain(pool, sub._replace(blocks=sub.blocks + (block,)))


def ride_tip(tree: RoundTree) -> RoundTree:
    """Move every forked dishonest chain onto the current honest tip.

    This is the tip fork rule's step after each honest block: the chain keeps
    its own blocks, its fork position becomes the honest length, and its
    block heights follow, so the generalized length it is compared by and
    the heights it is pegged and classified at share one base.
    """
    v = tree.honest_length
    chains = tuple(
        sub._replace(
            fork_position=v,
            blocks=tuple(Block(b.owner, v + b.ordinal, b.ordinal) for b in sub.blocks),
        )
        if sub.forked else sub
        for sub in tree.dishonest
    )
    return tree._replace(dishonest=chains)


def sorted_lengths(tree: RoundTree) -> SortedLengths:
    pairs = [(HONEST, tree.honest.generalized_length)]
    pairs += [(sub.owner, sub.generalized_length) for sub in tree.dishonest]
    pairs.sort(key=itemgetter(1), reverse=True)  # stable: ties keep pool order
    return SortedLengths(entries=tuple(pairs))


def check_termination(
    lengths: SortedLengths, lead_threshold: int = 2
) -> TerminationVerdict:
    """Apply the two-block leading criterion to sorted generalized lengths.

    An honest leader wins outright; a dishonest leader merely becomes
    eligible to end the round (whether it does is the engine's policy).
    Under single-block events the honest lead reaches the threshold exactly,
    so testing >= here coincides with equality on reachable states.
    """
    if lengths.omega1 - lengths.omega2 < lead_threshold:
        return TerminationVerdict(CONTINUE)
    if lengths.leader == HONEST:
        return TerminationVerdict(HONEST_WIN, HONEST)
    return TerminationVerdict(DISHONEST_ELIGIBLE, lengths.leader)


def select_main_chain(tree: RoundTree, winner: int, released: int) -> Tuple[Block, ...]:
    """Blocks pegged onto the blockchain when `winner` ends the round.

    An honest winner pegs its whole chain (released is ignored). A dishonest
    winner pegs the honest prefix up to its fork position plus `released` of
    its own blocks; the remainder stays private.
    """
    if winner == HONEST:
        return tree.honest.blocks
    sub = tree.subchain(winner)
    if not sub.forked or not 1 <= released <= sub.length:
        raise InvalidRelease(
            f"pool {winner} cannot release {released} of {sub.length if sub.forked else 0} blocks"
        )
    if sub.fork_position > tree.honest_length:
        raise ValueError("fork position beyond honest chain")
    return tree.honest.blocks[: sub.fork_position] + sub.blocks[:released]


# -- tree-op replay -------------------------------------------------------------


class IncompleteScript(RuntimeError):
    """The script ended before a single round could close."""


@dataclass(frozen=True)
class EventScript:
    """A round-rule test vector: who mines, in order, with time abstracted away."""

    events: Tuple[int, ...]
    carryover: Optional[Carryover] = None


class ScriptRound(NamedTuple):
    """One closed round of a replay, with the tree the replay built."""

    outcome: RoundOutcome
    tree: RoundTree


def script_config(num_dishonest: int, **kwargs) -> SimConfig:
    """Convenience config for timestamp-free replays."""
    n = num_dishonest + 1
    return SimConfig.from_alphas([1.0 / n] * n, **kwargs)


def _snapshot(
    state: RoundTree,
    winner: int,
    released: int,
    duration: float,
    first_owner: int,
    lengths: SortedLengths,
) -> RoundOutcome:
    own = state.subchain(winner).length if winner != HONEST else 0
    return RoundOutcome(
        winner=winner,
        fork_pos=(0,) + tuple(s.fork_position if s.forked else 0 for s in state.dishonest),
        length=(state.honest_length,) + tuple(len(s.blocks) for s in state.dishonest),
        released=released if winner != HONEST else 0,
        reserved=(own - released) if winner != HONEST else 0,
        pegged=len(select_main_chain(state, winner, released)),
        duration=duration,
        first_owner=first_owner,
        events=int(duration),
        longest=lengths.omega1,
        second=lengths.omega2,
    )


def replay_script(script: EventScript, config: SimConfig) -> List[ScriptRound]:
    """Replay an event order through the tree operations.

    Returns one entry per closed round, in order; a round still open when
    the script ends is dropped. Raises IncompleteScript when no round closes
    at all.
    """
    m = config.num_dishonest
    tip = config.fork_rule == FORK_TIP
    rounds: List[ScriptRound] = []
    carry = script.carryover
    pos = 0
    events = script.events

    while pos < len(events):
        state = RoundTree.empty(m)
        first_owner = -1
        if carry is not None:
            state = fork_subchain(state, carry.owner, 0)
            for _ in range(carry.private_blocks):
                state = append_block(state, carry.owner)
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
                state = fork_subchain(state, pool, state.honest_length)
            state = append_block(state, pool)
            if pool == HONEST and tip:
                state = ride_tip(state)
            lengths = sorted_lengths(state)
            verdict = check_termination(lengths, config.lead_threshold)
            if verdict.state == HONEST_WIN:
                closed = (HONEST, 0, lengths)
                break
            if verdict.state == DISHONEST_ELIGIBLE and mined >= 1:
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
        rounds.append(ScriptRound(_snapshot(state, winner, released, float(mined), first_owner, lengths), state))
        # The winner's blocks past the released ones stay private for the next round.
        kept = state.subchain(winner).length - released if winner != HONEST else 0
        carry = Carryover(winner, kept) if kept else None

    if not rounds:
        raise IncompleteScript(f"no round closed within {len(events)} events")
    return rounds


def close_replay(
    rounds: List[ScriptRound], next_first_owners: Iterable[Optional[int]]
) -> Iterator[List[RoundRecord]]:
    """A replay's rounds closed by the production columnar close, one pass
    per possible owner of the first block after the script.

    Only the last round's nephew depends on that owner. It may be None only
    when the last round reserved blocks, whose first is then its nephew.
    """
    outcomes = [entry.outcome for entry in rounds]
    columns = round_columns(outcomes)
    for owner in next_first_owners:
        yield list(round_records(close_columns(columns, owner, 0), outcomes, 1))


# -- independent reference analysis -------------------------------------------


def reference_analysis(outcome: RoundOutcome, prev_uncle_count: int) -> dict:
    """From-scratch classification, ratios, and rewards for one closed round.

    Straight-line transcription of the rules, working only on the outcome's
    plain counters, kept free of any code shared with the production
    classifier or allocator so it can serve as their oracle.
    """
    n_pools = len(outcome.length)
    v = outcome.length[HONEST]
    fork_pos, length = outcome.fork_pos, outcome.length
    winner = outcome.winner

    # Observed blocks as (owner, height) pairs; reserved blocks are unseen.
    observed: List[Tuple[int, int]] = [(HONEST, h) for h in range(1, v + 1)]
    for i in range(1, n_pools):
        count = outcome.released if i == winner else length[i]
        for j in range(1, count + 1):
            observed.append((i, fork_pos[i] + j))

    if winner == HONEST:
        main = {(HONEST, h) for h in range(1, v + 1)}
        main_len = v
    else:
        k = fork_pos[winner]
        main = {(HONEST, h) for h in range(1, k + 1)}
        main |= {(winner, k + j) for j in range(1, outcome.released + 1)}
        main_len = k + outcome.released

    nephew_height = main_len + 1

    # Uncle candidates: first blocks of losing chains; when a dishonest pool
    # won, also the first orphaned honest block, which, if it qualifies,
    # knocks out dishonest first blocks forked at or above it.
    candidates: List[Tuple[int, int]] = []  # (owner, height)
    if winner == HONEST:
        for i in range(1, n_pools):
            if length[i] >= 1:
                candidates.append((i, fork_pos[i] + 1))
    else:
        k = fork_pos[winner]
        honest_is_uncle = False
        if v >= k + 1:
            honest_is_uncle = 1 <= nephew_height - (k + 1) <= 6
            candidates.append((HONEST, k + 1))
        for i in range(1, n_pools):
            if i == winner or length[i] == 0:
                continue
            if honest_is_uncle and fork_pos[i] >= k + 1:
                continue
            candidates.append((i, fork_pos[i] + 1))

    uncles: List[Tuple[int, int, int]] = []  # (owner, height, distance)
    for owner, height in candidates:
        distance = nephew_height - height
        if 1 <= distance <= 6:
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
        k = fork_pos[winner]
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
        regular[HONEST] = Fraction(fork_pos[winner])
    for owner, _height, distance in uncles:
        uncle_pay[owner] += Fraction(8 - distance, 8)
    if prev_uncle_count:
        nephew_pay[outcome.first_owner] += Fraction(prev_uncle_count, 32)

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


def _check_round(report: ViolationReport, events, record: RoundRecord, ref: dict, config: SimConfig) -> None:
    """Per-round invariants plus the production-vs-reference comparison."""
    report.rounds_checked += 1
    outcome = record.outcome

    fork_pos, length = outcome.fork_pos, outcome.length
    forked = [i for i in range(1, len(length)) if length[i]]
    if config.fork_rule == FORK_TIP:
        for i in forked:
            if fork_pos[i] != length[HONEST]:
                report.add(events, f"pool {i} at {fork_pos[i]}, off the honest tip {length[HONEST]}")
    elif forked:
        # Fork positions only grow within a round, so the lowest is the first
        # fork's. Before any dishonest block the honest pool leads by its
        # length, so it has won by the time that length reaches the threshold.
        first_fork = min(forked, key=fork_pos.__getitem__)
        pos = fork_pos[first_fork]
        if not 0 <= pos < config.lead_threshold:
            report.add(events, f"first fork of pool {first_fork} at {pos}, not below {config.lead_threshold}")
    # The leading criterion and the pegged main chain must measure from one
    # base: a round that reserves nothing pegs its leader's generalized length.
    if outcome.reserved == 0 and outcome.pegged != outcome.longest:
        report.add(events, f"pegged {outcome.pegged} blocks, leader measured {outcome.longest}")

    c = record.classification

    got_uncles = [(u.owner, u.height, u.distance) for u in c.uncles]
    if got_uncles != ref["uncles"]:
        report.add(events, f"uncles {got_uncles} != reference {ref['uncles']}")
    # The counts are arithmetic; the reference labels count them block by block.
    kinds = Counter(ref["labels"].values())
    got_counts = (c.regular_count, c.uncle_count, c.stale_count, c.orphan_count)
    if got_counts != (kinds["regular"], kinds["uncle"], kinds["stale"], kinds["uncle"] + kinds["stale"]):
        report.add(events, f"regular/uncle/stale/orphan counts {got_counts} != reference labels {dict(kinds)}")
    if c.nephew.height != ref["nephew_height"]:
        report.add(events, f"nephew height {c.nephew.height} != {ref['nephew_height']}")

    ratios = {name: getattr(record.ratios, name) for name in ref["ratios"]}
    if ratios != ref["ratios"]:
        report.add(events, f"ratios differ: {ratios} != {ref['ratios']}")
    if ratios["main_chain"] + ratios["orphan"] != 1:
        report.add(events, "main + orphan != 1")
    if ratios["orphan"] != ratios["uncle"] + ratios["stale"]:
        report.add(events, "orphan != uncle + stale")
    if outcome.winner == HONEST and ratios["chain_quality"] != 1:
        report.add(events, "honest win with chain quality != 1")

    per_pool = record.rewards.per_pool
    got_rewards = [(p.regular, p.uncle, p.nephew) for p in per_pool]
    if got_rewards != ref["rewards"]:
        report.add(events, f"rewards differ: {got_rewards} != {ref['rewards']}")
    if sum(p.regular for p in per_pool) != outcome.pegged:
        report.add(events, "regular rewards != pegged count")
    for uncle in c.uncles:
        if uncle.reward not in UNCLE_REWARDS.values():
            report.add(events, f"uncle reward {uncle.reward} not in the table")


def enumerate_and_check(
    max_events: int,
    num_dishonest: int,
    config: Optional[SimConfig] = None,
    carryover: Optional[Carryover] = None,
    scripts=None,
) -> ViolationReport:
    """Replay every pool sequence of length max_events through the engine,
    the tree-op replay, and the reference analysis; report disagreements.

    Each script's rounds are closed together by the production columnar
    close. Only the last round's nephew depends on the block after the
    script, so when it reserved nothing, the script is closed once per
    possible next-first-block owner and that round is checked each time.
    carryover seeds every replay with a private lead; scripts, when given,
    replaces the exhaustive enumeration with an explicit script list.
    The reference keeps its own uncle cutoff of 6, so a run with the
    production cutoff patched to another value must report violations;
    that is how the harness's own sensitivity is verified.
    """
    if max_events > 10:
        raise ValueError("bounded enumeration only: max_events <= 10")
    if config is None:
        config = script_config(num_dishonest)
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

        engine_rounds = list(chained_rounds(config, ScriptClock(events), carryover=script.carryover))
        if len(engine_rounds) != len(rounds):
            report.add(events, f"engine closed {len(engine_rounds)} rounds, replay closed {len(rounds)}")
        # The replay's pegged count is the length of its selected main chain.
        for got, want in zip(engine_rounds, rounds):
            for name in RoundOutcome._fields:
                a, b = getattr(got, name), getattr(want.outcome, name)
                if a != b:
                    report.add(events, f"engine {name}={a!r} != replay {b!r}")
                    break

        refs = []
        prev_uncles = 0  # the reference chains its own uncle counts
        for entry in rounds:
            refs.append(reference_analysis(entry.outcome, prev_uncles))
            prev_uncles = len(refs[-1]["uncles"])
        owners = [None] if rounds[-1].outcome.reserved else range(n)
        for k, records in enumerate(close_replay(rounds, owners)):
            # Rounds before the last close the same way for every owner.
            for record, ref in zip(records, refs) if k == 0 else [(records[-1], refs[-1])]:
                _check_round(report, events, record, ref, config)

    return report
