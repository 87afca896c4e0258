"""Stochastic round engine.

Each pool mines with an exponential clock whose mean scales as
1/alpha + 1/gamma (mining power plus communication overhead) times the mean
block time. A round is a race: the pool with the earliest pending timestamp
mines, a dishonest pool forks at the current honest tip on its first block,
and the round ends under the two-block leading criterion. The config's fork
rule says whether that fork position stays fixed ("anchored", the default)
or every forked dishonest chain rides the honest tip, moving up with each
honest block ("tip"). A dishonest winner may hold back part of its chain as
a private lead for the next round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

HONEST = 0  # the honest pool's index; dishonest pools are 1..m

FORK_ANCHORED = "anchored"
FORK_TIP = "tip"
FORK_RULES = (FORK_ANCHORED, FORK_TIP)

RELEASE_ALL = "release-all"
RELEASE_MIN = "release-min"
RELEASE_POLICIES = (RELEASE_ALL, RELEASE_MIN)

ALPHA_SLACK = 1e-9  # float dust tolerated when pool powers sum past 1

# Hook deciding whether an eligible dishonest leader ends the round now.
# Arguments: (longest, second, blocks mined this round). None means eager.
TerminationPolicy = Callable[[int, int, int], bool]


class ScriptExhausted(RuntimeError):
    """A scripted clock ran out of events before the round ended."""


@dataclass(frozen=True)
class PoolSpec:
    pool: int
    alpha: float


@dataclass(frozen=True)
class SimConfig:
    pools: Tuple[PoolSpec, ...]
    gamma: float = 10.0
    mean_block_time: float = 15.0
    lead_threshold: int = 2
    release_policy: str = RELEASE_ALL
    seed: int = 0
    fork_rule: str = FORK_ANCHORED

    def __post_init__(self):
        if len(self.pools) < 2:
            raise ValueError("need the honest pool plus at least one dishonest pool")
        for want, spec in enumerate(self.pools):
            if spec.pool != want:
                raise ValueError(f"pools must be indexed 0..m in order, got {spec.pool} at {want}")
            if not 0.0 <= spec.alpha <= 1.0:  # NaN fails every comparison
                raise ValueError(f"alphas[{spec.pool}]: must be a number in [0, 1], got {spec.alpha!r}")
        total = sum(spec.alpha for spec in self.pools)
        if total > 1.0 + ALPHA_SLACK:
            raise ValueError(f"pool alphas sum to {total:.6f} > 1")
        if total <= 0.0:
            raise ValueError("at least one pool needs positive mining power")
        if not self.gamma > 0.0:  # NaN fails every comparison
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 < self.mean_block_time < math.inf:
            raise ValueError(f"mean block time must be positive and finite, got {self.mean_block_time}")
        threshold = self.lead_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, int) or threshold < 1:
            raise ValueError(f"lead threshold must be a positive integer, got {threshold!r}")
        if self.release_policy not in RELEASE_POLICIES:
            raise ValueError(f"unknown release policy {self.release_policy!r}")
        if self.fork_rule not in FORK_RULES:
            raise ValueError(f"unknown fork rule {self.fork_rule!r}")

    @classmethod
    def from_alphas(cls, alphas: Sequence[float], **kwargs) -> "SimConfig":
        return cls(pools=tuple(PoolSpec(i, a) for i, a in enumerate(alphas)), **kwargs)

    @property
    def num_dishonest(self) -> int:
        return len(self.pools) - 1

    @property
    def alphas(self) -> Tuple[float, ...]:
        return tuple(spec.alpha for spec in self.pools)


class PoolRoundStat(NamedTuple):
    """Final state of one dishonest sub-chain: forked flag, fork position, length."""

    forked: bool
    fork_position: int
    length: int


class RoundOutcome(NamedTuple):
    """A finished round as plain counters; a NamedTuple, like every record
    built once per round, since those are immutable and cheap to build."""

    winner: int
    honest_length: int
    per_pool: Tuple[PoolRoundStat, ...]  # index i-1 holds dishonest pool i
    released: int  # winner's own blocks pegged this round (0 on an honest win)
    reserved: int  # winner's blocks held back as next round's private lead
    duration: float
    first_block_owner: int  # owner of the round's first block (carried or mined)
    fork_order: Tuple[int, ...]  # dishonest pools in the order they forked
    longest: int  # leader's generalized length at termination
    second: int  # runner-up generalized length at termination
    events: int  # blocks mined this round (carryover blocks excluded)

    @property
    def pegged_count(self) -> int:
        """Main-chain length: honest length, or fork position plus released."""
        if self.winner == HONEST:
            return self.honest_length
        return self.per_pool[self.winner - 1].fork_position + self.released


@dataclass(frozen=True)
class Carryover:
    """Private blocks a dishonest winner brings into the next round.

    The first private block is the nephew that closes the finished round's
    classification.
    """

    owner: int
    private_blocks: int

    def __post_init__(self):
        if self.owner == HONEST:
            raise ValueError("only a dishonest pool can reserve blocks")
        if self.private_blocks < 1:
            raise ValueError("carryover requires at least one private block")


def interarrival_scale(alpha: float, gamma: float, mean_block_time: float) -> float:
    """Mean block-generating-plus-pegging time for one pool; inf if alpha is 0."""
    if alpha == 0.0:
        return math.inf
    return mean_block_time * (1.0 / alpha + 1.0 / gamma)


class _PoolStream:
    """Batched exponential gaps for one pool, on its own counter-based stream.

    A zero-power pool's buffer holds infinite gaps and draws no randomness.
    """

    __slots__ = ("_gen", "scale", "_buf", "_pos", "_batch")

    def __init__(self, seed_seq: np.random.SeedSequence, scale: float, batch: int = 1024):
        self._gen = np.random.Generator(np.random.Philox(seed_seq))
        self.scale = scale
        self._batch = batch
        self._buf: list = []
        self._pos = batch  # empty: the first gap fills the buffer

    def next_gap(self) -> float:
        pos = self._pos
        if pos == self._batch:
            if self.scale == math.inf:
                self._buf = [math.inf] * self._batch
            else:
                u = self._gen.random(self._batch)
                self._buf = (-self.scale * np.log1p(-u)).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]


class MiningClock:
    """Event source for run_round: per-pool timestamps, earliest pool mines.

    Each pool draws from its own child stream of the master seed, so results
    do not depend on how replications are scheduled across workers. Create
    one clock per replication and reuse it across rounds.
    """

    def __init__(self, config: SimConfig, seed=None, batch: int = 1024):
        if seed is None:
            seed = config.seed
        seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = seed_seq.spawn(len(config.pools))
        self._streams = [
            _PoolStream(child, interarrival_scale(spec.alpha, config.gamma, config.mean_block_time), batch)
            for child, spec in zip(children, config.pools)
        ]
        self._next: list = []

    def begin_round(self) -> None:
        # Fresh timestamps each round; the round clock restarts at zero.
        self._next = [s.next_gap() for s in self._streams]

    def next_event(self) -> Tuple[int, float]:
        nxt = self._next
        at = min(nxt)
        if at == math.inf:
            raise RuntimeError("no pool can mine (all alphas zero?)")
        pool = nxt.index(at)  # the first minimum: ties go to the lowest index
        nxt[pool] = at + self._streams[pool].next_gap()
        return pool, at


class ScriptClock:
    """Deterministic event source replaying a fixed pool order with unit gaps."""

    def __init__(self, events: Sequence[int]):
        self._events = list(events)
        self._pos = 0
        self._now = 0.0

    def begin_round(self) -> None:
        self._now = 0.0

    def next_event(self) -> Tuple[int, float]:
        if self._pos >= len(self._events):
            raise ScriptExhausted(f"script ended after {self._pos} events")
        pool = self._events[self._pos]
        self._pos += 1
        self._now += 1.0
        return pool, self._now


def run_round(
    config: SimConfig,
    carryover: Optional[Carryover] = None,
    clock=None,
    termination_policy: Optional[TerminationPolicy] = None,
) -> RoundOutcome:
    """Play one round of mining competition and return its outcome.

    Termination is re-evaluated after every single-block event; an honest
    leader at the threshold ends the round outright, a dishonest leader ends
    it when the policy fires (eagerly by default). A round must contain at
    least one mined block before a dishonest leader may end it, so a round
    that starts with a large private lead still has positive duration.

    Under the tip rule every forked dishonest chain's fork position is the
    current honest length, for the leading criterion, release-min, block
    heights and pegging alike. Once any dishonest pool has forked it stays
    ahead of the honest pool, so the honest pool wins only a round it opens
    with lead_threshold honest blocks, and a dishonest win orphans no honest
    block.
    """
    if clock is None:
        clock = MiningClock(config)
    m = config.num_dishonest
    threshold = config.lead_threshold
    tip = config.fork_rule == FORK_TIP

    v = 0
    forked = [False] * (m + 1)
    fork_pos = [0] * (m + 1)
    length = [0] * (m + 1)
    gen = [0] * (m + 1)  # generalized lengths; gen[0] is unused, v stands in
    fork_order: list = []
    first_owner = -1

    if carryover is not None:
        z = carryover.owner
        if not 1 <= z <= m:
            raise ValueError(f"carryover owner {z} not a dishonest pool of this config")
        forked[z] = True
        length[z] = gen[z] = carryover.private_blocks
        fork_order.append(z)
        first_owner = z

    clock.begin_round()
    next_event = clock.next_event
    pools = range(1, m + 1)
    mined = 0
    now = 0.0
    winner = -1
    longest = 0
    second = 0

    while True:
        pool, now = next_event()
        mined += 1
        if first_owner < 0:
            first_owner = pool
        if pool == HONEST:
            v += 1
            if tip:
                for i in fork_order:
                    fork_pos[i] = v
                    gen[i] += 1
        else:
            if not forked[pool]:
                forked[pool] = True
                fork_pos[pool] = gen[pool] = v
                fork_order.append(pool)
            length[pool] += 1
            gen[pool] += 1

        # Top-two scan over generalized lengths; starting from the honest
        # pool with strict > keeps the honest-first, lowest-index tie-break.
        longest = v
        leader = HONEST
        second = 0
        for i in pools:
            g = gen[i]
            if g > longest:
                second = longest
                longest = g
                leader = i
            elif g > second:
                second = g

        if longest - second >= threshold:
            if leader == HONEST:
                winner = leader
                break
            if termination_policy is None or termination_policy(longest, second, mined):
                winner = leader
                break

    if winner == HONEST:
        released = 0
        reserved = 0
    else:
        own = length[winner]
        if config.release_policy == RELEASE_ALL:
            released = own
        else:
            # Smallest release that keeps the pegged part a full lead ahead.
            released = max(1, second + threshold - fork_pos[winner])
            released = min(released, own)
        reserved = own - released

    return RoundOutcome(
        winner=winner,
        honest_length=v,
        per_pool=tuple([PoolRoundStat(forked[i], fork_pos[i], length[i]) for i in pools]),
        released=released,
        reserved=reserved,
        duration=now,
        first_block_owner=first_owner,
        fork_order=tuple(fork_order),
        longest=longest,
        second=second,
        events=mined,
    )


def make_carryover(outcome: RoundOutcome) -> Optional[Carryover]:
    """Private lead the winner takes into the next round, if any."""
    if outcome.reserved < 1:
        return None
    return Carryover(owner=outcome.winner, private_blocks=outcome.reserved)
