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

The clocks are exponential and restart each round, so the race has one
draw rule: the miner of each block is an independent categorical draw with
p_i proportional to the rate 1 / interarrival_scale(alpha_i, gamma, T) (a
zero-power pool's rate is 0, so it never mines), and the gap before it is
exponential with mean 1 / sum of the rates, so a round of k blocks lasts
Gamma(k, 1 / sum of the rates). LaneDraws holds that rule on one Philox
generator on the run's seed, and the two engines read it.

The engines share one set of round rules. run_round plays one round at a
time from an event source and takes a carryover and a termination policy;
it runs withholding runs and the oracle's checks. Its sources are
MiningClock, which reads the draw rule one event at a time, and
ScriptClock, which replays a fixed script. play_lanes plays a block of
eager rounds (no policy) side by side as lanes of numpy state and returns
them as RoundColumns, the form the columnar close consumes. Eager rounds
never reserve a block, so each starts afresh and the rounds are i.i.d.

Draw order. A lane run draws, for each block of up to LANES rounds, one
uniform per live lane and step (live lanes in lane order, the block's first
step covering every lane), then one Gamma duration per round in lane order;
lane_blocks plays the blocks in round order. MiningClock draws CLOCK_BATCH
events at a time, CLOCK_BATCH uniforms for the miners and then CLOCK_BATCH
exponential gaps, and hands them out in order across rounds. After the last
round, if it reserved nothing, simulate_rounds draws one more uniform for
the miner of the block that closes it. Results therefore depend on the seed
alone, never on how runs are scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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
class SimConfig:
    alphas: Tuple[float, ...]  # mining power per pool, honest pool first
    gamma: float = 10.0
    mean_block_time: float = 15.0
    lead_threshold: int = 2
    release_policy: str = RELEASE_ALL
    fork_rule: str = FORK_ANCHORED

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))  # any sequence in, a hashable tuple kept
        if len(self.alphas) < 2:
            raise ValueError("need the honest pool plus at least one dishonest pool")
        for pool, alpha in enumerate(self.alphas):
            if not 0.0 <= alpha <= 1.0:  # NaN fails every comparison
                raise ValueError(f"alphas[{pool}]: must be a number in [0, 1], got {alpha!r}")
        total = sum(self.alphas)
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
        return cls(alphas, **kwargs)

    @property
    def num_dishonest(self) -> int:
        return len(self.alphas) - 1


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


class RoundColumns(NamedTuple):
    """Consecutive finished rounds as columns, one row per round. Matrices
    have one column per pool: column 0 is the honest pool, whose fork
    position is 0 and whose length is the honest chain length."""

    winner: np.ndarray
    fork_pos: np.ndarray  # (rounds, pools)
    length: np.ndarray  # (rounds, pools)
    released: np.ndarray
    reserved: np.ndarray
    pegged: np.ndarray
    duration: np.ndarray  # float
    first_owner: np.ndarray


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


def release_count(config: SimConfig, own, second, fork_pos):
    """Blocks a dishonest winner pegs out of its `own` this round, given the
    runner-up's generalized length `second` and its fork position: all of
    them under release-all; under release-min the smallest release, at least
    one, that keeps the pegged part a full lead ahead. Takes ints, or numpy
    columns of many rounds."""
    if config.release_policy == RELEASE_ALL:
        return own
    need = second + config.lead_threshold - fork_pos
    return np.clip(need, 1, own) if isinstance(need, np.ndarray) else min(max(1, need), own)


def interarrival_scale(alpha: float, gamma: float, mean_block_time: float) -> float:
    """Mean block-generating-plus-pegging time for one pool; inf if alpha is 0."""
    if alpha == 0.0:
        return math.inf
    return mean_block_time * (1.0 / alpha + 1.0 / gamma)


class LaneDraws:
    """The race's draw rule on one Philox generator on the run's seed.

    miners(n) gives the miners of n blocks, one uniform each, pool i with
    probability proportional to its rate, so a zero-power pool is never
    drawn. play_lanes reads it through pools(lanes, step), the miner of the
    next block of each listed lane, and durations(events), each round's
    duration from its block count, one Gamma draw each.
    """

    def __init__(self, config: SimConfig, seed=0):
        rates = np.array([1.0 / interarrival_scale(a, config.gamma, config.mean_block_time) for a in config.alphas])
        self._mining = np.flatnonzero(rates > 0.0)  # a zero-power pool's rate is 1/inf = 0
        # Uniforms below edges[k] fall to the first k mining pools.
        self._edges = np.cumsum(rates[self._mining])[:-1] / rates.sum()
        self._mean_gap = 1.0 / rates.sum()
        self._gen = np.random.Generator(np.random.Philox(seed))

    def miners(self, n: int) -> np.ndarray:
        return self._mining[self._edges.searchsorted(self._gen.random(n), side="right")]

    def pools(self, lanes: np.ndarray, step: int) -> np.ndarray:
        return self.miners(len(lanes))

    def durations(self, events: np.ndarray) -> np.ndarray:
        return self._gen.gamma(events, self._mean_gap)


CLOCK_BATCH = 1024  # events MiningClock draws at a time


class MiningClock(LaneDraws):
    """Event source for run_round: the draw rule read one event at a time.

    Each event's miner comes from miners() and the gap before it is
    exponential with the race's mean gap; the round clock restarts at zero
    each round. Create one clock per replication and reuse it across rounds.
    """

    def __init__(self, config: SimConfig, seed=0):
        super().__init__(config, seed)
        self._events: Iterator[Tuple[int, float]] = iter(())
        self._now = 0.0

    def begin_round(self) -> None:
        self._now = 0.0

    def next_event(self) -> Tuple[int, float]:
        event = next(self._events, None)
        if event is None:
            pools = self.miners(CLOCK_BATCH).tolist()
            self._events = zip(pools, self._gen.exponential(self._mean_gap, CLOCK_BATCH).tolist())
            event = next(self._events)
        pool, gap = event
        self._now += gap
        return pool, self._now


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
    carryover: Optional[Carryover],
    clock,
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
        released = release_count(config, own, second, fork_pos[winner])
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


# -- lockstep lanes ---------------------------------------------------------------

LANES = 4096  # rounds a lane block plays side by side


class LaneRounds(NamedTuple):
    """A block of eager rounds played as lanes, one row each: their columns,
    and what only per-round outcomes need."""

    columns: RoundColumns
    events: np.ndarray
    longest: np.ndarray
    second: np.ndarray
    fork_at: np.ndarray  # (rounds, pools): event number of each pool's first block, 0 if none

    def outcomes(self) -> List[RoundOutcome]:
        """The rows as the RoundOutcomes run_round gives for the same events."""
        c = self.columns
        pools = range(1, c.length.shape[1])
        rows = zip(
            c.winner.tolist(), c.length.tolist(), c.fork_pos.tolist(), self.fork_at.tolist(),
            c.released.tolist(), c.reserved.tolist(), c.duration.tolist(), c.first_owner.tolist(),
            self.longest.tolist(), self.second.tolist(), self.events.tolist(),
        )
        return [
            RoundOutcome(
                winner, length[0], tuple([PoolRoundStat(length[i] > 0, fork_pos[i], length[i]) for i in pools]),
                released, reserved, duration, first_owner,
                tuple(sorted([i for i in pools if fork_at[i]], key=fork_at.__getitem__)),
                longest, second, events,
            )
            for winner, length, fork_pos, fork_at, released, reserved, duration, first_owner, longest, second, events
            in rows
        ]


def play_lanes(config: SimConfig, rounds: int, draws) -> LaneRounds:
    """Play `rounds` eager rounds side by side, one lane each, by run_round's
    rules, and return them in lane order.

    Every step draws the next block of every live lane from draws.pools;
    a lane retires when its round ends, and the arrays shrink to the live
    lanes. Lengths, fork positions and generalized lengths are (lanes,
    pools) matrices whose column 0 is the honest pool. The generalized
    length is fork position plus own length: a pool that has not forked has
    both 0, and under the tip rule a forked pool's fork position is the
    honest length. The top two come from sorting each row; the winner is
    the first pool with the longest, so ties go to the honest pool, then
    to the lowest index.
    """
    num_pools = len(config.alphas)
    tip = config.fork_rule == FORK_TIP
    lane = np.arange(rounds)  # the block row each live lane fills
    # Live state in int32, which no round's block count comes near; the
    # retired rows are int64 columns like round_columns gives.
    own = np.zeros((rounds, num_pools), dtype=np.int32)  # column 0: the honest length
    fork_pos = np.zeros_like(own)
    fork_at = np.zeros_like(own)
    offsets = np.arange(0, rounds * num_pools, num_pools)  # flat index of each lane's column 0

    winner = np.empty(rounds, dtype=np.int64)
    events = np.empty_like(winner)
    longest = np.empty_like(winner)
    second = np.empty_like(winner)
    length = np.empty((rounds, num_pools), dtype=np.int64)
    fork_pos_out = np.empty_like(length)
    fork_at_out = np.empty_like(length)

    first_owner = draws.pools(lane, 0)
    pool = first_owner
    step = 0
    while True:
        step += 1
        at = offsets[:len(lane)] + pool
        count = own.ravel()[at]  # the state arrays are C-contiguous, so ravel() is a view
        fresh = (count == 0) & (pool != HONEST)
        fork_pos.ravel()[at[fresh]] = own[fresh, HONEST]  # a new fork sits on the honest tip
        fork_at.ravel()[at[fresh]] = step
        own.ravel()[at] = count + 1
        if tip:
            fork_pos[:, 1:] = own[:, :1] * (own[:, 1:] > 0)
        gen = fork_pos + own
        top = np.sort(gen, axis=1)
        done = top[:, -1] - top[:, -2] >= config.lead_threshold
        if done.any():
            ended = np.flatnonzero(done)
            rows = lane[ended]
            winner[rows] = gen[ended].argmax(axis=1)
            events[rows] = step
            longest[rows] = top[ended, -1]
            second[rows] = top[ended, -2]
            length[rows] = own[ended]
            fork_pos_out[rows] = fork_pos[ended]
            fork_at_out[rows] = fork_at[ended]
            live = np.flatnonzero(~done)
            if not len(live):
                break
            lane, own, fork_pos, fork_at = lane[live], own[live], fork_pos[live], fork_at[live]
        pool = draws.pools(lane, step)

    ids = np.arange(rounds)
    own_win = length[ids, winner]
    fork_win = fork_pos_out[ids, winner]
    dishonest = winner != HONEST
    released = np.where(dishonest, release_count(config, own_win, second, fork_win), 0)
    columns = RoundColumns(
        winner=winner,
        fork_pos=fork_pos_out,
        length=length,
        released=released,
        reserved=np.where(dishonest, own_win - released, 0),
        pegged=np.where(dishonest, fork_win + released, length[:, HONEST]),
        duration=draws.durations(events),
        first_owner=first_owner,
    )
    return LaneRounds(columns, events, longest, second, fork_at_out)


def lane_blocks(config: SimConfig, rounds: int, draws) -> Iterator[LaneRounds]:
    """`rounds` eager rounds as consecutive blocks of up to LANES lanes."""
    for start in range(0, rounds, LANES):
        yield play_lanes(config, min(LANES, rounds - start), draws)
