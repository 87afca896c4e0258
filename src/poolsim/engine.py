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
Gamma(k, 1 / sum of the rates). LaneDraws holds that rule, miners on a
Philox generator on the run's seed and time on its jump, and the two
engines read it.

The engines share one set of round rules. run_round plays one round at a
time from an event source and takes a carryover and a termination policy;
it runs withholding runs and the oracle's checks. Its event sources are
plain iterators of (pool, gap) pairs, and run_round sums the gaps into the
round's clock from zero: MiningClock reads the draw rule one event at a
time, and ScriptClock replays a fixed script. play_lanes plays a block of
eager rounds (no policy) side by side as lanes of numpy state, admitting
new rounds as others end, and builds their RoundColumns, the form the
columnar close consumes, when they are read. Eager rounds never reserve a
block, so each starts afresh and the rounds are i.i.d.

One round format. The paper's round is a tree of m+1 sub-chains, the
honest chain first, each with a fork position and a length. RoundColumns
holds consecutive rounds that way, one row each, with one matrix column
per pool; run_round's RoundOutcome is one such row, with the per-pool
columns as tuples, followed by what only a single round reports (its
event count and top two). round_columns turns outcomes into columns and
LaneRounds.outcomes turns a lane block's columns into outcomes.

Top two. A pool's generalized length is its fork position plus its own
length (the honest pool's is the honest length, 0 before a pool forks). A
round may end once the top leads the second by lead_threshold, so the
leader, who wins, is unique. Lengths only grow, so both engines update the
top two and the leader per block, never scanning the pools: if the mined
pool leads, the top takes its new value g; a g past the top makes the old
top the second and the pool the leader; a g past only the second is the
second. Under tip, an honest block after a fork lifts the honest and every
forked chain by one: the top two rise by one and nothing else moves.

Draw order. lane_blocks plays blocks of up to BLOCK_ROUNDS rounds in round
order. A block's steps draw one miner per live round, in increasing round
order; whenever fewer than LANES // 2 are live, the next rounds not yet
begun join at the end first, up to LANES live. Round ids only grow, so a
block has one drain tail. The time stream gives one Gamma duration per
round, in round order, when a block's columns are first read. MiningClock
draws CLOCK_BATCH miners and CLOCK_BATCH exponential gaps at a time and
hands them out in order across rounds. After the last round, if it reserved
nothing, simulate_rounds draws one more miner, of the block that closes it.
Results therefore depend on the seed alone, never on scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
    """An event source ran out of events before the round ended."""


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


class RoundColumns(NamedTuple):
    """Consecutive finished rounds as columns, one row per round. Matrices
    have one column per pool: column 0 is the honest pool, whose fork
    position is 0 and whose length is the honest chain length."""

    winner: np.ndarray
    fork_pos: np.ndarray  # (rounds, pools)
    length: np.ndarray  # (rounds, pools)
    released: np.ndarray  # winner's own blocks pegged (0 on an honest win)
    reserved: np.ndarray  # winner's blocks held back as next round's private lead
    pegged: np.ndarray  # main-chain length: honest length, or fork position plus released
    duration: np.ndarray  # float
    first_owner: np.ndarray  # owner of the round's first block (carried or mined)


class RoundOutcome(NamedTuple):
    """A finished round as plain counters: a row of RoundColumns, fork_pos
    and length as tuples over the pools, then what only a single round
    reports. A NamedTuple, like every record built once per round, since
    those are immutable and cheap to build."""

    winner: int
    fork_pos: Tuple[int, ...]
    length: Tuple[int, ...]
    released: int
    reserved: int
    pegged: int
    duration: float
    first_owner: int
    events: int  # blocks mined this round (carryover blocks excluded)
    longest: int  # leader's generalized length at termination
    second: int  # runner-up generalized length at termination


def round_columns(outcomes: Sequence[RoundOutcome]) -> RoundColumns:
    """Columns of consecutive round outcomes; LaneRounds.outcomes reads them back."""
    return RoundColumns._make(
        np.array(column, dtype=np.float64 if name == "duration" else np.int64)
        for column, name in zip(zip(*outcomes), RoundColumns._fields)
    )


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
    """The race's draw rule: miners on a Philox generator on the run's
    seed, time on the same generator jumped ahead.

    miners(n) gives the miners of n blocks, one uniform each, pool i with
    probability proportional to its rate, so a zero-power pool is never
    drawn. Lanes read pools(lanes), the next miner of each listed round,
    and durations(events), one Gamma draw per round from its block count.
    """

    def __init__(self, config: SimConfig, seed=0):
        rates = np.array([1.0 / interarrival_scale(a, config.gamma, config.mean_block_time) for a in config.alphas])
        self._mining = np.flatnonzero(rates > 0.0)  # a zero-power pool's rate is 1/inf = 0
        # Uniforms below edges[k] fall to the first k mining pools.
        self._edges = np.cumsum(rates[self._mining])[:-1] / rates.sum()
        self._mean_gap = 1.0 / rates.sum()
        bits = np.random.Philox(seed)
        self._gen = np.random.Generator(bits)  # miners
        self._time = np.random.Generator(bits.jumped())  # gaps and durations

    def miners(self, n: int) -> np.ndarray:
        return self._mining[self._edges.searchsorted(self._gen.random(n), side="right")]

    def pools(self, lanes: np.ndarray) -> np.ndarray:
        return self.miners(len(lanes))

    def durations(self, events: np.ndarray) -> np.ndarray:
        return self._time.gamma(events, self._mean_gap)


CLOCK_BATCH = 1024  # events MiningClock draws at a time


class MiningClock(LaneDraws):
    """Event source for run_round: the draw rule read one event at a time.

    Iterating gives (pool, gap) events: each miner comes from miners() and
    the gap before it, on the time stream, is exponential with the race's
    mean gap. Every iteration continues one stream, so create one clock per
    replication and reuse it across rounds.
    """

    def __init__(self, config: SimConfig, seed=0):
        super().__init__(config, seed)
        self._events = self._refills()

    def _refills(self) -> Iterator[Tuple[int, float]]:
        while True:
            pools = self.miners(CLOCK_BATCH).tolist()
            yield from zip(pools, self._time.exponential(self._mean_gap, CLOCK_BATCH).tolist())

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return self._events


class ScriptClock:
    """Deterministic event source replaying a fixed pool order with unit
    gaps; a round it cannot finish raises ScriptExhausted."""

    def __init__(self, events: Sequence[int]):
        self._events = zip(events, repeat(1.0))

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return self._events


def run_round(
    config: SimConfig,
    carryover: Optional[Carryover],
    clock,
    termination_policy: Optional[TerminationPolicy] = None,
) -> RoundOutcome:
    """Play one round of mining competition from clock's (pool, gap) events
    and return its outcome.

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

    v = mined = 0
    fork_pos = [0] * (m + 1)
    length = [0] * (m + 1)  # a dishonest pool has forked once it holds a block; v stands in for length[0]
    gen = [0] * (m + 1)  # generalized lengths; gen[0] is unused, v stands in
    forked: list = []  # the dishonest pools holding a block, for the tip lift
    first_owner = -1
    leader, longest, second = HONEST, 0, 0  # the top two, kept by the module docstring's rule

    if carryover is not None:
        z = carryover.owner
        if not 1 <= z <= m:
            raise ValueError(f"carryover owner {z} not a dishonest pool of this config")
        length[z] = gen[z] = longest = carryover.private_blocks
        forked.append(z)
        first_owner = leader = z

    now = 0.0
    for pool, gap in clock:
        now += gap
        mined += 1
        if first_owner < 0:
            first_owner = pool
        if pool == HONEST:
            v += 1
            g = v
            if tip and forked:
                for i in forked:
                    fork_pos[i] = v
                    gen[i] += 1
                longest += 1
                second += 1
                g = 0  # a forked pool leads, so the rule below moves nothing
        else:
            if not length[pool]:
                fork_pos[pool] = gen[pool] = v
                forked.append(pool)
            length[pool] += 1
            gen[pool] += 1
            g = gen[pool]
        if pool == leader:
            longest = g
        elif g > longest:
            second, longest, leader = longest, g, pool
        elif g > second:
            second = g

        if longest - second >= threshold and (
            leader == HONEST or termination_policy is None or termination_policy(longest, second, mined)
        ):
            break
    else:
        raise ScriptExhausted(f"event source ran out {mined} events into the round")

    length[HONEST] = pegged = v
    released = reserved = 0
    if leader != HONEST:
        own = length[leader]
        released = release_count(config, own, second, fork_pos[leader])
        reserved = own - released
        pegged = fork_pos[leader] + released

    return RoundOutcome(
        leader, tuple(fork_pos), tuple(length), released, reserved, pegged, now, first_owner, mined, longest, second
    )


def make_carryover(outcome: RoundOutcome) -> Optional[Carryover]:
    """Private lead the winner takes into the next round, if any."""
    if outcome.reserved < 1:
        return None
    return Carryover(owner=outcome.winner, private_blocks=outcome.reserved)


# -- lockstep lanes ---------------------------------------------------------------

LANES = 4096  # most rounds a lane block plays side by side
BLOCK_ROUNDS = 8 * LANES  # rounds in one lane block, which drains once


@dataclass(frozen=True, eq=False)
class LaneRounds:
    """A block of eager rounds as play_lanes leaves them: pool-major own
    lengths (row 0 is the honest length) and anchored fork positions, then
    one entry per round. The columns (transposes, release counts, durations)
    are built when first read, so a caller that only counts winners never
    builds them."""

    config: SimConfig
    draws: LaneDraws
    own: np.ndarray
    fork_pos: np.ndarray
    winner: np.ndarray
    events: np.ndarray
    longest: np.ndarray
    second: np.ndarray
    first_owner: np.ndarray

    @cached_property
    def columns(self) -> RoundColumns:
        own = self.own
        if self.config.fork_rule == FORK_TIP:
            self.fork_pos[1:] = own[HONEST] * (own[1:] > 0)  # a forked chain sits on the honest tip
        length, fork_pos = (np.ascontiguousarray(a.T, dtype=np.int64) for a in (own, self.fork_pos))
        ids = np.arange(len(self.winner))
        own_win, fork_win = length[ids, self.winner], fork_pos[ids, self.winner]
        dishonest = self.winner != HONEST
        released = np.where(dishonest, release_count(self.config, own_win, self.second, fork_win), 0)
        return RoundColumns(
            winner=self.winner,
            fork_pos=fork_pos,
            length=length,
            released=released,
            reserved=np.where(dishonest, own_win - released, 0),
            pegged=np.where(dishonest, fork_win + released, length[:, HONEST]),
            duration=self.draws.durations(self.events),
            first_owner=self.first_owner,
        )

    def outcomes(self) -> List[RoundOutcome]:
        """The rows as the RoundOutcomes run_round gives for the same events."""
        columns = (*self.columns, self.events, self.longest, self.second)
        return list(map(RoundOutcome, *(map(tuple, c.tolist()) if c.ndim == 2 else c.tolist() for c in columns)))


def play_lanes(config: SimConfig, rounds: int, draws) -> LaneRounds:
    """Play `rounds` eager rounds by run_round's rules, at most LANES at a
    time, and return them in round order.

    The state never moves: own lengths and fork positions are (pools,
    rounds) arrays, and each step draws the next block of every live round
    from draws.pools and touches only the mined pool's cell, at flat index
    pool * rounds + round. The live rounds and their top two and leader are
    1-D arrays in increasing round order. A round that ends leaves them and
    writes its winner, event count and top two. Whenever fewer than LANES //
    2 are live, the next rounds join at the end from their starting state
    (zeros: no blocks, the honest pool leading), so the lanes stay wide until
    the block's last rounds.
    """
    num_pools = len(config.alphas)
    tip = config.fork_rule == FORK_TIP
    # int32 live state (no round's block count comes near it); int64 columns out.
    own, fork_pos = np.zeros((2, num_pools, rounds), dtype=np.int32)
    own_at, fork_pos_at = own.ravel(), fork_pos.ravel()  # views
    winner, events, longest, runner_up, first_owner = np.empty((5, rounds), dtype=np.int64)
    lane, leader = np.empty((2, 0), dtype=np.int64)  # the live rounds; leader, top and second follow them
    top, second = np.empty((2, 0), dtype=np.int32)
    begun = step = 0
    while True:
        joining = 0
        if len(lane) < LANES // 2 and begun < rounds:
            joining = min(rounds - begun, LANES - len(lane))
            new = np.arange(begun, begun + joining)
            begun += joining
            events[new] = step  # the step the round begins at, until it ends
            lane = np.concatenate((lane, new))
            top, second, leader = (np.concatenate((a, np.zeros(joining, a.dtype))) for a in (top, second, leader))
        elif not len(lane):
            break
        pool = draws.pools(lane)
        if joining:
            first_owner[new] = pool[-joining:]
        step += 1
        at = pool * rounds + lane
        count = own_at[at]
        grown = count + 1
        own_at[at] = grown
        honest = pool == HONEST
        if tip:
            # A forked chain's generalized length is the honest length plus
            # its own. An honest block after a fork gets value 0 (a forked
            # pool leads, so the rule below moves nothing); the top two rise.
            rise = honest & (top > count)
            gen = np.where(honest, grown * ~rise, grown + own_at[lane])
        else:
            fresh = at[(count == 0) & ~honest]
            fork_pos_at[fresh] = own_at[fresh % rounds]  # a new fork sits on the honest tip, row 0
            gen = grown + fork_pos_at[at]
        second = np.where(pool == leader, second, np.maximum(second, np.minimum(gen, top)))
        leader = np.where(gen > top, pool, leader)
        top = np.maximum(top, gen)
        if tip:
            top += rise
            second += rise
        done = top - second >= config.lead_threshold
        ended = np.flatnonzero(done)
        if len(ended):
            rows = lane[ended]
            winner[rows] = leader[ended]
            events[rows] = step - events[rows]
            longest[rows] = top[ended]
            runner_up[rows] = second[ended]
            live = np.flatnonzero(~done)
            lane, top, second, leader = lane[live], top[live], second[live], leader[live]
    return LaneRounds(config, draws, own, fork_pos, winner, events, longest, runner_up, first_owner)


def lane_blocks(config: SimConfig, rounds: int, draws) -> Iterator[LaneRounds]:
    """`rounds` eager rounds as consecutive blocks of up to BLOCK_ROUNDS."""
    for start in range(0, rounds, BLOCK_ROUNDS):
        yield play_lanes(config, min(BLOCK_ROUNDS, rounds - start), draws)
