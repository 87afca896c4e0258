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
Philox generator on the run's seed and time on its jump. Both engines draw
miners alike, but time by two rules of one law: the lanes draw one Gamma
duration per round from its block count, and run_round sums MiningClock's
exponential gaps.

The engines share one set of round rules. run_round plays one round at a
time from an event source and takes a carryover and a termination policy;
pipeline.chained_rounds chains its rounds for withholding runs and the
oracle. Its event sources are plain iterators of (pool, gap) pairs, and
run_round sums the gaps into the round's clock from zero: MiningClock
reads the draw rule one event at a time, and ScriptClock replays a fixed
script. play_lanes plays a block of eager rounds (no policy) and builds
their RoundColumns, the form the columnar close consumes, when they are
read. Eager rounds never reserve a block, so each starts afresh and the
rounds are i.i.d., and a round's tree is a fixed function of its block
owners. So prefix_table plays every sequence of a round's first few owners
once, by the lane step (race) that also plays on the rounds those leave
open; play_lanes looks each round's first blocks up there and races only
the rounds still open, side by side as lanes of numpy state.

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
second. Both engines follow one tip rule: a dishonest pool leads once any
pool forks or carries, an honest block then raises the top two by one and
moves nothing else, and each forked chain's fork position is set to the
honest length at the end.

Draw order. lane_blocks plays blocks of up to BLOCK_ROUNDS rounds in round
order. A block first draws its prefix table's length of miners for each
round, round after round; then each step draws one miner per round still
open, in increasing round order, until none is. The time stream gives one
Gamma duration per round, in round order, when a block's columns are first
read. MiningClock draws CLOCK_BATCH miners and CLOCK_BATCH exponential gaps
at a time and hands them out in order across rounds. After the last round,
if it reserved nothing, simulate_rounds draws one more miner, of the block
that closes it. Results therefore depend on the seed alone, never on
scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

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


def release_count(config: SimConfig, own: int, second: int, fork_pos: int) -> int:
    """Blocks a dishonest winner pegs out of its `own` this round, given the
    runner-up's generalized length `second` and its fork position: all of
    them under release-all; under release-min the smallest release, at least
    one, that keeps the pegged part a full lead ahead."""
    if config.release_policy == RELEASE_ALL:
        return own
    return min(max(1, second + config.lead_threshold - fork_pos), own)


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
    drawn. Lanes read prefixes(rounds, length), the first `length` miners of
    each of `rounds` rounds, round by round; pools(lanes), the next miner of
    each listed round; and durations(events), one Gamma draw per round from
    its block count.
    """

    def __init__(self, config: SimConfig, seed=0):
        rates = np.array([1.0 / interarrival_scale(a, config.gamma, config.mean_block_time) for a in config.alphas])
        mining = np.flatnonzero(rates > 0.0)  # a zero-power pool's rate is 1/inf = 0
        # Uniforms at or past k of the edges fall to the (k+1)th mining pool.
        self._edges = (np.cumsum(rates[mining])[:-1] / rates.sum()).tolist()
        self._index_type = np.min_scalar_type(len(self._edges))
        self._mining = None if len(mining) == len(rates) else mining
        self._mean_gap = 1.0 / rates.sum()
        bits = np.random.Philox(seed)
        self._gen = np.random.Generator(bits)  # miners
        self._time = np.random.Generator(bits.jumped())  # gaps and durations

    def miners(self, n: int) -> np.ndarray:
        u = self._gen.random(n)
        index = np.zeros(n, dtype=self._index_type)
        for edge in self._edges:
            index += u >= edge
        return index if self._mining is None else self._mining[index]

    def prefixes(self, rounds: int, length: int) -> np.ndarray:
        return self.miners(rounds * length).reshape(rounds, length)

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
    honest length (set once the round ends), for the leading criterion,
    release-min, block heights and pegging alike. Once any dishonest pool
    has forked it stays ahead of the honest pool, so the honest pool wins
    only a round it opens with lead_threshold honest blocks, and a dishonest
    win orphans no honest block.
    """
    m = config.num_dishonest
    threshold = config.lead_threshold
    tip = config.fork_rule == FORK_TIP

    v = mined = 0
    fork_pos = [0] * (m + 1)
    length = [0] * (m + 1)  # a dishonest pool has forked once it holds a block; v stands in for length[0]
    first_owner = -1
    leader, longest, second = HONEST, 0, 0  # the top two, kept by the module docstring's rule

    if carryover is not None:
        z = carryover.owner
        if not 1 <= z <= m:
            raise ValueError(f"carryover owner {z} not a dishonest pool of this config")
        length[z] = longest = carryover.private_blocks
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
            if tip and leader != HONEST:  # a forked chain leads, and every forked chain rides the tip
                longest += 1
                second += 1
        else:
            if not length[pool]:
                fork_pos[pool] = v
            length[pool] += 1
            g = (v if tip else fork_pos[pool]) + length[pool]
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

    if tip:
        fork_pos = [v if n else 0 for n in length]  # length[HONEST] is still 0
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

BLOCK_ROUNDS = 32_768  # rounds in one lane block, which drains once
TABLE_CELLS = 8192  # most owner sequences a prefix table holds


class Lanes(NamedTuple):
    """Rounds side by side, one row each: own lengths (column 0 is the
    honest length) and anchored fork positions as (rounds, pools) int32,
    then per round its leader (the winner once it ends), the blocks it has
    played and its top two."""

    own: np.ndarray
    fork_pos: np.ndarray
    winner: np.ndarray
    events: np.ndarray
    longest: np.ndarray
    second: np.ndarray


class PrefixTable(NamedTuple):
    """Every round's state after its first `length` blocks, one cell per
    owner sequence, the first owner the most significant base-pools digit
    of the cell number: a round that ended within them as it ended, else
    the state it plays on from (flagged `open`)."""

    length: int
    open: np.ndarray
    lanes: Lanes


def race(
    lanes: Lanes, live: np.ndarray, step: int, miners, lead_threshold: int, tip: bool, last: Optional[int] = None
) -> np.ndarray:
    """Play the rounds `live` (row numbers in increasing order) of `lanes`
    by run_round's rules, one block each per step from `step`, until they
    end or the step count reaches `last`, and return those still live.

    miners(live, step) gives each live round's next miner. Each step reads
    and writes only the mined pool's cell, at flat index row * pools + pool.
    The live rounds' leader and top two are 1-D arrays that follow them; a
    round that ends leaves them and writes its winner, event count and top
    two, and the rounds still live at the end write theirs too.
    """
    width = lanes.own.shape[1]
    own_at, fork_pos_at = lanes.own.reshape(-1), lanes.fork_pos.reshape(-1)  # views: rows are C-contiguous
    leader, top, second = lanes.winner[live], lanes.longest[live], lanes.second[live]
    while len(live) and step != last:
        pool = miners(live, step)
        step += 1
        base = live * width  # the honest cell
        at = base + pool
        count = own_at[at]
        grown = count + 1
        own_at[at] = grown
        honest = pool == HONEST
        if tip:
            # A forked chain's generalized length is the honest length plus
            # its own. An honest block after a fork gets value 0 (a forked
            # pool leads, so the rule below moves nothing); the top two rise.
            rise = honest & (top > count)
            gen = np.where(honest, grown * ~rise, grown + own_at[base])
        else:
            fresh = (count == 0) & ~honest
            fork_pos_at[at[fresh]] = own_at[base[fresh]]  # a new fork sits on the honest tip
            gen = grown + fork_pos_at[at]
        second = np.where(pool == leader, second, np.maximum(second, np.minimum(gen, top)))
        leader = np.where(gen > top, pool, leader)
        top = np.maximum(top, gen)
        if tip:
            top += rise
            second += rise
        done = top - second >= lead_threshold
        ended = np.flatnonzero(done)
        if len(ended):
            rows = live[ended]
            lanes.winner[rows], lanes.events[rows] = leader[ended], step
            lanes.longest[rows], lanes.second[rows] = top[ended], second[ended]
            stay = np.flatnonzero(~done)
            live, top, second, leader = live[stay], top[stay], second[stay], leader[stay]
    lanes.winner[live], lanes.events[live], lanes.longest[live], lanes.second[live] = leader, step, top, second
    return live


@cache
def prefix_table(pools: int, lead_threshold: int, fork_rule: str) -> PrefixTable:
    """The rounds of every sequence of their first blocks' owners, for the
    longest length whose sequences fit in TABLE_CELLS (at least one block),
    played once by race. Its arrays are read-only: every caller shares them."""
    length = 1
    while pools ** (length + 1) <= TABLE_CELLS:
        length += 1
    cells = pools ** length
    lanes = Lanes(*np.zeros((2, cells, pools), dtype=np.int32), *np.zeros((4, cells), dtype=np.int64))
    place = pools ** np.arange(length - 1, -1, -1)  # each block's digit in the cell number

    def digits(live, step):
        return live // place[step] % pools

    is_open = np.zeros(cells, dtype=bool)
    is_open[race(lanes, np.arange(cells), 0, digits, lead_threshold, fork_rule == FORK_TIP, last=length)] = True
    for array in (is_open, *lanes):
        array.setflags(write=False)
    return PrefixTable(length, is_open, lanes)


@dataclass(frozen=True, eq=False)
class LaneRounds:
    """A block of eager rounds as play_lanes leaves them: its Lanes fields,
    then each round's first owner. The columns (tip fork positions,
    released and pegged counts, durations) are built when first read, so a
    caller that only counts winners never builds them."""

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
        length, fork_pos = self.own.astype(np.int64), self.fork_pos.astype(np.int64)
        if self.config.fork_rule == FORK_TIP:
            fork_pos[:, 1:] = length[:, :1] * (length[:, 1:] > 0)  # a forked chain sits on the honest tip
        ids = np.arange(len(self.winner))
        own_win, fork_win = length[ids, self.winner], fork_pos[ids, self.winner]
        dishonest = self.winner != HONEST
        # An eager round ends at a lead of exactly lead_threshold, where
        # release_count releases the winner's whole chain under either policy.
        return RoundColumns(
            winner=self.winner,
            fork_pos=fork_pos,
            length=length,
            released=np.where(dishonest, own_win, 0),
            reserved=np.zeros_like(own_win),
            pegged=np.where(dishonest, fork_win + own_win, length[:, HONEST]),
            duration=self.draws.durations(self.events),
            first_owner=self.first_owner,
        )

    def outcomes(self) -> Iterator[RoundOutcome]:
        """The rows as the RoundOutcomes run_round gives for the same events, built as read."""
        columns = (*self.columns, self.events, self.longest, self.second)
        return map(RoundOutcome, *(map(tuple, c.tolist()) if c.ndim == 2 else c.tolist() for c in columns))


def play_lanes(config: SimConfig, rounds: int, draws) -> LaneRounds:
    """Play `rounds` eager rounds by run_round's rules and return them in
    round order.

    Each round's first blocks come from one prefixes draw for the block;
    their owners, read as a base-pools number, pick the round's cell of the
    prefix table, and one gather per field copies every round's state from
    it. Only the rounds still open after the prefix are raced on, from that
    state, each step drawing one miner per open round from draws.pools.
    """
    num_pools = len(config.alphas)
    table = prefix_table(num_pools, config.lead_threshold, config.fork_rule)
    prefixes = draws.prefixes(rounds, table.length)
    cells = np.zeros(rounds, dtype=np.intp)
    for owners in prefixes.T:
        cells *= num_pools
        cells += owners
    lanes = Lanes._make(array.take(cells, axis=0) for array in table.lanes)  # row copies, C-contiguous
    race(lanes, np.flatnonzero(table.open[cells]), table.length,
         lambda live, step: draws.pools(live), config.lead_threshold, config.fork_rule == FORK_TIP)
    return LaneRounds(config, draws, *lanes, first_owner=prefixes[:, 0].astype(np.int64))


def lane_blocks(config: SimConfig, rounds: int, draws) -> Iterator[LaneRounds]:
    """`rounds` eager rounds as consecutive blocks of up to BLOCK_ROUNDS."""
    for start in range(0, rounds, BLOCK_ROUNDS):
        yield play_lanes(config, min(BLOCK_ROUNDS, rounds - start), draws)
