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

One time rule. The clocks are exponential and restart each round, so the
race has one draw rule: the miner of each block is an independent
categorical draw with p_i proportional to the rate
1 / interarrival_scale(alpha_i, gamma, T) (a zero-power pool's rate is 0,
so it never mines), independent of the exponential gaps, whose mean is
1 / sum of the rates. So a round of k blocks lasts Gamma(k, 1 / sum of the
rates), the only time quantity the model needs. LaneDraws holds the rule:
miners on a Philox generator on the run's seed, and durations(events), one
Gamma draw per round from its block count, on its jump. The engines keep
no clock: each is a function of its rounds' owner sequences, and
pipeline.simulate_rounds draws every block's durations once.

The engines share one set of round rules. run_round plays one round at a
time from an event source, a plain iterator of pool indices, and takes a
carryover and a termination policy; pipeline.chained_rounds chains its
rounds for withholding runs and the oracle. MiningClock yields the draw
rule's miners one at a time, and a fixed script is iter(owners). play_lanes
plays a block of eager rounds (no policy) and returns it as Lanes;
lane_columns builds its RoundColumns, the form the columnar close consumes,
from those; lane_winners gives only the same blocks' winners, on the same
draws, for metrics.win_fraction_run. Eager rounds never reserve a block, so
each starts afresh and the rounds are i.i.d., and a round's state is a
fixed function of its block owners. So prefix_states grows every state of a
round's first blocks once, equal states merged, by the lane step (race)
that also plays on the rounds left open; prefix_table weighs them per
config, and play_lanes draws each round's state there and races only the
rounds still open, side by side as rows of one matrix.

One round format. The paper's round is a tree of m+1 sub-chains, the
honest chain first, each with a fork position and a length. RoundColumns
holds consecutive rounds that way, one integer row each, with one matrix
column per pool, then each round's event count and top two; run_round's
RoundOutcome is one such row, with the per-pool columns as tuples.
round_columns and round_outcomes are the two inverse maps between them.
Lanes holds eager rounds in play, and prefix states, the same way, as
one int32 row each; a row's event count (the sum of its own lengths) and
whether it is open (its top leads its second by less than
lead_threshold) are read off the row, never stored, and lane_columns casts
the rows to RoundColumns.

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

Draw order. lane_blocks and lane_winners play blocks of up to BLOCK_ROUNDS
rounds in round order. A block first draws one uniform per round, in round
order, which picks the round's prefix table row (table_rows); then each
step draws one miner per round still open, in increasing round order, until
none is. MiningClock draws CLOCK_BATCH miners at a time and hands them out
in order across rounds. After the last round, if it reserved nothing,
simulate_rounds draws one more miner, of the block that closes it. The time
stream gives one Gamma duration per round, in round order, block by block,
for lane and policy blocks alike (win_fraction_run draws none); one Gamma
call over many rounds equals the same draws block by block, so no block
size moves it. Results therefore depend on the seed alone, never on
scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

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
            raise ValueError("alphas: need the honest pool plus at least one dishonest pool")
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
    first_owner: np.ndarray  # owner of the round's first block (carried or mined)
    events: np.ndarray  # blocks mined this round (carryover blocks excluded)
    longest: np.ndarray  # leader's generalized length at termination
    second: np.ndarray  # runner-up generalized length at termination


class RoundOutcome(NamedTuple):
    """A finished round as plain counters: one row of RoundColumns, with
    fork_pos and length as tuples over the pools. A NamedTuple, like every
    record built once per round, since those are immutable and cheap to
    build."""

    winner: int
    fork_pos: Tuple[int, ...]
    length: Tuple[int, ...]
    released: int
    reserved: int
    pegged: int
    first_owner: int
    events: int  # blocks mined this round (carryover blocks excluded)
    longest: int  # leader's generalized length at termination
    second: int  # runner-up generalized length at termination


def round_columns(outcomes: Sequence[RoundOutcome]) -> RoundColumns:
    """Columns of consecutive round outcomes; round_outcomes reads them back."""
    return RoundColumns._make(np.array(column, dtype=np.int32) for column in zip(*outcomes))


def round_outcomes(columns: RoundColumns) -> Iterator[RoundOutcome]:
    """The rows of the columns as RoundOutcomes, built as read; round_columns reads them back."""
    return map(RoundOutcome, *(map(tuple, c.tolist()) if c.ndim == 2 else c.tolist() for c in columns))


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


def miner_rates(config: SimConfig) -> np.ndarray:
    """Each pool's block rate, 1 / interarrival_scale (0 for a zero-power pool)."""
    return np.array([1.0 / interarrival_scale(a, config.gamma, config.mean_block_time) for a in config.alphas])


class LaneDraws:
    """The race's draw rule: miners on a Philox generator on the run's
    seed, time on the same generator jumped ahead.

    miners(n) gives the miners of n blocks, one uniform each, pool i with
    probability proportional to its rate, so a zero-power pool is never
    drawn. Lanes read uniforms(rounds), one per round from the miners'
    stream, each picking its round's first blocks from the prefix table;
    pools(lanes), the next miner of each listed round; and
    durations(events), the one time draw: a Gamma per round from its count.
    """

    def __init__(self, config: SimConfig, seed=0):
        rates = miner_rates(config)
        mining = np.flatnonzero(rates > 0.0)  # a zero-power pool's rate is 1/inf = 0
        # Uniforms at or past k of the edges fall to the (k+1)th mining pool.
        self._edges = (np.cumsum(rates[mining])[:-1] / rates.sum()).tolist()
        self._index_type = np.min_scalar_type(len(self._edges))
        self._mining = None if len(mining) == len(rates) else mining
        self._mean_gap = 1.0 / rates.sum()
        bits = np.random.Philox(seed)
        self._gen = np.random.Generator(bits)  # miners
        self._time = np.random.Generator(bits.jumped())  # durations

    def miners(self, n: int) -> np.ndarray:
        u = self._gen.random(n)
        index = np.zeros(n, dtype=self._index_type)
        for edge in self._edges:
            index += u >= edge
        return index if self._mining is None else self._mining[index]

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def pools(self, lanes: np.ndarray) -> np.ndarray:
        return self.miners(len(lanes))

    def durations(self, events: np.ndarray) -> np.ndarray:
        return self._time.gamma(events, self._mean_gap)


CLOCK_BATCH = 1024  # events MiningClock draws at a time


class MiningClock(LaneDraws):
    """Event source for run_round: the draw rule's miners, read from
    miners() CLOCK_BATCH at a time. Every iteration continues one stream,
    so create one clock per replication and reuse it across rounds; its
    rounds' durations come from durations(), as the lanes' do."""

    def __init__(self, config: SimConfig, seed=0):
        super().__init__(config, seed)
        # iter(f, None) calls f for ever: f never returns None.
        self._events = chain.from_iterable(iter(lambda: self.miners(CLOCK_BATCH).tolist(), None))

    def __iter__(self) -> Iterator[int]:
        return self._events


def run_round(
    config: SimConfig,
    carryover: Optional[Carryover],
    miners: Iterable[int],
    termination_policy: Optional[TerminationPolicy] = None,
) -> RoundOutcome:
    """Play one round of mining competition from `miners`, the pools that
    mine its blocks in order, and return its outcome: a function of that
    owner sequence alone, whose duration is drawn from its event count.

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

    for pool in miners:
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
        leader, tuple(fork_pos), tuple(length), released, reserved, pegged, first_owner, mined, longest, second
    )


def make_carryover(outcome: RoundOutcome) -> Optional[Carryover]:
    """Private lead the winner takes into the next round, if any."""
    if outcome.reserved < 1:
        return None
    return Carryover(owner=outcome.winner, private_blocks=outcome.reserved)


# -- lockstep lanes ---------------------------------------------------------------

BLOCK_ROUNDS = 32_768  # rounds in one lane block, which drains once
TABLE_ROWS = 16384  # most merged states a prefix table holds: three pools at lead 2 stop at 12,935 rows
TABLE_BLOCKS = 48  # most blocks a prefix table plays: two-pool and three-pool `tip` tables never fill TABLE_ROWS


class Lanes(NamedTuple):
    """Rounds side by side as one C-contiguous int32 matrix, one row per
    round: its own lengths (column 0 is the honest length), then its
    anchored fork positions, one column per pool each, then its leader (the
    winner once it ends), its top two and the owner of its first block. The
    named fields are views of those columns. Each block adds one to one own
    length, so a round's event count is the sum of its own lengths."""

    rows: np.ndarray

    @classmethod
    def empty(cls, rounds: int, pools: int) -> "Lanes":  # rounds before their first block
        return cls(np.zeros((rounds, 2 * pools + 4), dtype=np.int32))

    pools = property(lambda self: (self.rows.shape[1] - 4) // 2)
    own = property(lambda self: self.rows[:, :self.pools])
    fork_pos = property(lambda self: self.rows[:, self.pools:-4])
    winner = property(lambda self: self.rows[:, -4])
    longest = property(lambda self: self.rows[:, -3])
    second = property(lambda self: self.rows[:, -2])
    first_owner = property(lambda self: self.rows[:, -1])
    events = property(lambda self: np.einsum("ij->i", self.own))  # own.sum(axis=1), several times faster here


class PrefixTable(NamedTuple):
    """One config's masses over prefix_states' rows, and the alias arrays
    that draw a row from one uniform u: column c = floor(u * rows) keeps
    row c where u * rows < cut[c], else it draws alias[c]. A row whose top
    leads its second by less than the lead threshold is open: its round
    plays on from it past `length` blocks."""

    length: int
    lanes: Lanes
    mass: np.ndarray
    cut: np.ndarray
    alias: np.ndarray


def race(
    lanes: Lanes, live: np.ndarray, step: int, miners, lead_threshold: int, tip: bool, last: Optional[int] = None
) -> np.ndarray:
    """Play the rounds `live` (row numbers in increasing order) of `lanes`
    by run_round's rules, one block each per step from `step`, until they
    end or the step count reaches `last`, and return those still live.

    miners(live, step) gives each live round's next miner. Each step reads
    and writes only the mined pool's own length, at flat index row * width
    + pool of the rows, and its fork position, `pools` cells on. The live
    rounds' leader and top two are 1-D arrays that follow them; a round
    that ends leaves them and writes its winner and top two, and the rounds
    still live at the end write theirs too. Step 0's miners are the first
    owners.
    """
    width = lanes.rows.shape[1]
    own_at = lanes.rows.reshape(-1)  # a view: the rows are C-contiguous
    fork_pos_at = own_at[lanes.pools:]
    leader, top, second = lanes.winner[live], lanes.longest[live], lanes.second[live]
    while len(live) and step != last:
        pool = miners(live, step)
        if step == 0:
            lanes.first_owner[live] = pool
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
            lanes.winner[rows], lanes.longest[rows], lanes.second[rows] = leader[ended], top[ended], second[ended]
            stay = np.flatnonzero(~done)
            live, top, second, leader = live[stay], top[stay], second[stay], leader[stay]
    lanes.winner[live], lanes.longest[live], lanes.second[live] = leader, top, second
    return live


@cache
def prefix_states(pools: int, lead_threshold: int, fork_rule: str) -> Tuple[int, Lanes, np.ndarray]:
    """The states grown by race one block at a time from the empty round,
    each open state with one child per pool, equal children merged, until a
    step would pass TABLE_ROWS rows or TABLE_BLOCKS blocks: the blocks
    played, the states (a round that ended as it ended, else the state it
    plays on from) and the number of owner sequences that reach each. Their
    arrays are read-only: every caller shares them.

    Three pools at lead 2 stop at 32 blocks (12,935 states, 0.6 MB) and
    under `tip` at 48 (3,597), five pools at 7-11 blocks and nine at 4-5."""
    lanes, count, live, length, kept = Lanes.empty(1, pools), np.ones(1), np.zeros(1, dtype=np.intp), 0, 0
    grown = []  # each step's rows, their counts and which of them ended; `kept` ended in all
    while len(live) and (length == 0 or length < TABLE_BLOCKS and kept + len(live) * pools <= TABLE_ROWS):
        parent, mined = np.divmod(np.arange(len(live) * pools), pools)
        kids = Lanes(lanes.rows.take(live[parent], axis=0))
        race(kids, np.arange(len(parent)), length, lambda rounds, step: mined[rounds], lead_threshold,
             fork_rule == FORK_TIP, last=length + 1)
        length += 1
        # Equal children merge by one sort of one int64 key per row, a digit per column in base
        # max(length + 1, pools), or by a sort of the rows where that passes 62 bits.
        radix, width = max(length + 1, pools), kids.rows.shape[1]
        key = kids.rows @ radix ** np.arange(width) if radix**width <= 2**62 else kids.rows
        _, merged = np.unique(key, return_inverse=True, axis=0 if key.ndim == 2 else None)
        first = np.empty(merged.max() + 1, dtype=np.intp)
        first[merged] = np.arange(len(merged))  # any child stands for its state: they agree on every column
        count = np.bincount(merged, weights=count[live[parent]])
        lanes = Lanes(kids.rows.take(first, axis=0))
        ended = lanes.longest - lanes.second >= lead_threshold
        grown.append((lanes.rows, count, ended))
        kept += np.count_nonzero(ended)
        live = np.flatnonzero(~ended)
    keep = np.concatenate([ended for _, _, ended in grown[:-1]] + [np.ones(len(count), dtype=bool)])
    rows = np.concatenate([step_rows for step_rows, _, _ in grown])[keep]
    count = np.concatenate([step_count for _, step_count, _ in grown])[keep]
    for array in (rows, count):
        array.setflags(write=False)
    return length, Lanes(rows), count


def _alias(mass: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """PrefixTable's cut and alias arrays for the masses by Vose's pairing,
    from cumulative sums: the large rows (mass past the mean) fill the small
    ones' columns in order, and a large row left short is filled next."""
    height, column = mass * len(mass), np.arange(len(mass))
    small, large = column[height < 1.0], column[height >= 1.0]
    share, alias = np.minimum(height, 1.0), column.copy()
    if len(small) and len(large):
        deficit, excess = np.cumsum(1.0 - height[small]), np.cumsum(height[large] - 1.0)
        # Small k goes to the first large whose excess covers the deficits before it. Large j
        # keeps what is left once it has filled the small that takes it below 1.
        alias[small] = large[np.minimum(np.searchsorted(excess, np.append(0.0, deficit[:-1])), len(large) - 1)]
        last = np.minimum(np.searchsorted(deficit, excess, side="right"), len(small) - 1)
        share[large] = np.clip(excess + 1.0 - deficit[last], 0.0, 1.0)
        alias[large[:-1]] = large[1:]
    return column + share, alias


@lru_cache(maxsize=64)  # configs whose masses and alias arrays stay cached
def prefix_table(config: SimConfig) -> PrefixTable:
    """The config's masses over prefix_states' rows, count times the product
    of p_i ** own_i, and their alias arrays; read-only, like the states.
    They take 24 bytes a row: about 310 KB for a three-pool lead-2 config,
    and at most 393 KB (TABLE_ROWS rows), so the 64 cached configs hold at
    most 25 MB besides the states they share."""
    length, lanes, count = prefix_states(len(config.alphas), config.lead_threshold, config.fork_rule)
    rates = miner_rates(config)
    powers = (rates / rates.sum())[:, None] ** np.arange(length + 1)  # powers[i, k] = p_i ** k
    mass = count * powers[np.arange(len(rates)), lanes.own].prod(axis=1)
    table = PrefixTable(length, lanes, mass, *_alias(mass))
    for array in table[2:]:
        array.setflags(write=False)
    return table


def lane_columns(config: SimConfig, lanes: Lanes) -> RoundColumns:
    """The columns of a block of eager rounds as play_lanes leaves them: the
    tip fork positions and the released and pegged counts are built here,
    so a caller that only counts winners never builds them. The columns are
    views of one column-major copy of the block's rows; the caller draws
    the rounds' durations from their event counts."""
    lanes = Lanes(np.asfortranarray(lanes.rows))  # every column contiguous
    length, fork_pos, winner, longest = lanes.own, lanes.fork_pos, lanes.winner, lanes.longest
    if config.fork_rule == FORK_TIP:
        fork_pos = length[:, :1] * (length > 0)  # a forked chain sits on the honest tip
        fork_pos[:, HONEST] = 0
    own_win = lanes.rows.T.reshape(-1).take(winner * len(winner) + np.arange(len(winner)))  # the winner's own length
    # An eager round ends at a lead of exactly lead_threshold, where
    # release_count releases the winner's whole chain under either policy,
    # so the main chain is the winner's generalized length: the top.
    released = np.where(winner != HONEST, own_win, 0)
    return RoundColumns(
        winner=winner, fork_pos=fork_pos, length=length, released=released, reserved=np.zeros_like(released),
        pegged=longest, first_owner=lanes.first_owner, events=lanes.events, longest=longest, second=lanes.second,
    )


def table_rows(table: PrefixTable, rounds: int, draws) -> np.ndarray:
    """Each of `rounds` rounds' row of the prefix table, picked by the alias
    method from one draws.uniforms draw."""
    x = draws.uniforms(rounds) * len(table.cut)
    column = x.astype(np.intp)
    return np.where(x < table.cut[column], column, table.alias[column])


def race_open(config: SimConfig, table: PrefixTable, lanes: Lanes, live: np.ndarray, draws) -> None:
    """Race the rounds `live` of `lanes`, open after the table's length, to
    their ends, each step drawing one miner per open round from draws.pools."""
    race(lanes, live, table.length, lambda live, step: draws.pools(live), config.lead_threshold,
         config.fork_rule == FORK_TIP)


def play_lanes(config: SimConfig, rounds: int, draws) -> Lanes:
    """Play `rounds` eager rounds by run_round's rules and return them in
    round order; lane_columns builds their columns.

    table_rows picks each round's row of the config's prefix table, and one
    gather copies every round's row from it. Only the rounds still open
    after the table's length are raced on, from that state.
    """
    table = prefix_table(config)
    lanes = Lanes(table.lanes.rows.take(table_rows(table, rounds, draws), axis=0))
    race_open(config, table, lanes, np.flatnonzero(lanes.longest - lanes.second < config.lead_threshold), draws)
    return lanes


def lane_blocks(config: SimConfig, rounds: int, draws) -> Iterator[Lanes]:
    """`rounds` eager rounds as consecutive blocks of up to BLOCK_ROUNDS."""
    for start in range(0, rounds, BLOCK_ROUNDS):
        yield play_lanes(config, min(BLOCK_ROUNDS, rounds - start), draws)


def lane_winners(config: SimConfig, rounds: int, draws) -> Iterator[np.ndarray]:
    """The winners of lane_blocks' blocks, on the same draws, without the
    rest of their rows: an ended round's winner is read off its table row,
    one gather per block, and only the rounds still open after the table
    are copied into Lanes and raced."""
    table = prefix_table(config)
    # Each table row's winner, or -1 where its round plays on.
    settled = np.where(table.lanes.longest - table.lanes.second < config.lead_threshold, -1, table.lanes.winner)
    for start in range(0, rounds, BLOCK_ROUNDS):
        row = table_rows(table, min(BLOCK_ROUNDS, rounds - start), draws)
        winner = settled.take(row)
        live = np.flatnonzero(winner < 0)
        lanes = Lanes(table.lanes.rows.take(row[live], axis=0))
        race_open(config, table, lanes, np.arange(len(live)), draws)
        winner[live] = lanes.winner
        yield winner
