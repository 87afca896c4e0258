"""The lane engine against the scalar one.

Both engines read one draw rule (engine.LaneDraws); what the lanes add is
playing many rounds at once, so these tests tie lane_blocks to run_round.
Script equivalence does it round by round: both play the same event
scripts (every short script on up to three rivals, and seeded random ones
on four, where ties among rival chains are common), and every counter of
every round must agree. The lanes replay a script through race from the
empty state, the state the prefix table's build starts from, to find the
table row it reaches, then lane_blocks draws that row and plays on from it.
The prefix table's states are checked against every owner sequence of a
short length, its masses against run_round on them, and its build's
memory against the states it returns. The oracle checks
run_round against an independent tree replay on the same scripts, so this
carries that check over to the lanes. The draw-order tests pin down which
rounds each draw is for, and that the engine draws no duration, which every
seeded eager run rests on. The statistical tests compare seeded lane runs
with run_round runs on MiningClock, seeded apart, on win fractions, mean
events and mean duration, each engine's durations drawn from its event
counts by the one time rule.
"""
import math
import tracemalloc
from collections import Counter, defaultdict
from itertools import product

import numpy as np
import pytest

from poolsim import engine, metrics
from poolsim.cli import DEFAULT_GRID
from poolsim.engine import (
    BLOCK_ROUNDS,
    FORK_ANCHORED,
    FORK_RULES,
    FORK_TIP,
    HONEST,
    RELEASE_MIN,
    RELEASE_POLICIES,
    LaneDraws,
    Lanes,
    MiningClock,
    RoundColumns,
    RoundOutcome,
    ScriptExhausted,
    SimConfig,
    lane_blocks,
    lane_columns,
    miner_rates,
    prefix_states,
    prefix_table,
    race,
    round_columns,
    round_outcomes,
    run_round,
)
from poolsim.metrics import find_power_threshold, grid_config, win_fraction_run
from poolsim.pipeline import simulate_rounds

# Each statistical comparison is a two-sample z-score on independent seeded
# runs; 104 are made, and |z| > 4 has probability 6e-5 each.
Z_BOUND = 4.0
# MiningClock and LaneDraws start one seed's stream with the same uniforms;
# scalar samples take seed + SCALAR_SEED_OFFSET so the two are independent.
SCALAR_SEED_OFFSET = 1000


def state_rows(lanes):
    """Each round's row of lanes, every column, as one tuple per round."""
    return list(map(tuple, lanes.rows.tolist()))


def replay(config, scripts, last=None):
    """Lanes of the scripts' rounds, one script per round, played by race
    from the empty state (the prefix table's first state) until they end
    or `last` blocks, each round reading its own script."""
    table = np.array(scripts, dtype=np.int64)
    lanes = Lanes.empty(len(table), len(config.alphas))
    race(lanes, np.arange(len(table)), 0, lambda live, step: table[live, step],
         config.lead_threshold, config.fork_rule == FORK_TIP, last=last)
    return lanes


class ScriptDraws:
    """Lane event source replaying one script per round. uniforms() draws
    for each round the prefix table row its script reaches after the
    table's length, found by replaying it there; pools() then reads on in
    the scripts of the rounds it is given, by their numbers in the block,
    each through its own cursor, since rounds stay open for different
    numbers of steps."""

    def __init__(self, config, scripts):
        self.table = np.array(scripts, dtype=np.int64)
        prefix = prefix_table(config)
        length = prefix.length
        self.cursor = np.full(len(self.table), length)
        row_of = {state: row for row, state in enumerate(state_rows(prefix.lanes))}
        rows = [row_of[state] for state in state_rows(replay(config, scripts, last=length))]
        # The middle of the widest part of a column that the alias draw maps to each row.
        widest = {}
        for column, (cut, alias) in enumerate(zip(prefix.cut.tolist(), prefix.alias.tolist())):
            for row, low, high in ((column, column, cut), (alias, cut, column + 1)):
                if high - low > widest.get(row, (0.0, 0.0))[0]:
                    widest[row] = (high - low, (low + high) / 2)
        self.points = np.array([widest[row][1] for row in rows]) / len(prefix.cut)

    def uniforms(self, rounds):
        return self.points[:rounds]

    def pools(self, rounds):
        pools = self.table[rounds, self.cursor[rounds]]
        self.cursor[rounds] += 1
        return pools


def sequence_blocks(pools):
    """Blocks of the owner-sequence table merged states replaced: the most
    with pools ** blocks <= 8192, at least one."""
    blocks = 1
    while pools ** (blocks + 1) <= 8192:
        blocks += 1
    return blocks


# Configs whose full tables leave too few rounds open for the open-round
# tests, which cut them at 17 blocks (three pools anchored, 0.7% of the mass
# open), 32 (three pools `tip`, 0.3%) and 7 (five pools `tip`, 40%), so their
# runs race open rounds over many steps.
RACED_TABLES = {
    ((0.6, 0.3, 0.1), FORK_RULES[0], 2): 17,
    ((0.6, 0.3, 0.1), FORK_TIP, 2): 32,
    ((0.5, 0.2, 0.0, 0.13, 0.17), FORK_TIP, 2): 7,
}


@pytest.fixture
def short_tables(monkeypatch):
    """Call with a block count to cut prefix tables there for the test."""
    def cut(blocks):
        monkeypatch.setattr(engine, "TABLE_BLOCKS", blocks)
        prefix_states.cache_clear()
        prefix_table.cache_clear()

    yield cut
    prefix_states.cache_clear()
    prefix_table.cache_clear()


def first_rounds(config, candidates):
    """The candidate scripts whose first round ends within them, with that
    round as run_round plays it."""
    scripts, outcomes = [], []
    for script in candidates:
        try:
            outcome = run_round(config, None, iter(script))
        except ScriptExhausted:
            continue
        scripts.append(script)
        outcomes.append(outcome)
    return scripts, outcomes


def script_config(pools, **kwargs):
    return SimConfig.from_alphas([1.0 / pools] * pools, **kwargs)


def column_blocks(config, rounds, draws):
    """lane_blocks' blocks as columns."""
    return [lane_columns(config, block.lanes) for block in lane_blocks(config, rounds, draws)]


def assert_lanes_replay(config, scripts, want):
    """lane_blocks on the scripts gives every round run_round gave on them,
    in full and in the winners alone that the win-only count reads."""
    [block] = lane_blocks(config, len(scripts), ScriptDraws(config, scripts))
    assert block.winner.tolist() == [o.winner for o in want]
    columns = lane_columns(config, block.lanes)
    got = list(round_outcomes(columns))
    assert got == want
    assert [o.pegged for o in got] == [o.pegged for o in want]
    expected = round_columns(want)
    for name in columns._fields:
        assert np.array_equal(getattr(columns, name), getattr(expected, name)), name


class TestScriptEquivalence:
    @pytest.mark.parametrize("config,depth", [
        *[(script_config(3, fork_rule=rule), 8) for rule in FORK_RULES],
        *[(script_config(3, fork_rule=rule, lead_threshold=3), 8) for rule in FORK_RULES],
        *[(script_config(4, fork_rule=rule), 6) for rule in FORK_RULES],
        (script_config(3, release_policy=RELEASE_MIN), 8),
    ], ids=lambda v: f"{len(v.alphas) - 1}-rivals-{v.fork_rule}-lead{v.lead_threshold}-{v.release_policy}"
        if isinstance(v, SimConfig) else f"depth{v}")
    def test_lanes_play_every_round_as_run_round(self, config, depth):
        scripts, want = first_rounds(config, product(range(len(config.alphas)), repeat=depth))
        assert len(scripts) > 100
        assert_lanes_replay(config, scripts, want)

    # Four rivals tie and overtake one another far more often than the
    # exhaustive depths above reach; the incremental top two must follow.
    @pytest.mark.parametrize("rule", FORK_RULES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("alphas", [(0.2,) * 5, (0.25, 0.25, 0.0, 0.25, 0.25)], ids=["all-mine", "zero-power"])
    def test_random_scripts_on_four_rivals(self, rule, lead, alphas):
        config = SimConfig.from_alphas(alphas, fork_rule=rule, lead_threshold=lead)
        mining = [pool for pool, alpha in enumerate(alphas) if alpha > 0.0]
        candidates = np.random.default_rng(lead).choice(mining, size=(3000, 40)).tolist()
        scripts, want = first_rounds(config, candidates)
        assert len(scripts) > 2000
        assert max(sum(n > 0 for n in o.length[1:]) for o in want) == len(config.alphas) - 1 - alphas.count(0.0)
        assert_lanes_replay(config, scripts, want)

    # The exhaustive scripts above end within the prefix table's length on
    # one and two rivals; these outlast it, so the lanes play on from the
    # state drawn from the table. Tables cut at the owner-sequence length
    # leave enough of these rounds open. Honest-heavy scripts keep
    # one-rival `tip` rounds open: there a rival's second block ends the round.
    @pytest.mark.parametrize("rule", FORK_RULES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("pools", [2, 3])
    def test_rounds_open_past_the_prefix(self, pools, lead, rule, short_tables):
        short_tables(sequence_blocks(pools))
        config = script_config(pools, fork_rule=rule, lead_threshold=lead)
        length, _, _ = prefix_states(pools, lead, rule)
        assert length == sequence_blocks(pools)
        rng = np.random.default_rng(10 * pools + lead)
        candidates = np.where(rng.random((20_000, 80)) < 0.5, HONEST, rng.integers(pools, size=(20_000, 80))).tolist()
        scripts, want = first_rounds(config, candidates)
        assert sum(o.events > length for o in want) > 50
        assert_lanes_replay(config, scripts, want)

    def test_tip_forks_ride_the_honest_tip(self):
        config = script_config(3, fork_rule=FORK_TIP)
        # Pool 1 forks at 0 and rides to 1; pool 2 forks at 1; pool 1 then
        # leads pool 2 by two.
        [columns] = column_blocks(config, 1, ScriptDraws(config, [(1, 0, 2, 1, 1)]))
        [out] = round_outcomes(columns)
        assert out.winner == 1
        assert (out.fork_pos, out.length) == ((0, 1, 1), (1, 3, 1))


class TestRoundFormat:
    """A RoundOutcome is a row of RoundColumns: round_columns and
    round_outcomes are inverse maps."""

    def test_outcome_fields_are_the_columns(self):
        assert RoundOutcome._fields == RoundColumns._fields

    @pytest.mark.parametrize("config", [
        *[SimConfig.from_alphas(alphas, fork_rule=rule)
          for alphas in [(0.6, 0.4), (0.6, 0.3, 0.1), (0.5, 0.25, 0.15, 0.1), (0.5, 0.2, 0.13, 0.1, 0.07)]
          for rule in FORK_RULES],
        SimConfig.from_alphas((0.5, 0.2, 0.13, 0.1, 0.07), release_policy=RELEASE_MIN, lead_threshold=3),
    ], ids=lambda c: f"m{c.num_dishonest}-{c.fork_rule}-lead{c.lead_threshold}-{c.release_policy}")
    def test_outcomes_convert_back_to_the_columns(self, config):
        [columns] = column_blocks(config, 600, LaneDraws(config, 7))
        back = round_columns(round_outcomes(columns))
        for name in RoundColumns._fields:
            got, want = getattr(back, name), getattr(columns, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def scalar_samples(config, rounds, seed):
    clock = MiningClock(config, seed=seed)
    outs = [run_round(config, None, clock) for _ in range(rounds)]
    events = np.array([o.events for o in outs])
    return np.array([o.winner for o in outs]), events.astype(float), clock.durations(events)


def lane_samples(config, rounds, seed):
    """Winners, events and durations of lane blocks, each block's durations drawn as simulate_rounds draws them."""
    draws = LaneDraws(config, seed)
    blocks = column_blocks(config, rounds, draws)
    return (
        np.concatenate([b.winner for b in blocks]),
        np.concatenate([b.events for b in blocks]).astype(float),
        np.concatenate([draws.durations(b.events) for b in blocks]),
    )


def z_score(a, b):
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    if se == 0.0:  # both samples constant
        return 0.0 if a.mean() == b.mean() else math.inf
    return (a.mean() - b.mean()) / se


STAT_CONFIGS = [
    *[((0.55, 0.45), rule) for rule in FORK_RULES],
    *[((0.6, 0.3, 0.1), rule) for rule in FORK_RULES],
    *[((0.5, 0.25, 0.15, 0.1), rule) for rule in FORK_RULES],
    *[((0.5, 0.2, 0.13, 0.1, 0.07), rule) for rule in FORK_RULES],
]


class TestStatisticalAgreement:
    SCALAR_ROUNDS = 40_000
    LANE_ROUNDS = 200_000

    def assert_agree(self, config, seed):
        scalar = scalar_samples(config, self.SCALAR_ROUNDS, seed + SCALAR_SEED_OFFSET)
        lanes = lane_samples(config, self.LANE_ROUNDS, seed)
        for pool in range(len(config.alphas)):
            z = z_score((lanes[0] == pool).astype(float), (scalar[0] == pool).astype(float))
            assert abs(z) <= Z_BOUND, f"pool {pool} win fraction z={z:.2f}"
        for name, k in (("events", 1), ("duration", 2)):
            z = z_score(lanes[k], scalar[k])
            assert abs(z) <= Z_BOUND, f"mean {name} z={z:.2f}"
        return lanes

    @pytest.mark.parametrize("alphas,rule", STAT_CONFIGS)
    def test_lanes_match_scalar_engine(self, alphas, rule):
        self.assert_agree(SimConfig.from_alphas(alphas, fork_rule=rule), seed=5)

    @pytest.mark.parametrize("rule", FORK_RULES)
    def test_lead_threshold_three(self, rule):
        self.assert_agree(SimConfig.from_alphas((0.6, 0.3, 0.1), fork_rule=rule, lead_threshold=3), seed=6)

    def test_zero_power_pool_never_wins_or_forks(self):
        config = SimConfig.from_alphas((0.6, 0.0, 0.4))
        self.assert_agree(config, seed=7)
        for block in column_blocks(config, 10_000, LaneDraws(config, 7)):
            assert not (block.length[:, 1]).any()
            assert not (block.winner == 1).any()

    def test_single_miner_pegs_two_honest_blocks(self):
        config = SimConfig.from_alphas((1.0, 0.0, 0.0))
        winners, events, durations = self.assert_agree(config, seed=8)
        assert (winners == HONEST).all() and (events == 2).all()
        [block] = column_blocks(config, 1000, LaneDraws(config, 8))
        assert (block.pegged == 2).all() and (block.length[:, 0] == 2).all()
        # Two gaps of mean 15 * (1 + 1/10) s.
        assert abs(durations.mean() - 33.0) <= Z_BOUND * durations.std() / math.sqrt(len(durations))

    @pytest.mark.parametrize("policy", RELEASE_POLICIES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("rule", FORK_RULES)
    def test_eager_winner_releases_its_whole_chain(self, rule, lead, policy):
        # lane_columns takes this from run_round's release rule rather
        # than apply it: an eager round ends at a lead of exactly
        # lead_threshold, where either policy releases the winner's whole
        # chain and pegs the leader.
        config = SimConfig.from_alphas(
            (0.5, 0.37, 0.13), fork_rule=rule, lead_threshold=lead, release_policy=policy
        )
        self.assert_agree(config, seed=9)
        clock = MiningClock(config, seed=9)
        scalar = [run_round(config, None, clock) for _ in range(10_000)]
        for c in [round_columns(scalar), *column_blocks(config, 10_000, LaneDraws(config, 9))]:
            won = c.winner != HONEST
            assert not c.reserved.any()
            assert np.array_equal(c.released[won], c.length[won, c.winner[won]])
            assert np.array_equal(c.pegged, c.longest)


class RecordingDraws(LaneDraws):
    """LaneDraws that records, in call order, every uniforms and pools call
    with what it drew, and every durations call."""

    def __init__(self, config, seed):
        super().__init__(config, seed)
        self.calls, self.timed = [], []

    def uniforms(self, n):
        drawn = super().uniforms(n)
        self.calls.append(("uniforms", n, drawn.tolist()))
        return drawn

    def pools(self, rounds):
        drawn = super().pools(rounds)
        self.calls.append(("pools", rounds.tolist(), drawn.tolist()))
        return drawn

    def durations(self, events):
        self.timed.append(events.tolist())
        return super().durations(events)


class TestDrawOrder:
    """The order in which lane_blocks reads its draws, which the engine
    docstring states and every seeded eager run rests on."""

    @pytest.mark.parametrize("alphas,rule,lead", [
        ((0.6, 0.3, 0.1), FORK_RULES[0], 2),
        ((0.6, 0.3, 0.1), FORK_TIP, 2),
        ((0.5, 0.2, 0.0, 0.13, 0.17), FORK_TIP, 3),
    ])
    def test_each_step_asks_for_the_live_lanes_in_lane_order(self, alphas, rule, lead, short_tables):
        if (alphas, rule, lead) in RACED_TABLES:
            short_tables(RACED_TABLES[alphas, rule, lead])
        config = SimConfig.from_alphas(alphas, fork_rule=rule, lead_threshold=lead)
        rounds = 3000
        table = prefix_table(config)
        length = table.length
        draws = RecordingDraws(config, 3)
        [played] = lane_blocks(config, rounds, draws)
        block = played.lanes
        events = block.events
        # The win-only count reads the same block's winners, so the same draws.
        assert np.array_equal(played.winner, block.winner)
        # One uniforms call first: one uniform per round, in round order.
        # Each picks its round's row by the alias method: column c =
        # floor(u * rows) keeps row c where u * rows < cut[c], else it
        # draws alias[c]. A round copies its row; an ended one stays so.
        (kind, n, uniforms), *steps = draws.calls
        assert (kind, n) == ("uniforms", rounds)
        x = np.array(uniforms) * len(table.cut)
        column = x.astype(int)
        rows = np.where(x < table.cut[column], column, table.alias[column])
        assert (table.mass[rows] > 0).all()
        assert block.first_owner.tolist() == table.lanes.first_owner[rows].tolist()
        is_open = table.lanes.longest - table.lanes.second < lead
        ended = ~is_open[rows]
        assert state_rows(Lanes(block.rows[ended])) == state_rows(Lanes(table.lanes.rows[rows[ended]]))
        # Then one pools call per step past the table, each listing the
        # rounds still open, in round order: a round of k > length events
        # draws at steps length + 1 ... k.
        assert 0 < len(steps) == events.max() - length
        assert np.flatnonzero(events > length).tolist() == np.flatnonzero(is_open[rows]).tolist()
        for step, (kind, asked, _) in enumerate(steps, start=length + 1):
            assert kind == "pools" and asked == np.flatnonzero(events >= step).tolist()
        # The draws are one miner stream, read in that order.
        stream = LaneDraws(config, 3)
        assert stream.uniforms(rounds).tolist() == uniforms
        for _, asked, drawn in steps:
            assert stream.miners(len(asked)).tolist() == drawn
        # Neither lane_blocks nor lane_columns draws a duration: the pipeline
        # draws the block's durations from its event counts.
        lane_columns(config, block)
        assert draws.timed == []
        # The recorder changes nothing the block holds.
        [plain] = lane_blocks(config, rounds, LaneDraws(config, 3))
        assert np.array_equal(block.rows, plain.lanes.rows)


NINE_POOLS = (0.3,) + (0.0875,) * 8
TABLE_POWERS = {2: (0.55, 0.45), 3: (0.5, 0.3, 0.2), 4: (0.4, 0.3, 0.2, 0.1), 9: NINE_POOLS}
# Nine pools' rows have 22 columns, so they merge by a sort of whole rows
# rather than one int64 key. TABLE_ROWS stops their tables after 4-5 blocks;
# the tests cut them at 3, so they replay 729 owner sequences, not 6,561.
SHORT_TABLES = {9: 3}


class TestPrefixTable:
    """The prefix table's merged states are the states race reaches on
    every owner sequence, and its masses are run_round's: the rounds it
    ends within a given length, and the rest left open."""

    @pytest.mark.parametrize("rule", FORK_RULES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("pools", [2, 3, 4, 9])
    def test_states_count_every_owner_sequence(self, pools, lead, rule, short_tables):
        # Cut at the owner-sequence length, every sequence can be played.
        blocks = SHORT_TABLES.get(pools, sequence_blocks(pools))
        short_tables(blocks)
        states = prefix_states(pools, lead, rule)
        assert prefix_states(pools, lead, rule) is states
        length, lanes, count = states
        assert length == blocks
        config = script_config(pools, lead_threshold=lead, fork_rule=rule)
        replayed = replay(config, list(product(range(pools), repeat=blocks)), last=blocks)
        # A state's count is the number of owner sequences that reach it. A
        # round that ends after k blocks recurs once for each way to go on
        # to `blocks`; each state is a distinct row, open exactly when its
        # round has not ended.
        want = {}
        for state, times in Counter(state_rows(replayed)).items():
            events = sum(state[:pools])
            assert times % pools ** (blocks - events) == 0
            want[state] = times // pools ** (blocks - events)
        got = dict(zip(state_rows(lanes), count.tolist()))
        assert len(got) == len(count) and got == want
        is_open = lanes.longest - lanes.second < lead
        assert (lanes.events[is_open] == blocks).all()
        assert (lanes.events[~is_open] <= blocks).all()

    @pytest.mark.parametrize("rule", FORK_RULES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("pools", [2, 3, 4, 9])
    def test_cells_match_run_round(self, pools, lead, rule, short_tables):
        if pools in SHORT_TABLES:
            short_tables(SHORT_TABLES[pools])
        config = SimConfig.from_alphas(TABLE_POWERS[pools], lead_threshold=lead, fork_rule=rule)
        table = prefix_table(config)
        assert prefix_table(config) is table
        assert abs(table.mass.sum() - 1.0) <= 1e-12
        rates = miner_rates(config)
        p = (rates / rates.sum()).tolist()
        # Every owner sequence of the owner-sequence table's length, grouped
        # by the round run_round plays on it, or left unfinished.
        blocks = SHORT_TABLES.get(pools, sequence_blocks(pools))
        want, unfinished = defaultdict(float), 0.0
        for owners in product(range(pools), repeat=blocks):
            mass = math.prod(p[o] for o in owners)
            try:
                want[run_round(config, None, iter(owners))] += mass
            except ScriptExhausted:
                unfinished += mass
        lanes = table.lanes
        columns = lane_columns(config, lanes)
        is_open = lanes.longest - lanes.second < lead
        assert np.array_equal(table.open, is_open)
        got = defaultdict(float)
        for out, mass, row_open in zip(round_outcomes(columns), table.mass.tolist(), is_open.tolist()):
            if not row_open and out.events <= blocks:
                got[out] += mass
        assert got.keys() == want.keys()
        for out, mass in want.items():
            assert abs(got[out] - mass) <= 1e-12, out
        later = is_open | (lanes.events > blocks)
        assert abs(table.mass[later].sum() - unfinished) <= 1e-12

    @pytest.mark.parametrize("alphas,rule,lead", [
        ((0.6, 0.3, 0.1), FORK_RULES[0], 2),
        ((0.5, 0.0, 0.5), FORK_TIP, 2),
        ((0.4, 0.2, 0.0, 0.3, 0.1), FORK_RULES[0], 3),
        (NINE_POOLS, FORK_RULES[0], 2),
    ])
    def test_alias_draw_gives_every_row_its_mass(self, alphas, rule, lead):
        config = SimConfig.from_alphas(alphas, fork_rule=rule, lead_threshold=lead)
        table = prefix_table(config)
        rows = len(table.mass)
        assert abs(table.mass.sum() - 1.0) <= 1e-12
        # A zero-power pool's blocks make a row impossible.
        idle = np.array(alphas) == 0.0
        assert (table.mass[(table.lanes.own[:, idle] > 0).any(axis=1)] == 0.0).all()
        # Column c draws its own row with probability share_c / rows and its alias with the rest.
        share = table.cut - np.arange(rows)
        assert ((0.0 <= share) & (share <= 1.0)).all()
        drawn = (np.bincount(np.arange(rows), weights=share, minlength=rows)
                 + np.bincount(table.alias, weights=1.0 - share, minlength=rows)) / rows
        assert np.abs(drawn - table.mass).max() <= 1e-12

    @pytest.mark.parametrize("alphas,grid,rule,bound", [
        ((0.6, 0.3, 0.1), (0.4, 0.5, 0.6, 0.7, 0.8), FORK_RULES[0], 1e-3),
        ((0.55, 0.32, 0.13), DEFAULT_GRID, FORK_RULES[0], 1e-3),
        ((0.6, 0.3, 0.1), (0.4, 0.5, 0.6, 0.7, 0.8), FORK_TIP, 0.02),
    ], ids=["threshold-grid", "sweep-grid", "criterion-1-tip-grid"])
    def test_three_pool_tables_leave_little_mass_open(self, alphas, grid, rule, bound):
        # Only the rounds still open after the table are raced, one step per
        # block, so a win-only run or a sweep on these grids races almost
        # none. At most 1.2e-4 is open anchored (32 blocks) and 0.017 under
        # `tip` (48 blocks, at aH 0.8); tables cut at 17 and 32 blocks leave
        # as much as 1.1% and 4.6% open.
        base = SimConfig.from_alphas(alphas, fork_rule=rule)
        for honest in grid:
            table = prefix_table(grid_config(base, honest))
            assert table.mass[table.lanes.longest - table.lanes.second < 2].sum() <= bound, honest

    def test_states_build_holds_little_more_than_the_states(self):
        # The build keeps each step's ended rows and only the last step's
        # open ones, so the three-pool lead-2 table's 0.6 MB of states peak
        # at about 1.8 MB; every step's rows kept to the end peak at 4.3 MB.
        tracemalloc.start()
        try:
            prefix_states.__wrapped__(3, 2, FORK_ANCHORED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    def test_threshold_search_builds_its_tables_in_the_parent_once(self):
        prefix_table.cache_clear()
        base, grid = SimConfig.from_alphas((0.6, 0.3, 0.1)), (0.4, 0.5, 0.6, 0.7, 0.8)
        first = find_power_threshold(base, grid, 2, 2000, workers=2)
        info = prefix_table.cache_info()
        assert info.currsize == info.misses == len(grid)
        again = find_power_threshold(base, grid, 2, 2000, workers=2)
        assert prefix_table.cache_info().misses == info.misses
        assert again == first == find_power_threshold(base, grid, 2, 2000, workers=1)


class FixedUniforms:
    """Generator stub that hands out the given uniforms, repeated to fill each draw."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        return np.resize(self.values, n)


class TestLaneDraws:
    def test_zero_power_pools_are_never_drawn(self):
        draws = LaneDraws(SimConfig.from_alphas((0.5, 0.0, 0.5, 0.0)), seed=1)
        pools = draws.pools(np.arange(100_000))
        assert set(pools.tolist()) == {0, 2}

    def test_top_uniform_falls_to_the_last_mining_pool(self):
        draws = LaneDraws(SimConfig.from_alphas((0.3, 0.7, 0.0)), seed=1)
        draws._gen = FixedUniforms([np.nextafter(1.0, 0.0)])
        assert draws.pools(np.arange(3)).tolist() == [1, 1, 1]

    @pytest.mark.parametrize("alphas", [(0.6, 0.3, 0.1), (0.3, 0.0, 0.45, 0.0, 0.25)], ids=["all-mine", "zero-power"])
    def test_miners_follow_the_edges_as_searchsorted_does(self, alphas):
        draws = LaneDraws(SimConfig.from_alphas(alphas), seed=1)
        edges = np.array(draws._edges)
        uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        draws._gen = FixedUniforms(uniforms)
        mining = np.flatnonzero(np.array(alphas) > 0.0)
        assert draws.miners(len(uniforms)).tolist() == mining[edges.searchsorted(uniforms, side="right")].tolist()

    def test_blocks_follow_the_seed_alone(self):
        config = SimConfig.from_alphas((0.6, 0.3, 0.1))
        runs = [
            column_blocks(config, 9000, LaneDraws(config, np.random.SeedSequence(3)))
            for _ in range(2)
        ]
        for a, b in zip(*runs):
            for name in a._fields:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestLaneCallers:
    def test_win_fractions_agree_with_the_pipeline(self):
        config = SimConfig.from_alphas((0.6, 0.3, 0.1))
        seed = np.random.SeedSequence(12)
        bank, _ = simulate_rounds(config, 9000, seed=seed)
        assert win_fraction_run(config, 9000, seed) == bank.win_fractions()

    def test_win_only_run_matches_the_pipeline_on_every_winner(self, monkeypatch):
        # Past two full blocks, so the close hands over between blocks; the
        # win-only run never draws a duration.
        config = SimConfig.from_alphas((0.6, 0.3, 0.1))
        rounds, seed = 2 * BLOCK_ROUNDS + 17, np.random.SeedSequence(13)
        win_only, timed = [], []

        def recording_blocks(*args):
            for block in lane_blocks(*args):
                win_only.append(block.winner)
                yield block

        def durations(draws, events):
            timed.append(len(events))
            return np.ones(len(events))

        monkeypatch.setattr(metrics, "lane_blocks", recording_blocks)
        monkeypatch.setattr(LaneDraws, "durations", durations)
        fractions = win_fraction_run(config, rounds, seed)
        assert timed == [] and len(win_only) == 3
        winners = []
        bank, _ = simulate_rounds(config, rounds, seed=seed, on_record=lambda r: winners.append(r.outcome.winner))
        assert timed == [BLOCK_ROUNDS, BLOCK_ROUNDS, 17]
        assert np.concatenate(win_only).tolist() == winners
        assert fractions == bank.win_fractions()

    @pytest.mark.parametrize("alphas,rule,lead", [
        ((0.5, 0.2, 0.0, 0.13, 0.17), FORK_TIP, 2),
        (NINE_POOLS, FORK_RULES[0], 2),
        ((0.4, 0.2, 0.15, 0.15, 0.1), FORK_RULES[0], 3),
    ])
    def test_win_only_run_races_the_open_rounds_as_the_pipeline_does(
        self, monkeypatch, alphas, rule, lead, short_tables
    ):
        # Tables that leave 40-84% of the rounds open, so most of a block is
        # copied and raced; blocks of 700 rounds, so each run crosses three
        # block boundaries.
        monkeypatch.setattr(engine, "BLOCK_ROUNDS", 700)
        if (alphas, rule, lead) in RACED_TABLES:
            short_tables(RACED_TABLES[alphas, rule, lead])
        config = SimConfig.from_alphas(alphas, fork_rule=rule, lead_threshold=lead)
        table = prefix_table(config)
        assert table.mass[table.lanes.longest - table.lanes.second < lead].sum() > 0.35
        rounds, seed = 2500, np.random.SeedSequence(21)
        blocks = [block.winner for block in lane_blocks(config, rounds, LaneDraws(config, seed))]
        assert [len(block) for block in blocks] == [700, 700, 700, 400]
        winners = []
        bank, _ = simulate_rounds(config, rounds, seed=seed, on_record=lambda r: winners.append(r.outcome.winner))
        assert np.concatenate(blocks).tolist() == winners
        assert win_fraction_run(config, rounds, seed) == bank.win_fractions()

    def test_records_carry_the_lane_outcomes(self, monkeypatch):
        # Blocks of 1,000 rounds, so the close hands the nephew over between
        # lane blocks four times.
        monkeypatch.setattr(engine, "BLOCK_ROUNDS", 1000)
        config = SimConfig.from_alphas((0.5, 0.3, 0.2), fork_rule=FORK_TIP)
        _, records = simulate_rounds(config, 5000, seed=4, collect=True)
        blocks = column_blocks(config, 5000, LaneDraws(config, 4))
        assert len(blocks) == 5
        assert [r.outcome for r in records] == [o for block in blocks for o in round_outcomes(block)]
        # Every round's nephew is the next round's first block.
        for prev, cur in zip(records, records[1:]):
            assert prev.classification.nephew.owner == cur.outcome.first_owner
