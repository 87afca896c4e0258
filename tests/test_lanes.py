"""The lane engine against the scalar one.

Both engines read one draw rule (engine.LaneDraws); what the lanes add is
playing many rounds at once, so these tests tie play_lanes to run_round.
Script equivalence does it round by round: both play the same event
scripts (every short script on up to three rivals, and seeded random ones
on four, where ties among rival chains are common), and every counter of
every round must agree. The prefix table is checked against run_round on
every owner sequence it holds. The oracle checks run_round against an
independent tree replay on the same scripts, so this carries that check
over to the lanes. The draw-order tests pin down which rounds each draw is
for, and when durations are drawn, which every seeded eager run rests on.
The statistical tests compare seeded lane runs with run_round runs on
MiningClock, seeded apart, on win fractions, mean events and mean duration.
"""
import math
from itertools import product

import numpy as np
import pytest

from poolsim import engine, metrics
from poolsim.engine import (
    BLOCK_ROUNDS,
    FORK_RULES,
    FORK_TIP,
    HONEST,
    RELEASE_MIN,
    RELEASE_POLICIES,
    LaneDraws,
    MiningClock,
    RoundColumns,
    RoundOutcome,
    ScriptClock,
    ScriptExhausted,
    SimConfig,
    lane_blocks,
    play_lanes,
    round_columns,
    run_round,
)
from poolsim.metrics import win_fraction_run
from poolsim.pipeline import simulate_rounds

# Each statistical comparison is a two-sample z-score on independent seeded
# runs; 104 are made, and |z| > 4 has probability 6e-5 each.
Z_BOUND = 4.0
# MiningClock and LaneDraws start one seed's stream with the same uniforms;
# scalar samples take seed + SCALAR_SEED_OFFSET so the two are independent.
SCALAR_SEED_OFFSET = 1000


class ScriptDraws:
    """Lane event source replaying one script per round, with unit gaps like
    ScriptClock. Rounds stay open for different numbers of steps, so each
    round reads its own script through its own cursor."""

    def __init__(self, scripts):
        self.table = np.array(scripts, dtype=np.int64)
        self.cursor = np.zeros(len(self.table), dtype=np.int64)

    def prefixes(self, rounds, length):
        # A script shorter than the prefix is padded with honest blocks; a
        # round that ends within its script never reads them.
        pad = max(0, length - self.table.shape[1])
        self.table = np.pad(self.table, ((0, 0), (0, pad)))
        self.cursor[:] = length
        return self.table[:rounds, :length]

    def pools(self, rounds):
        pools = self.table[rounds, self.cursor[rounds]]
        self.cursor[rounds] += 1
        return pools

    def durations(self, events):
        return events.astype(float)


def first_rounds(config, candidates):
    """The candidate scripts whose first round ends within them, with that
    round as run_round plays it."""
    scripts, outcomes = [], []
    for script in candidates:
        try:
            outcome = run_round(config, None, ScriptClock(script))
        except ScriptExhausted:
            continue
        scripts.append(script)
        outcomes.append(outcome)
    return scripts, outcomes


def script_config(pools, **kwargs):
    return SimConfig.from_alphas([1.0 / pools] * pools, **kwargs)


def assert_lanes_replay(config, scripts, want):
    """play_lanes on the scripts gives every round run_round gave on them."""
    block = play_lanes(config, len(scripts), ScriptDraws(scripts))
    got = list(block.outcomes())
    # Durations come from the event source, not the rules.
    assert [o._replace(duration=0.0) for o in got] == [o._replace(duration=0.0) for o in want]
    assert [o.pegged for o in got] == [o.pegged for o in want]
    columns, expected = block.columns, round_columns(want)
    for name in columns._fields:
        if name != "duration":
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
    # state gathered from the table. Honest-heavy scripts keep one-rival
    # `tip` rounds open: there a rival's second block ends the round.
    @pytest.mark.parametrize("rule", FORK_RULES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("pools", [2, 3])
    def test_rounds_open_past_the_prefix(self, pools, lead, rule):
        config = script_config(pools, fork_rule=rule, lead_threshold=lead)
        length = engine.prefix_table(pools, lead, rule).length
        rng = np.random.default_rng(10 * pools + lead)
        candidates = np.where(rng.random((20_000, 80)) < 0.5, HONEST, rng.integers(pools, size=(20_000, 80))).tolist()
        scripts, want = first_rounds(config, candidates)
        assert sum(o.events > length for o in want) > 50
        assert_lanes_replay(config, scripts, want)

    def test_tip_forks_ride_the_honest_tip(self):
        config = script_config(3, fork_rule=FORK_TIP)
        # Pool 1 forks at 0 and rides to 1; pool 2 forks at 1; pool 1 then
        # leads pool 2 by two.
        [out] = play_lanes(config, 1, ScriptDraws([(1, 0, 2, 1, 1)])).outcomes()
        assert out.winner == 1
        assert (out.fork_pos, out.length) == ((0, 1, 1), (1, 3, 1))


class TestRoundFormat:
    """A RoundOutcome is a row of RoundColumns: round_columns and
    LaneRounds.outcomes are inverse maps."""

    def test_outcome_fields_begin_with_the_columns(self):
        assert RoundOutcome._fields[:len(RoundColumns._fields)] == RoundColumns._fields

    @pytest.mark.parametrize("config", [
        *[SimConfig.from_alphas(alphas, fork_rule=rule)
          for alphas in [(0.6, 0.4), (0.6, 0.3, 0.1), (0.5, 0.25, 0.15, 0.1), (0.5, 0.2, 0.13, 0.1, 0.07)]
          for rule in FORK_RULES],
        SimConfig.from_alphas((0.5, 0.2, 0.13, 0.1, 0.07), release_policy=RELEASE_MIN, lead_threshold=3),
    ], ids=lambda c: f"m{c.num_dishonest}-{c.fork_rule}-lead{c.lead_threshold}-{c.release_policy}")
    def test_outcomes_convert_back_to_the_columns(self, config):
        block = play_lanes(config, 600, LaneDraws(config, 7))
        back = round_columns(block.outcomes())
        for name in RoundColumns._fields:
            got, want = getattr(back, name), getattr(block.columns, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def scalar_samples(config, rounds, seed):
    clock = MiningClock(config, seed=seed)
    outs = [run_round(config, None, clock) for _ in range(rounds)]
    return (
        np.array([o.winner for o in outs]),
        np.array([o.events for o in outs], dtype=float),
        np.array([o.duration for o in outs]),
    )


def lane_samples(config, rounds, seed):
    blocks = list(lane_blocks(config, rounds, LaneDraws(config, seed)))
    return (
        np.concatenate([b.columns.winner for b in blocks]),
        np.concatenate([b.events for b in blocks]).astype(float),
        np.concatenate([b.columns.duration for b in blocks]),
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
        for block in lane_blocks(config, 10_000, LaneDraws(config, 7)):
            assert not (block.columns.length[:, 1]).any()
            assert not (block.columns.winner == 1).any()

    def test_single_miner_pegs_two_honest_blocks(self):
        config = SimConfig.from_alphas((1.0, 0.0, 0.0))
        winners, events, durations = self.assert_agree(config, seed=8)
        assert (winners == HONEST).all() and (events == 2).all()
        [block] = lane_blocks(config, 1000, LaneDraws(config, 8))
        assert (block.columns.pegged == 2).all() and (block.columns.length[:, 0] == 2).all()
        # Two gaps of mean 15 * (1 + 1/10) s.
        assert abs(durations.mean() - 33.0) <= Z_BOUND * durations.std() / math.sqrt(len(durations))

    @pytest.mark.parametrize("policy", RELEASE_POLICIES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("rule", FORK_RULES)
    def test_eager_winner_releases_its_whole_chain(self, rule, lead, policy):
        # LaneRounds.columns takes this from run_round's release rule rather
        # than apply it: an eager round ends at a lead of exactly
        # lead_threshold, where either policy releases the winner's whole
        # chain and pegs the leader.
        config = SimConfig.from_alphas(
            (0.5, 0.37, 0.13), fork_rule=rule, lead_threshold=lead, release_policy=policy
        )
        self.assert_agree(config, seed=9)
        clock = MiningClock(config, seed=9)
        scalar = [run_round(config, None, clock) for _ in range(10_000)]
        played = [(round_columns(scalar), np.array([out.longest for out in scalar]))]
        played += [(block.columns, block.longest) for block in lane_blocks(config, 10_000, LaneDraws(config, 9))]
        for c, longest in played:
            won = c.winner != HONEST
            assert not c.reserved.any()
            assert np.array_equal(c.released[won], c.length[won, c.winner[won]])
            assert np.array_equal(c.pegged, longest)


class RecordingDraws(LaneDraws):
    """LaneDraws that records, in call order, every prefixes and pools call
    with what it drew, and every durations call."""

    def __init__(self, config, seed):
        super().__init__(config, seed)
        self.calls, self.timed = [], []

    def prefixes(self, rounds, length):
        drawn = super().prefixes(rounds, length)
        self.calls.append(("prefixes", (rounds, length), drawn.tolist()))
        return drawn

    def pools(self, lanes):
        drawn = super().pools(lanes)
        self.calls.append(("pools", lanes.tolist(), drawn.tolist()))
        return drawn

    def durations(self, events):
        self.timed.append(events.tolist())
        return super().durations(events)


class TestDrawOrder:
    """The order in which play_lanes reads its draws, which the engine
    docstring states and every seeded eager run rests on."""

    @pytest.mark.parametrize("alphas,rule,lead", [
        ((0.6, 0.3, 0.1), FORK_RULES[0], 2),
        ((0.6, 0.3, 0.1), FORK_TIP, 2),
        ((0.5, 0.2, 0.0, 0.13, 0.17), FORK_TIP, 3),
    ])
    def test_each_step_asks_for_the_live_lanes_in_lane_order(self, alphas, rule, lead):
        config = SimConfig.from_alphas(alphas, fork_rule=rule, lead_threshold=lead)
        rounds = 3000
        length = engine.prefix_table(len(alphas), lead, rule).length
        draws = RecordingDraws(config, 3)
        block = play_lanes(config, rounds, draws)
        events = block.events
        # One prefixes call first: every round's first `length` miners, round
        # by round, the first of them the round's first owner.
        (kind, shape, prefixes), *steps = draws.calls
        assert (kind, shape) == ("prefixes", (rounds, length))
        assert block.first_owner.tolist() == [row[0] for row in prefixes]
        # Then one pools call per step past the prefix, each listing the
        # rounds still open, in round order: a round of k > length events
        # draws at steps length + 1 ... k.
        assert 0 < len(steps) == events.max() - length
        for step, (kind, asked, _) in enumerate(steps, start=length + 1):
            assert kind == "pools" and asked == np.flatnonzero(events >= step).tolist()
        # The draws are one miner stream, read in that order.
        stream = LaneDraws(config, 3)
        assert stream.miners(rounds * length).tolist() == [pool for row in prefixes for pool in row]
        for _, asked, drawn in steps:
            assert stream.miners(len(asked)).tolist() == drawn
        # Durations are drawn once for the block, and only when its columns are read.
        assert draws.timed == []
        columns = block.columns
        assert block.columns is columns
        assert draws.timed == [events.tolist()]
        # The recorder changes nothing the block holds.
        plain = play_lanes(config, rounds, LaneDraws(config, 3))
        for name in columns._fields:
            assert np.array_equal(getattr(columns, name), getattr(plain.columns, name)), name


class TestPrefixTable:
    """Every cell of the prefix table is the round run_round plays on its
    owner sequence: ended as run_round ends it, or open where run_round runs
    out of script."""

    @pytest.mark.parametrize("rule", FORK_RULES)
    @pytest.mark.parametrize("lead", [2, 3])
    @pytest.mark.parametrize("pools", [2, 3, 4])
    def test_cells_match_run_round(self, pools, lead, rule):
        table = engine.prefix_table(pools, lead, rule)
        assert engine.prefix_table(pools, lead, rule) is table
        assert pools ** table.length <= engine.TABLE_CELLS < pools ** (table.length + 1)
        config = script_config(pools, lead_threshold=lead, fork_rule=rule)
        lanes = table.lanes
        own, fork_pos = lanes.own.tolist(), lanes.fork_pos.tolist()
        rows = zip(table.open.tolist(), lanes.winner.tolist(), lanes.events.tolist(), lanes.longest.tolist(),
                   lanes.second.tolist())
        # Cell numbers read the owners as a base-pools number, first owner first.
        sequences = product(range(pools), repeat=table.length)
        ended = 0
        for cell, (owners, (is_open, winner, events, longest, second)) in enumerate(zip(sequences, rows)):
            try:
                out = run_round(config, None, ScriptClock(owners))
            except ScriptExhausted:
                assert is_open, owners
                continue
            assert not is_open, owners
            ended += 1
            forks = fork_pos[cell] if rule != FORK_TIP else [0] + [own[cell][HONEST] * (n > 0) for n in own[cell][1:]]
            assert (winner, events, tuple(own[cell]), tuple(forks), longest, second) == (
                out.winner, out.events, out.length, out.fork_pos, out.longest, out.second), owners
        assert 0 < ended < len(table.open)


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
            [b.columns for b in lane_blocks(config, 9000, LaneDraws(config, np.random.SeedSequence(3)))]
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

    def test_records_carry_the_lane_outcomes(self, monkeypatch):
        # Blocks of 1,000 rounds, so the close hands the nephew over between
        # lane blocks four times.
        monkeypatch.setattr(engine, "BLOCK_ROUNDS", 1000)
        config = SimConfig.from_alphas((0.5, 0.3, 0.2), fork_rule=FORK_TIP)
        _, records = simulate_rounds(config, 5000, seed=4, collect=True)
        blocks = list(lane_blocks(config, 5000, LaneDraws(config, 4)))
        assert len(blocks) == 5
        assert [r.outcome for r in records] == [o for block in blocks for o in block.outcomes()]
        # Every round's nephew is the next round's first block.
        for prev, cur in zip(records, records[1:]):
            assert prev.classification.nephew.owner == cur.outcome.first_owner
