"""The lane engine against the scalar one.

Both engines read one draw rule (engine.LaneDraws); what the lanes add is
playing many rounds at once, so these tests tie play_lanes to run_round.
Script equivalence does it round by round: both play the same event
scripts, and every counter of every round must agree. The oracle checks
run_round against an independent tree replay on the same scripts, so this
carries that check over to the lanes. The statistical tests compare seeded
lane runs with run_round runs on MiningClock, seeded apart, on win
fractions, mean events and mean duration.
"""
import math
from itertools import product

import numpy as np
import pytest

from poolsim.classify import round_columns
from poolsim.engine import (
    FORK_RULES,
    FORK_TIP,
    HONEST,
    RELEASE_MIN,
    LaneDraws,
    MiningClock,
    ScriptClock,
    ScriptExhausted,
    SimConfig,
    lane_blocks,
    play_lanes,
    run_round,
)
from poolsim.metrics import win_fraction_run
from poolsim.pipeline import simulate_rounds

# Each statistical comparison is a two-sample z-score on independent seeded
# runs; 69 are made, and |z| > 4 has probability 6e-5 each.
Z_BOUND = 4.0
# MiningClock and LaneDraws start one seed's stream with the same uniforms;
# scalar samples take seed + SCALAR_SEED_OFFSET so the two are independent.
SCALAR_SEED_OFFSET = 1000


class ScriptDraws:
    """Lane event source replaying one script per lane, with unit gaps like
    ScriptClock."""

    def __init__(self, scripts):
        self.table = np.array(scripts, dtype=np.int64)

    def pools(self, lanes, step):
        return self.table[lanes, step]

    def durations(self, events):
        return events.astype(float)


def first_rounds(config, depth):
    """Every script of `depth` events over the config's pools whose first
    round ends within it, with that round as run_round plays it."""
    scripts, outcomes = [], []
    for script in product(range(len(config.alphas)), repeat=depth):
        try:
            outcome = run_round(config, None, ScriptClock(script))
        except ScriptExhausted:
            continue
        scripts.append(script)
        outcomes.append(outcome)
    return scripts, outcomes


def script_config(pools, **kwargs):
    return SimConfig.from_alphas([1.0 / pools] * pools, **kwargs)


class TestScriptEquivalence:
    @pytest.mark.parametrize("config,depth", [
        *[(script_config(3, fork_rule=rule), 8) for rule in FORK_RULES],
        *[(script_config(3, fork_rule=rule, lead_threshold=3), 8) for rule in FORK_RULES],
        *[(script_config(4, fork_rule=rule), 6) for rule in FORK_RULES],
        (script_config(3, release_policy=RELEASE_MIN), 8),
    ], ids=lambda v: f"{len(v.alphas) - 1}-rivals-{v.fork_rule}-lead{v.lead_threshold}-{v.release_policy}"
        if isinstance(v, SimConfig) else f"depth{v}")
    def test_lanes_play_every_round_as_run_round(self, config, depth):
        scripts, want = first_rounds(config, depth)
        assert len(scripts) > 100
        block = play_lanes(config, len(scripts), ScriptDraws(scripts))
        got = block.outcomes()
        # Durations come from the event source, not the rules.
        assert [o._replace(duration=0.0) for o in got] == [o._replace(duration=0.0) for o in want]
        assert [o.pegged_count for o in got] == [o.pegged_count for o in want]
        columns, expected = block.columns, round_columns(want)
        for name in columns._fields:
            if name != "duration":
                assert np.array_equal(getattr(columns, name), getattr(expected, name)), name

    def test_tip_forks_ride_the_honest_tip(self):
        config = script_config(3, fork_rule=FORK_TIP)
        # Pool 1 forks at 0 and rides to 1; pool 2 forks at 1; pool 1 then
        # leads pool 2 by two.
        [out] = play_lanes(config, 1, ScriptDraws([(1, 0, 2, 1, 1)])).outcomes()
        assert out.winner == 1 and out.fork_order == (1, 2)
        assert [(s.forked, s.fork_position, s.length) for s in out.per_pool] == [(True, 1, 3), (True, 1, 1)]


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

    def test_eager_release_min_reserves_nothing(self):
        config = SimConfig.from_alphas((0.5, 0.37, 0.13), release_policy=RELEASE_MIN)
        self.assert_agree(config, seed=9)
        for block in lane_blocks(config, 10_000, LaneDraws(config, 9)):
            c = block.columns
            won = c.winner != HONEST
            assert not c.reserved.any()
            assert np.array_equal(c.released[won], c.length[won, c.winner[won]])


class TopUniforms:
    """Generator stub whose every uniform is the largest below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


class TestLaneDraws:
    def test_zero_power_pools_are_never_drawn(self):
        draws = LaneDraws(SimConfig.from_alphas((0.5, 0.0, 0.5, 0.0)), seed=1)
        pools = draws.pools(np.arange(100_000), 0)
        assert set(pools.tolist()) == {0, 2}

    def test_top_uniform_falls_to_the_last_mining_pool(self):
        draws = LaneDraws(SimConfig.from_alphas((0.3, 0.7, 0.0)), seed=1)
        draws._gen = TopUniforms()
        assert draws.pools(np.arange(3), 0).tolist() == [1, 1, 1]

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

    def test_records_carry_the_lane_outcomes(self):
        config = SimConfig.from_alphas((0.5, 0.3, 0.2), fork_rule=FORK_TIP)
        _, records = simulate_rounds(config, 5000, seed=4, collect=True)
        blocks = lane_blocks(config, 5000, LaneDraws(config, 4))
        assert [r.outcome for r in records] == [o for block in blocks for o in block.outcomes()]
        # Every round's nephew is the next round's first block.
        for prev, cur in zip(records, records[1:]):
            assert prev.classification.nephew.owner == cur.outcome.first_block_owner
