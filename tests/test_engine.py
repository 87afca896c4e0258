import math

import numpy as np
import pytest

from poolsim.engine import (
    FORK_TIP,
    HONEST,
    RELEASE_MIN,
    Carryover,
    MiningClock,
    ScriptClock,
    ScriptExhausted,
    SimConfig,
    _PoolStream,
    interarrival_scale,
    make_carryover,
    run_round,
)
from poolsim.oracle import Block, EventScript, replay_script, select_main_chain


class PinnedUniforms:
    """Generator stub whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


class RecordingClock:
    """A clock that logs which pool mines each event."""

    def __init__(self, clock):
        self.clock = clock
        self.events = []

    def begin_round(self):
        self.clock.begin_round()

    def next_event(self):
        pool, at = self.clock.next_event()
        self.events.append(pool)
        return pool, at


def replay_pegged(events, out, alphas=(0.4, 0.3, 0.3), **cfg):
    """The blocks the oracle's tree replay pegs for a round scripted_round
    played from the same events; the replay must end the round the same way."""
    [(replayed, tree)] = replay_script(EventScript(tuple(events)), SimConfig.from_alphas(alphas, **cfg))
    assert replayed == out
    return select_main_chain(tree, out.winner, out.released)


def scripted_round(events, alphas=(0.4, 0.3, 0.3), carry=None, policy=None, **cfg):
    config = SimConfig.from_alphas(alphas, **cfg)
    return run_round(config, carry, ScriptClock(events), policy)


class TestSimConfig:
    def test_alpha_sum_above_one_rejected(self):
        with pytest.raises(ValueError):
            SimConfig.from_alphas([0.8, 0.3, 0.1])

    def test_all_zero_alphas_rejected(self):
        with pytest.raises(ValueError):
            SimConfig.from_alphas([0.0, 0.0])

    def test_degenerate_zero_alpha_pools_allowed(self):
        config = SimConfig.from_alphas([1.0, 0.0, 0.0])
        assert config.alphas == (1.0, 0.0, 0.0)

    def test_needs_two_pools(self):
        with pytest.raises(ValueError):
            SimConfig(alphas=(1.0,))

    def test_alphas_kept_as_a_tuple(self):
        # grid_config extends alphas by tuple concatenation, and a frozen config must hash.
        config = SimConfig(alphas=[0.6, 0.4])
        assert config.alphas == (0.6, 0.4) and config == SimConfig.from_alphas((0.6, 0.4))
        assert hash(config) == hash(SimConfig.from_alphas([0.6, 0.4]))

    def test_fork_rule_defaults_to_anchored(self):
        assert SimConfig.from_alphas([0.6, 0.4]).fork_rule == "anchored"

    @pytest.mark.parametrize("threshold", [2.5, 2.0, True, "2", 0, -1])
    def test_lead_threshold_must_be_a_positive_int(self, threshold):
        # A fractional threshold used to run, pegging fractional block counts
        # that the columnar close then truncated.
        with pytest.raises(ValueError, match="lead threshold"):
            SimConfig.from_alphas([0.4, 0.4, 0.2], lead_threshold=threshold, release_policy=RELEASE_MIN)

    def test_alpha_out_of_range_names_its_index(self):
        with pytest.raises(ValueError, match=r"alphas\[2\]"):
            SimConfig.from_alphas([0.5, 0.3, 1.5])
        with pytest.raises(ValueError, match=r"alphas\[1\]"):
            SimConfig.from_alphas([0.5, math.nan])

    def test_unknown_fork_rule_rejected(self):
        with pytest.raises(ValueError, match="fork rule"):
            SimConfig.from_alphas([0.6, 0.4], fork_rule="floating")

    @pytest.mark.parametrize("field,value", [
        ("gamma", math.nan), ("gamma", 0.0),
        ("mean_block_time", math.nan), ("mean_block_time", math.inf), ("mean_block_time", -1.0),
    ])
    def test_bad_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            SimConfig.from_alphas([0.6, 0.4], **{field: value})


class TestSampleInterarrival:
    """The gaps production runs draw: _PoolStream, batched on a Philox stream."""

    MEAN_DRAW = 1.0 - math.exp(-1.0)  # the uniform whose exponential draw is its mean

    def pinned_gap(self, alpha):
        stream = _PoolStream(np.random.SeedSequence(0), interarrival_scale(alpha, 10.0, 15.0))
        stream._gen = PinnedUniforms(self.MEAN_DRAW)
        return stream.next_gap()

    def test_direct_substitution_half_power(self):
        # With the exponential draw pinned to its mean (15 s), a pool with
        # half the power and gamma 10 needs 15 * (2 + 0.1) seconds.
        assert self.pinned_gap(0.5) == pytest.approx(31.5, rel=1e-12)

    def test_direct_substitution_full_power(self):
        assert self.pinned_gap(1.0) == pytest.approx(16.5, rel=1e-12)

    def test_zero_power_pool_never_scheduled(self):
        stream = _PoolStream(np.random.SeedSequence(0), interarrival_scale(0.0, 10.0, 15.0))
        stream._gen = None  # any draw would fail
        assert [stream.next_gap() for _ in range(3)] == [math.inf] * 3

    def test_monte_carlo_mean_matches_closed_form(self):
        stream = _PoolStream(np.random.SeedSequence(7), interarrival_scale(0.6, 10.0, 15.0))
        draws = [stream.next_gap() for _ in range(10**6)]
        assert abs(sum(draws) / len(draws) - 26.5) < 0.1

    def test_sampler_matches_vectorized_transform(self):
        # 2,100 gaps cross two refills of 1024: each is -scale * log1p(-u)
        # of the next uniform on the stream's own Philox generator.
        seed = np.random.SeedSequence(11)
        scale = interarrival_scale(0.6, 10.0, 15.0)
        stream = _PoolStream(seed, scale, batch=1024)
        gaps = [stream.next_gap() for _ in range(2100)]
        u = np.random.Generator(np.random.Philox(seed)).random(3 * 1024)
        assert gaps == (-scale * np.log1p(-u))[:2100].tolist()

    def test_scale_is_inverse_power_plus_communication(self):
        assert interarrival_scale(0.5, 10.0, 15.0) == pytest.approx(31.5)
        assert interarrival_scale(0.0, 10.0, 15.0) == math.inf


class TestRunRoundScripted:
    def test_two_honest_blocks_end_the_round(self):
        out = scripted_round([0, 0])
        assert out.winner == HONEST
        assert out.honest_length == 2
        assert replay_pegged([0, 0], out) == (Block(0, 1, 1), Block(0, 2, 2))
        assert out.pegged_count == 2
        assert out.released == 0 and out.reserved == 0
        assert out.duration == 2.0
        assert out.first_block_owner == HONEST

    def test_two_dishonest_blocks_claim_the_round(self):
        out = scripted_round([1, 1])
        assert out.winner == 1
        assert out.per_pool[0].fork_position == 0
        assert out.per_pool[0].length == 2
        assert out.released == 2 and out.reserved == 0
        assert out.fork_order == (1,)

    def test_fork_position_fixed_at_first_own_block(self):
        # Pool 1 mines its first block when the honest chain has one block:
        # its chain rides position 1 and stays there while honest grows.
        out = scripted_round([0, 1, 0, 0, 0])
        assert out.winner == HONEST
        assert out.honest_length == 4
        assert (out.per_pool[0].forked, out.per_pool[0].fork_position, out.per_pool[0].length) == (True, 1, 1)
        assert (out.longest, out.second) == (4, 2)

    def test_script_exhaustion_raises(self):
        with pytest.raises(ScriptExhausted):
            scripted_round([0, 1, 0, 0])

    def test_release_min_pegs_just_enough(self):
        # Delayed termination lets the leader overshoot; release-min then
        # pegs only what keeps the chain a full lead ahead.
        policy = lambda longest, second, mined: longest - second >= 4
        out = scripted_round([1, 0, 1, 1, 1, 1], policy=policy, release_policy=RELEASE_MIN)
        assert out.winner == 1
        assert out.per_pool[0].length == 5
        assert out.second == 1
        assert out.released == 3  # second + 2 with fork position 0
        assert out.reserved == 2

    def test_release_all_under_delay_pegs_everything(self):
        policy = lambda longest, second, mined: longest - second >= 4
        out = scripted_round([1, 0, 1, 1, 1, 1], policy=policy)
        assert out.released == 5 and out.reserved == 0


class TestTipForkRule:
    """Under the tip rule every forked dishonest chain rides the honest tip:
    its fork position is the current honest length, so it stays ahead of the
    honest pool and a dishonest win orphans no honest block."""

    def test_fork_at_zero_keeps_the_round_open(self):
        # Anchored, D,H,H,H is an honest win at length 3; under the tip rule
        # pool 1 leads the honest pool by one block after every honest block.
        assert scripted_round([1, 0, 0, 0]).winner == HONEST
        with pytest.raises(ScriptExhausted):
            scripted_round([1, 0, 0, 0], fork_rule=FORK_TIP)

    def test_two_honest_blocks_still_win(self):
        out = scripted_round([0, 0], fork_rule=FORK_TIP)
        assert out.winner == HONEST
        assert (out.honest_length, out.longest, out.second) == (2, 2, 0)

    def test_fork_at_one_closes_for_pool_one(self):
        out = scripted_round([0, 1, 1], fork_rule=FORK_TIP)
        assert out.winner == 1
        assert (out.per_pool[0].fork_position, out.per_pool[0].length) == (1, 2)
        assert (out.longest, out.second) == (3, 1)
        assert out.pegged_count == 3 and out.released == 2

    def test_late_win_pegs_the_whole_honest_chain(self):
        # m=1: pool 1 forks at 0, four honest blocks follow. Anchored, the
        # honest pool wins at its third block; under the tip rule pool 1's
        # chain moves up to fork position 4 and its second block closes the
        # round with a main chain of all four honest blocks plus its two, the
        # length it led by.
        assert scripted_round([1, 0, 0, 0], alphas=(0.5, 0.5)).winner == HONEST
        out = scripted_round([1, 0, 0, 0, 0, 1], alphas=(0.5, 0.5), fork_rule=FORK_TIP)
        assert out.winner == 1
        assert (out.per_pool[0].fork_position, out.per_pool[0].length) == (4, 2)
        assert (out.longest, out.second) == (6, 4)
        pegged = replay_pegged([1, 0, 0, 0, 0, 1], out, (0.5, 0.5), fork_rule=FORK_TIP)
        assert [(b.owner, b.height) for b in pegged] == [
            (HONEST, 1), (HONEST, 2), (HONEST, 3), (HONEST, 4), (1, 5), (1, 6),
        ]
        assert out.pegged_count == 6

    def test_release_min_measures_from_the_tip(self):
        # Pool 1 forks at 0 and waits for a four-block lead: four own blocks
        # over one honest block, generalized length 1 + 4 against a runner-up
        # of 1. Its fork position has moved up to 1, so the smallest release
        # r with 1 + r - 1 >= 2 is 2; anchored at 0 it would be 3.
        policy = lambda longest, second, mined: longest - second >= 4
        out = scripted_round(
            [1, 0, 1, 1, 1], policy=policy, release_policy=RELEASE_MIN, fork_rule=FORK_TIP
        )
        assert out.winner == 1
        assert (out.longest, out.second) == (5, 1)
        assert out.per_pool[0].fork_position == 1
        assert out.released == 2 and out.reserved == 2


class TestCarryover:
    def test_honest_win_leaves_nothing(self):
        assert make_carryover(scripted_round([0, 0])) is None

    def test_full_release_leaves_nothing(self):
        out = scripted_round([1, 1, 1], policy=lambda a, b, m: a - b >= 3)
        assert out.released == 3 and make_carryover(out) is None

    def test_partial_release_carries_remainder(self):
        policy = lambda longest, second, mined: longest - second >= 4
        out = scripted_round([1, 0, 1, 1, 1, 1], policy=policy, release_policy=RELEASE_MIN)
        carry = make_carryover(out)
        assert carry == Carryover(owner=1, private_blocks=2)

    def test_carryover_seeds_next_round_at_zero(self):
        out = scripted_round([0, 0, 0, 0], carry=Carryover(1, 2))
        # Pool 1 starts with two private blocks at fork position 0; honest
        # must reach a two-block lead over that to win.
        assert out.winner == HONEST
        assert out.honest_length == 4
        assert (out.per_pool[0].forked, out.per_pool[0].fork_position, out.per_pool[0].length) == (True, 0, 2)
        assert out.first_block_owner == 1
        assert out.fork_order == (1,)

    def test_big_carryover_claims_after_one_mined_block(self):
        out = scripted_round([0], carry=Carryover(1, 3))
        assert out.winner == 1
        assert out.duration == 1.0  # the one-block floor keeps duration positive
        assert out.released == 3 and out.reserved == 0

    def test_carryover_floor_blocks_zero_duration_rounds(self):
        out = scripted_round([2], carry=Carryover(1, 5), alphas=(0.4, 0.3, 0.3))
        assert out.duration > 0.0
        assert out.events == 1


class TestMiningClock:
    def test_timestamp_ties_break_by_pool_index(self):
        config = SimConfig.from_alphas([0.5, 0.3, 0.2])
        clock = MiningClock(config, seed=0)
        clock.begin_round()
        clock._next = [7.0, 7.0, 7.0]
        pool, at = clock.next_event()
        assert (pool, at) == (0, 7.0)
        clock._next = [9.0, 5.0, 5.0]
        pool, at = clock.next_event()
        assert (pool, at) == (1, 5.0)

    def test_batch_size_does_not_change_the_stream(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        seqs = []
        for batch in (1, 7, 1024):
            clock = MiningClock(config, seed=13, batch=batch)
            clock.begin_round()
            seqs.append([clock.next_event() for _ in range(200)])
        assert seqs[0] == seqs[1] == seqs[2]


class TestStochasticRounds:
    def test_determinism_same_seed_same_outcomes(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        runs = []
        for _ in range(2):
            clock = MiningClock(config, seed=42)
            carry = None
            outcomes = []
            for _ in range(50):
                out = run_round(config, carry, clock)
                carry = make_carryover(out)
                outcomes.append(out)
            runs.append(outcomes)
        assert runs[0] == runs[1]

    def test_degenerate_single_miner_always_wins_with_two_blocks(self):
        config = SimConfig.from_alphas([1.0, 0.0, 0.0], gamma=10.0)
        clock = MiningClock(config, seed=1)
        for _ in range(200):
            out = run_round(config, None, clock)
            assert out.winner == HONEST
            assert out.honest_length == 2
            assert out.duration > 0.0

    def test_degenerate_mean_duration_near_closed_form(self):
        # Two inter-arrival draws of mean 15 * (1/1 + 1/10) = 16.5 s each.
        config = SimConfig.from_alphas([1.0, 0.0], gamma=10.0)
        clock = MiningClock(config, seed=2)
        total = 0.0
        n = 30_000
        for _ in range(n):
            total += run_round(config, None, clock).duration
        assert abs(total / n - 33.0) / 33.0 < 0.02

    def test_duration_is_sum_of_event_gaps(self):
        out = scripted_round([1, 0, 1, 1])
        assert out.duration == 4.0 and out.events == 4

    def test_eager_rounds_end_at_exactly_two_lead(self):
        config = SimConfig.from_alphas([0.5, 0.37, 0.13])
        clock = MiningClock(config, seed=9)
        for _ in range(2000):
            out = run_round(config, None, clock)
            assert out.longest - out.second == 2
            assert out.reserved == 0

    def test_per_pool_stats_match_tree_snapshot(self):
        # Each stochastic round, replayed from its events through the
        # oracle's block tree, leaves every dishonest chain as counted.
        config = SimConfig.from_alphas([0.55, 0.3, 0.15])
        clock = RecordingClock(MiningClock(config, seed=3))
        for _ in range(300):
            clock.events = []
            out = run_round(config, None, clock)
            [(_, tree)] = replay_script(EventScript(tuple(clock.events)), config)
            for stat, sub in zip(out.per_pool, tree.dishonest):
                assert stat.forked == sub.forked
                assert stat.length == len(sub.blocks)
                if sub.forked:
                    assert stat.fork_position == sub.fork_position
