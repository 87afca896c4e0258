import math
import random
from itertools import islice

import numpy as np
import pytest

from poolsim.engine import (
    CLOCK_BATCH,
    FORK_ANCHORED,
    FORK_TIP,
    HONEST,
    RELEASE_MIN,
    Carryover,
    MiningClock,
    ScriptExhausted,
    SimConfig,
    interarrival_scale,
    make_carryover,
    run_round,
)
from poolsim.oracle import Block, EventScript, replay_script, select_main_chain
from poolsim.pipeline import chained_rounds

from conftest import lead_at_least


class RecordingClock:
    """An event source that logs which pool mines each event."""

    def __init__(self, clock):
        self.clock = clock
        self.events = []

    def __iter__(self):
        for pool in self.clock:
            self.events.append(pool)
            yield pool


def replay_pegged(events, out, alphas=(0.4, 0.3, 0.3), **cfg):
    """The blocks the oracle's tree replay pegs for a round scripted_round
    played from the same events; the replay must end the round the same way."""
    [(replayed, tree)] = replay_script(EventScript(tuple(events)), SimConfig.from_alphas(alphas, **cfg))
    assert replayed == out
    return select_main_chain(tree, out.winner, out.released)


def scripted_round(events, alphas=(0.4, 0.3, 0.3), carry=None, policy=None, **cfg):
    config = SimConfig.from_alphas(alphas, **cfg)
    return run_round(config, carry, iter(events), policy)


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

    def test_unknown_release_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown release policy 'release-some'"):
            SimConfig.from_alphas([0.6, 0.4], release_policy="release-some")

    @pytest.mark.parametrize("field,value", [
        ("gamma", math.nan), ("gamma", 0.0),
        ("mean_block_time", math.nan), ("mean_block_time", math.inf), ("mean_block_time", -1.0),
    ])
    def test_bad_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            SimConfig.from_alphas([0.6, 0.4], **{field: value})


class MeanGenerator:
    """Generator stub: every Gamma draw is its mean."""

    def gamma(self, shape, scale):
        return np.asarray(shape) * scale


def clock_events(clock, n):
    return list(islice(clock, n))


class TestSampleInterarrival:
    """What MiningClock draws: miners by rate, and through durations() a
    round of k blocks lasting Gamma(k, the race's mean gap)."""

    def pinned_gap(self, alpha):
        clock = MiningClock(SimConfig.from_alphas([alpha, 0.0], gamma=10.0, mean_block_time=15.0))
        clock._time = MeanGenerator()
        [gap] = clock.durations(np.array([1]))
        return gap

    def test_direct_substitution_half_power(self):
        # With the Gamma draw pinned to its mean, one block of a lone pool
        # with half the power and gamma 10 takes 15 * (2 + 0.1) seconds.
        assert self.pinned_gap(0.5) == pytest.approx(31.5, rel=1e-12)

    def test_direct_substitution_full_power(self):
        assert self.pinned_gap(1.0) == pytest.approx(16.5, rel=1e-12)

    def test_zero_power_pool_never_scheduled(self):
        clock = MiningClock(SimConfig.from_alphas([0.5, 0.0, 0.5]), seed=4)
        assert set(clock_events(clock, 5000)) == {0, 2}

    def test_monte_carlo_mean_matches_closed_form(self):
        clock = MiningClock(SimConfig.from_alphas([0.6, 0.0], gamma=10.0, mean_block_time=15.0), seed=7)
        n = 10**6
        now = clock.durations(np.ones(n, dtype=np.int64)).sum()
        assert abs(now / n - 26.5) < 0.1

    def test_sampler_matches_vectorized_transform(self):
        # 2,100 events cross two refills: each takes CLOCK_BATCH uniforms for
        # the miners from a Philox generator on the seed. Durations are one
        # Gamma draw per round, from the same generator jumped ahead.
        config = SimConfig.from_alphas([0.5, 0.3, 0.2])
        seed = np.random.SeedSequence(11)
        clock = MiningClock(config, seed)
        events = clock_events(clock, 2100)
        rates = np.array([1.0 / interarrival_scale(a, config.gamma, config.mean_block_time) for a in config.alphas])
        edges = np.cumsum(rates)[:-1] / rates.sum()
        miners = np.random.Generator(np.random.Philox(seed))
        time = np.random.Generator(np.random.Philox(seed).jumped())
        pools = []
        for _ in range(3):
            pools += edges.searchsorted(miners.random(CLOCK_BATCH), side="right").tolist()
        assert events == pools[:2100]
        counts = np.arange(1, 60)
        assert clock.durations(counts).tolist() == time.gamma(counts, 1.0 / rates.sum()).tolist()

    def test_scale_is_inverse_power_plus_communication(self):
        assert interarrival_scale(0.5, 10.0, 15.0) == pytest.approx(31.5)
        assert interarrival_scale(0.0, 10.0, 15.0) == math.inf


class TestRunRoundScripted:
    def test_two_honest_blocks_end_the_round(self):
        out = scripted_round([0, 0])
        assert out.winner == HONEST
        assert out.length[HONEST] == 2
        assert replay_pegged([0, 0], out) == (Block(0, 1, 1), Block(0, 2, 2))
        assert out.pegged == 2
        assert out.released == 0 and out.reserved == 0
        assert out.events == 2
        assert out.first_owner == HONEST

    def test_two_dishonest_blocks_claim_the_round(self):
        out = scripted_round([1, 1])
        assert out.winner == 1
        assert out.fork_pos[1] == 0
        assert out.length[1] == 2
        assert out.released == 2 and out.reserved == 0
        assert out.length[2] == 0  # pool 1 alone forked

    def test_fork_position_fixed_at_first_own_block(self):
        # Pool 1 mines its first block when the honest chain has one block:
        # its chain rides position 1 and stays there while honest grows.
        out = scripted_round([0, 1, 0, 0, 0])
        assert out.winner == HONEST
        assert out.length[HONEST] == 4
        assert (out.fork_pos[1], out.length[1]) == (1, 1)
        assert (out.longest, out.second) == (4, 2)

    def test_script_exhaustion_raises(self):
        with pytest.raises(ScriptExhausted):
            scripted_round([0, 1, 0, 0])

    def test_release_min_pegs_just_enough(self):
        # Delayed termination lets the leader overshoot; release-min then
        # pegs only what keeps the chain a full lead ahead.
        policy = lead_at_least(4)
        out = scripted_round([1, 0, 1, 1, 1, 1], policy=policy, release_policy=RELEASE_MIN)
        assert out.winner == 1
        assert out.length[1] == 5
        assert out.second == 1
        assert out.released == 3  # second + 2 with fork position 0
        assert out.reserved == 2

    def test_release_all_under_delay_pegs_everything(self):
        policy = lead_at_least(4)
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
        assert (out.length[HONEST], out.longest, out.second) == (2, 2, 0)

    def test_fork_at_one_closes_for_pool_one(self):
        out = scripted_round([0, 1, 1], fork_rule=FORK_TIP)
        assert out.winner == 1
        assert (out.fork_pos[1], out.length[1]) == (1, 2)
        assert (out.longest, out.second) == (3, 1)
        assert out.pegged == 3 and out.released == 2

    def test_late_win_pegs_the_whole_honest_chain(self):
        # m=1: pool 1 forks at 0, four honest blocks follow. Anchored, the
        # honest pool wins at its third block; under the tip rule pool 1's
        # chain moves up to fork position 4 and its second block closes the
        # round with a main chain of all four honest blocks plus its two, the
        # length it led by.
        assert scripted_round([1, 0, 0, 0], alphas=(0.5, 0.5)).winner == HONEST
        out = scripted_round([1, 0, 0, 0, 0, 1], alphas=(0.5, 0.5), fork_rule=FORK_TIP)
        assert out.winner == 1
        assert (out.fork_pos[1], out.length[1]) == (4, 2)
        assert (out.longest, out.second) == (6, 4)
        pegged = replay_pegged([1, 0, 0, 0, 0, 1], out, (0.5, 0.5), fork_rule=FORK_TIP)
        assert [(b.owner, b.height) for b in pegged] == [
            (HONEST, 1), (HONEST, 2), (HONEST, 3), (HONEST, 4), (1, 5), (1, 6),
        ]
        assert out.pegged == 6

    def test_release_min_measures_from_the_tip(self):
        # Pool 1 forks at 0 and waits for a four-block lead: four own blocks
        # over one honest block, generalized length 1 + 4 against a runner-up
        # of 1. Its fork position has moved up to 1, so the smallest release
        # r with 1 + r - 1 >= 2 is 2; anchored at 0 it would be 3.
        policy = lead_at_least(4)
        out = scripted_round(
            [1, 0, 1, 1, 1], policy=policy, release_policy=RELEASE_MIN, fork_rule=FORK_TIP
        )
        assert out.winner == 1
        assert (out.longest, out.second) == (5, 1)
        assert out.fork_pos[1] == 1
        assert out.released == 2 and out.reserved == 2


class TestCarryover:
    def test_honest_win_leaves_nothing(self):
        assert make_carryover(scripted_round([0, 0])) is None

    @pytest.mark.parametrize("owner,blocks,message", [
        (HONEST, 2, "only a dishonest pool"), (1, 0, "at least one private block"),
    ])
    def test_carry_needs_a_dishonest_owner_and_a_block(self, owner, blocks, message):
        with pytest.raises(ValueError, match=message):
            Carryover(owner, blocks)

    def test_carry_owner_must_be_a_pool_of_the_config(self):
        with pytest.raises(ValueError, match="carryover owner 3 not a dishonest pool"):
            scripted_round([0, 0], carry=Carryover(3, 1))

    def test_full_release_leaves_nothing(self):
        out = scripted_round([1, 1, 1], policy=lead_at_least(3))
        assert out.released == 3 and make_carryover(out) is None

    def test_partial_release_carries_remainder(self):
        policy = lead_at_least(4)
        out = scripted_round([1, 0, 1, 1, 1, 1], policy=policy, release_policy=RELEASE_MIN)
        carry = make_carryover(out)
        assert carry == Carryover(owner=1, private_blocks=2)

    def test_carryover_seeds_next_round_at_zero(self):
        out = scripted_round([0, 0, 0, 0], carry=Carryover(1, 2))
        # Pool 1 starts with two private blocks at fork position 0; honest
        # must reach a two-block lead over that to win.
        assert out.winner == HONEST
        assert out.length[HONEST] == 4
        assert (out.fork_pos[1], out.length[1]) == (0, 2)
        assert out.first_owner == 1
        assert out.length[2] == 0  # pool 1 alone forked

    def test_big_carryover_claims_after_one_mined_block(self):
        out = scripted_round([0], carry=Carryover(1, 3))
        assert out.winner == 1
        assert out.events == 1  # the one-block floor keeps duration positive
        assert out.released == 3 and out.reserved == 0

    def test_carryover_floor_blocks_zero_duration_rounds(self):
        alphas = (0.4, 0.3, 0.3)
        out = scripted_round([2], carry=Carryover(1, 5), alphas=alphas)
        assert MiningClock(SimConfig.from_alphas(alphas)).durations(np.array([out.events]))[0] > 0.0
        assert out.events == 1


class ReferenceClock:
    """The race as the model states it, on its own generator: every pool
    holds an exponential timestamp, all restarted each round (run_round
    iterates its source once per round); the first minimum mines and draws
    its next gap. elapsed holds each round's time: the timestamp of its
    last block."""

    def __init__(self, config, seed):
        self.rng = random.Random(seed)
        self.rates = [1.0 / interarrival_scale(a, config.gamma, config.mean_block_time) for a in config.alphas]
        self.elapsed = []

    def gap(self, rate):
        return self.rng.expovariate(rate) if rate > 0.0 else math.inf

    def __iter__(self):
        pending = [self.gap(rate) for rate in self.rates]
        self.elapsed.append(0.0)
        while True:
            at = min(pending)
            pool = pending.index(at)
            pending[pool] = at + self.gap(self.rates[pool])
            self.elapsed[-1] = at
            yield pool

    def durations(self, events):
        """The times the race took for the rounds played, whose event counts are `events`."""
        assert len(self.elapsed) == len(events)
        return np.array(self.elapsed)


def z_score(a, b):
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    if se == 0.0:  # both samples constant
        return 0.0 if a.mean() == b.mean() else math.inf
    return (a.mean() - b.mean()) / se


class TestMiningClock:
    """MiningClock's categorical draw, with the time rule's durations for
    its rounds, against the per-pool race they stand for and the time it
    took: 22 two-sample comparisons, |z| > 4 has probability 6e-5 each."""

    ROUNDS = 40_000

    def samples(self, config, clock):
        outs = [run_round(config, None, clock) for _ in range(self.ROUNDS)]
        events = np.array([o.events for o in outs])
        return np.array([o.winner for o in outs]), events.astype(float), clock.durations(events)

    @pytest.mark.parametrize("alphas,rule", [
        ((0.55, 0.45), FORK_ANCHORED),
        ((0.6, 0.0, 0.4), FORK_ANCHORED),
        ((0.5, 0.25, 0.15, 0.1), FORK_TIP),
        ((0.5, 0.2, 0.13, 0.1, 0.07), FORK_ANCHORED),
    ])
    def test_rounds_match_the_per_pool_race(self, alphas, rule):
        config = SimConfig.from_alphas(alphas, fork_rule=rule)
        clock = self.samples(config, MiningClock(config, seed=21))
        race = self.samples(config, ReferenceClock(config, seed=21))
        for pool in range(len(alphas)):
            z = z_score((clock[0] == pool).astype(float), (race[0] == pool).astype(float))
            assert abs(z) <= 4.0, f"pool {pool} win fraction z={z:.2f}"
        for name, k in (("events", 1), ("duration", 2)):
            z = z_score(clock[k], race[k])
            assert abs(z) <= 4.0, f"mean {name} z={z:.2f}"


class TestStochasticRounds:
    def test_determinism_same_seed_same_outcomes(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        runs = []
        for _ in range(2):
            runs.append(list(islice(chained_rounds(config, MiningClock(config, seed=42)), 50)))
        assert runs[0] == runs[1]

    def test_degenerate_single_miner_always_wins_with_two_blocks(self):
        config = SimConfig.from_alphas([1.0, 0.0, 0.0], gamma=10.0)
        clock = MiningClock(config, seed=1)
        events = []
        for _ in range(200):
            out = run_round(config, None, clock)
            assert out.winner == HONEST
            assert out.length[HONEST] == 2
            events.append(out.events)
        assert (clock.durations(np.array(events)) > 0.0).all()

    def test_degenerate_mean_duration_near_closed_form(self):
        # Two inter-arrival draws of mean 15 * (1/1 + 1/10) = 16.5 s each.
        config = SimConfig.from_alphas([1.0, 0.0], gamma=10.0)
        clock = MiningClock(config, seed=2)
        n = 30_000
        events = np.array([run_round(config, None, clock).events for _ in range(n)])
        total = clock.durations(events).sum()
        assert abs(total / n - 33.0) / 33.0 < 0.02

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
            for pool, sub in enumerate(tree.dishonest, start=1):
                assert (out.length[pool] > 0) == sub.forked
                assert out.length[pool] == len(sub.blocks)
                if sub.forked:
                    assert out.fork_pos[pool] == sub.fork_position
