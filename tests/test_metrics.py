import numpy as np
import pytest

from poolsim.engine import HONEST, SimConfig
from poolsim.metrics import (
    EstimatorBank,
    MergeShapeError,
    NoCrossing,
    NoData,
    ThresholdEstimate,
    find_power_threshold,
    interpolate_crossing,
    mean_ci95,
    win_fraction_run,
)
from poolsim.pipeline import simulate_rounds


class TestBankCounting:
    def run_bank(self, alphas, rounds, seed):
        config = SimConfig.from_alphas(alphas)
        bank, records = simulate_rounds(
            config, rounds, seed=np.random.SeedSequence(seed), collect=True
        )
        return bank, records

    def test_single_round_win_fraction(self):
        bank, _ = self.run_bank([1.0, 0.0], 1, 3)
        assert bank.win_fractions() == (1.0, 0.0)

    def test_win_fractions_count_rounds(self):
        bank, records = self.run_bank([0.5, 0.37, 0.13], 300, 5)
        wins = [0, 0, 0]
        for rec in records:
            wins[rec.outcome.winner] += 1
        assert bank.win_fractions() == tuple(w / 300 for w in wins)
        assert sum(bank.win_counts) == bank.rounds == 300

    def test_degenerate_race_statistics(self):
        bank, _ = self.run_bank([1.0, 0.0, 0.0], 10_000, 7)
        assert bank.win_fractions()[0] == 1.0
        # Every honest win has length 2, exactly.
        assert bank.length_total[HONEST] == 2 * bank.win_counts[HONEST]
        assert bank.conditional_mean(bank.length_total, HONEST) == 2.0

    def test_empty_bank_refuses_estimates(self):
        bank = EstimatorBank(2)
        with pytest.raises(NoData):
            bank.win_fractions()
        with pytest.raises(NoData):
            bank.growth_rate()


class TestBankTotals:
    def test_totals_match_a_loop_over_records(self):
        # Reference: plain Python sums over the closed-round records. Integer
        # totals must match exactly, float totals to summation-order rounding.
        config = SimConfig.from_alphas([0.5, 0.3, 0.2], release_policy="release-min")
        bank, records = simulate_rounds(
            config, 3000, seed=np.random.SeedSequence(37),
            termination_policy=lambda longest, second, mined: longest - second >= 3, collect=True,
        )
        n = 3
        wins, fork, length, released = [0] * n, [0] * n, [0] * n, [0] * n
        units = [0] * n
        nephew_count, nephew_units = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        uncle_count, uncle_units = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        duration, ratio_total = 0.0, [0.0] * 5
        for rec in records:
            out, w = rec.outcome, rec.outcome.winner
            wins[w] += 1
            if w == HONEST:
                length[w] += out.honest_length
            else:
                fork[w] += out.per_pool[w - 1].fork_position
                length[w] += out.per_pool[w - 1].length
                released[w] += out.released
            for p, pay in enumerate(rec.rewards.per_pool):
                units[p] += pay.total_units
            holder = out.first_block_owner
            nephew_count[w][holder] += 1
            nephew_units[w][holder] += rec.rewards.per_pool[holder].nephew_units
            for uncle in rec.classification.uncles:
                uncle_count[w][uncle.owner] += 1
                uncle_units[w][uncle.owner] += uncle.units
            duration += out.duration
            ratio_total = [t + x for t, x in zip(ratio_total, rec.ratios.as_floats())]
        assert bank.win_counts == wins
        assert (bank.fork_pos_total, bank.length_total, bank.released_total) == (fork, length, released)
        assert bank.pegged_total == sum(rec.outcome.pegged_count for rec in records)
        assert bank.reward_units == units
        assert (bank.nephew_count, bank.nephew_units) == (nephew_count, nephew_units)
        assert (bank.uncle_count, bank.uncle_units) == (uncle_count, uncle_units)
        assert bank.duration_total == pytest.approx(duration, rel=1e-12)
        assert bank.ratio_total == pytest.approx(ratio_total, rel=1e-12)


class TestBankMerge:
    def test_chunked_merge_equals_single_stream(self):
        config = SimConfig.from_alphas([0.55, 0.32, 0.13])
        _, records = simulate_rounds(
            config, 4000, seed=np.random.SeedSequence(11), collect=True
        )
        whole = EstimatorBank(2)
        for rec in records:
            whole.update(rec.outcome, rec.ratios, rec.rewards, rec.classification)
        chunks = [EstimatorBank(2) for _ in range(4)]
        for i, rec in enumerate(records):
            chunks[i % 4].update(rec.outcome, rec.ratios, rec.rewards, rec.classification)
        merged = chunks[0]
        for c in chunks[1:]:
            merged = merged.merge(c)
        assert merged.rounds == whole.rounds
        assert merged.win_counts == whole.win_counts
        assert merged.nephew_count == whole.nephew_count
        assert merged.uncle_count == whole.uncle_count
        assert merged.duration_mean() == pytest.approx(whole.duration_mean(), rel=1e-12)
        for name in ("chain_quality", "main_chain", "orphan", "uncle", "stale"):
            assert merged.ratio_averages()[name]["direct"] == pytest.approx(
                whole.ratio_averages()[name]["direct"], rel=1e-12
            )
        for p in range(3):
            assert merged.reward_means()[p] == pytest.approx(
                whole.reward_means()[p], rel=1e-12
            )

    def test_merge_order_does_not_matter(self):
        config = SimConfig.from_alphas([0.6, 0.27, 0.13])
        _, records = simulate_rounds(
            config, 900, seed=np.random.SeedSequence(13), collect=True
        )
        banks = [EstimatorBank(2) for _ in range(3)]
        for i, rec in enumerate(records):
            banks[i % 3].update(rec.outcome, rec.ratios, rec.rewards, rec.classification)
        forward = banks[0].merge(banks[1]).merge(banks[2])
        backward = banks[2].merge(banks[1]).merge(banks[0])
        assert forward.win_counts == backward.win_counts
        assert forward.duration_mean() == pytest.approx(backward.duration_mean(), rel=1e-12)
        assert forward.ratio_averages()["uncle"]["direct"] == pytest.approx(
            backward.ratio_averages()["uncle"]["direct"], rel=1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MergeShapeError):
            EstimatorBank(2).merge(EstimatorBank(3))


class TestRates:
    def test_growth_rate_substitution(self):
        # All rounds honest-won with two blocks over 33 simulated seconds
        # apiece: the long-run rate is 2/33 blocks per second.
        config = SimConfig.from_alphas([1.0, 0.0])
        bank, records = simulate_rounds(
            config, 50, seed=np.random.SeedSequence(17), collect=True
        )
        stretched = EstimatorBank(1)
        for rec in records:
            outcome = rec.outcome._replace(duration=33.0)
            stretched.update(outcome, rec.ratios, rec.rewards, rec.classification)
        rate = stretched.growth_rate()
        assert rate.decomposition == pytest.approx(2 / 33, rel=1e-12)
        assert rate.direct == pytest.approx(2 / 33, rel=1e-12)

    def test_growth_estimators_agree_on_real_runs(self):
        config = SimConfig.from_alphas([0.6, 0.27, 0.13])
        bank, _ = simulate_rounds(config, 20_000, seed=np.random.SeedSequence(19))
        rate = bank.growth_rate()
        assert rate.direct == pytest.approx(rate.decomposition, rel=1e-9)

    def test_reward_rate_estimators_agree(self):
        config = SimConfig.from_alphas([0.55, 0.32, 0.13])
        bank, _ = simulate_rounds(config, 20_000, seed=np.random.SeedSequence(23))
        rates = bank.reward_rates()
        for direct, decomposed in zip(rates.direct, rates.decomposition):
            assert direct == pytest.approx(decomposed, rel=1e-9)

    def test_reward_rates_add_up_to_total_booked(self):
        config = SimConfig.from_alphas([0.5, 0.37, 0.13])
        bank, records = simulate_rounds(
            config, 3000, seed=np.random.SeedSequence(29), collect=True
        )
        rates = bank.reward_rates()
        total_rewards = sum(float(p.total) for rec in records for p in rec.rewards.per_pool)
        total_time = sum(rec.outcome.duration for rec in records)
        assert sum(rates.direct) == pytest.approx(total_rewards / total_time, rel=1e-9)

    def test_degenerate_honest_rate_equals_growth(self):
        config = SimConfig.from_alphas([1.0, 0.0, 0.0])
        bank, _ = simulate_rounds(config, 5000, seed=np.random.SeedSequence(31))
        assert bank.reward_rates().direct[0] == pytest.approx(bank.growth_rate().direct, rel=1e-12)


class TestRatioAverages:
    def test_two_round_average(self):
        config = SimConfig.from_alphas([0.5, 0.5])
        bank, records = simulate_rounds(
            config, 400, seed=np.random.SeedSequence(37), collect=True
        )
        values = [float(rec.ratios.chain_quality) for rec in records]
        got = bank.ratio_averages()["chain_quality"]["direct"]
        assert got == pytest.approx(sum(values) / len(values), rel=1e-12)

    def test_decomposed_equals_direct(self):
        config = SimConfig.from_alphas([0.55, 0.32, 0.13])
        bank, _ = simulate_rounds(config, 10_000, seed=np.random.SeedSequence(41))
        for name, both in bank.ratio_averages().items():
            assert both["direct"] == pytest.approx(both["decomposition"], rel=1e-11), name

    def test_all_honest_rounds_have_unit_quality(self):
        config = SimConfig.from_alphas([1.0, 0.0])
        bank, _ = simulate_rounds(config, 500, seed=np.random.SeedSequence(43))
        assert bank.ratio_averages()["chain_quality"]["direct"] == 1.0


class TestInterpolateCrossing:
    def test_linear_interpolation(self):
        assert interpolate_crossing([0.4, 0.6], [0.1, -0.1]) == pytest.approx(0.5)

    def test_exact_zero_at_grid_point(self):
        assert interpolate_crossing([0.4, 0.5, 0.6], [0.2, 0.0, -0.2]) == 0.5

    def test_no_crossing_returns_none(self):
        assert interpolate_crossing([0.4, 0.6], [0.3, 0.1]) is None

    def test_first_crossing_wins(self):
        got = interpolate_crossing([0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 1.0, -1.0])
        assert got == pytest.approx(0.5)


class TestPowerThreshold:
    def test_no_crossing_raises(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        with pytest.raises(NoCrossing):
            find_power_threshold(config, [0.70, 0.80], replications=2, rounds_per_run=300, master_seed=1)

    def test_crossing_located_near_half(self):
        # Desk-scale version of the threshold hunt; the faithful model's
        # crossing sits just below one half (see decision notes).
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        estimate = find_power_threshold(
            config, [0.42, 0.50, 0.58], replications=4, rounds_per_run=2500, master_seed=2
        )
        assert isinstance(estimate, ThresholdEstimate)
        assert 0.42 < estimate.alpha_star < 0.58
        assert estimate.ci95[0] < estimate.alpha_star < estimate.ci95[1]
        assert estimate.skipped == 0
        assert len(estimate.crossings) == 4

    def test_deterministic_in_master_seed(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        a = find_power_threshold(config, [0.42, 0.58], replications=2, rounds_per_run=500, master_seed=3)
        b = find_power_threshold(config, [0.42, 0.58], replications=2, rounds_per_run=500, master_seed=3)
        assert a == b

    def test_fork_rule_reaches_the_workers(self):
        # The grid brackets both rules' crossings (near 0.49 anchored, near
        # 0.68 tip). Worker processes rebuild each grid point's config, so a
        # dropped fork rule would show up as a 2-worker result that differs
        # from the 1-worker one, or as tip agreeing with anchored.
        kwargs = dict(alpha_grid=[0.45, 0.75], replications=2, rounds_per_run=1500, master_seed=6)
        tip = SimConfig.from_alphas([0.6, 0.3, 0.1], fork_rule="tip")
        one = find_power_threshold(tip, workers=1, **kwargs)
        two = find_power_threshold(tip, workers=2, **kwargs)
        assert one == two
        anchored = find_power_threshold(SimConfig.from_alphas([0.6, 0.3, 0.1]), workers=2, **kwargs)
        assert anchored.mean_p_honest != one.mean_p_honest
        assert anchored.alpha_star < 0.6 < one.alpha_star

    def test_win_fraction_run_is_seed_stable(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        seed = np.random.SeedSequence(5, spawn_key=(1, 2))
        first = win_fraction_run(config, 400, seed)
        again = win_fraction_run(config, 400, np.random.SeedSequence(5, spawn_key=(1, 2)))
        assert first == again
        assert sum(first) == pytest.approx(1.0)


class TestMeanCi95:
    def test_interval_brackets_mean(self):
        mean, lo, hi = mean_ci95([1.0, 2.0, 3.0, 4.0])
        assert lo < mean < hi
        assert mean == 2.5

    def test_single_value_degenerate(self):
        assert mean_ci95([5.0]) == (5.0, 5.0, 5.0)

    def test_no_values_raises(self):
        with pytest.raises(NoData):
            mean_ci95([])
