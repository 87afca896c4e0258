import contextlib
import math
import os
import signal
import time

import numpy as np
import pytest

from poolsim import metrics
from poolsim.engine import HONEST, SimConfig
from poolsim.metrics import (
    Estimate,
    EstimatorBank,
    MergeShapeError,
    NoCrossing,
    NoData,
    ThresholdEstimate,
    ci95,
    crossing_estimate,
    find_power_threshold,
    grid_config,
    interpolate_crossing,
    run_grid,
    win_fraction_run,
)
from poolsim.pipeline import simulate_rounds

from conftest import lead_at_least


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

    def test_needs_a_dishonest_pool(self):
        with pytest.raises(ValueError, match="at least one dishonest pool"):
            EstimatorBank(0)

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
            termination_policy=lead_at_least(3), collect=True,
        )
        n = 3
        wins, fork, length, released, pegged = [0] * n, [0] * n, [0] * n, [0] * n, [0] * n
        units = [[0] * n for _ in range(n)]
        nephew_count, uncle_count = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        duration, ratio_total = 0.0, [0.0] * 5
        for rec in records:
            out, w = rec.outcome, rec.outcome.winner
            wins[w] += 1
            if w == HONEST:
                length[w] += out.length[HONEST]
            else:
                fork[w] += out.fork_pos[w]
                length[w] += out.length[w]
                released[w] += out.released
            pegged[w] += out.pegged
            for p, pay in enumerate(rec.rewards.per_pool):
                units[w][p] += pay.total_units
            nephew_count[w][out.first_owner] += 1
            for uncle in rec.classification.uncles:
                uncle_count[w][uncle.owner] += 1
            duration += rec.duration
            ratio_total = [t + x for t, x in zip(ratio_total, rec.ratios.as_floats())]
        assert bank.win_counts == wins
        assert (bank.fork_pos_total, bank.length_total, bank.released_total) == (fork, length, released)
        assert bank.pegged_by_winner == pegged
        assert bank.pegged_total == sum(rec.outcome.pegged for rec in records)
        assert bank.reward_by_winner == units
        assert bank.reward_units == [sum(column) for column in zip(*units)]
        assert (bank.nephew_count, bank.uncle_count) == (nephew_count, uncle_count)
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
            whole.update(rec)
        chunks = [EstimatorBank(2) for _ in range(4)]
        for i, rec in enumerate(records):
            chunks[i % 4].update(rec)
        merged = chunks[0]
        for c in chunks[1:]:
            merged = merged.merge(c)
        assert merged.rounds == whole.rounds
        assert merged.win_counts == whole.win_counts
        assert merged.nephew_count == whole.nephew_count
        assert merged.uncle_count == whole.uncle_count
        assert merged.duration_mean() == pytest.approx(whole.duration_mean(), rel=1e-12)
        for name in ("chain_quality", "main_chain", "orphan", "uncle", "stale"):
            assert merged.ratio_averages()[name].direct == pytest.approx(
                whole.ratio_averages()[name].direct, rel=1e-12
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
            banks[i % 3].update(rec)
        forward = banks[0].merge(banks[1]).merge(banks[2])
        backward = banks[2].merge(banks[1]).merge(banks[0])
        assert forward.win_counts == backward.win_counts
        assert forward.duration_mean() == pytest.approx(backward.duration_mean(), rel=1e-12)
        assert forward.ratio_averages()["uncle"].direct == pytest.approx(
            backward.ratio_averages()["uncle"].direct, rel=1e-12
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
            stretched.update(rec._replace(duration=33.0))
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
        total_time = sum(rec.duration for rec in records)
        assert sum(rates.direct) == pytest.approx(total_rewards / total_time, rel=1e-9)

    def test_degenerate_honest_rate_equals_growth(self):
        config = SimConfig.from_alphas([1.0, 0.0, 0.0])
        bank, _ = simulate_rounds(config, 5000, seed=np.random.SeedSequence(31))
        assert bank.reward_rates().direct[0] == pytest.approx(bank.growth_rate().direct, rel=1e-12)


class TestDecomposition:
    """The decomposition E[X] = sum over winners w of P(w) E[X | w], on
    hand-set totals of four rounds: the honest pool won three, pool 1 one,
    and pool 2 none, so its conditional means are undefined and it must add
    nothing."""

    def bank(self):
        bank = EstimatorBank(2)
        totals = dict(
            rounds=4,
            win_counts=[3, 1, 0],
            fork_pos_total=[0, 2, 0],
            length_total=[9, 4, 0],
            released_total=[0, 3, 0],
            pegged_by_winner=[9, 2 + 3, 0],
            # Units of 1/32, [winner][pool]. Given honest wins: 9 honest blocks and 2 nephew
            # units to the honest pool, a nephew unit and an uncle at distance 1 to pool 1. Given
            # pool 1's win: 2 honest blocks under the fork, a nephew unit and an uncle at
            # distance 2 to the honest pool, 3 released blocks to pool 1.
            reward_by_winner=[[9 * 32 + 2, 1 + 28, 0], [2 * 32 + 1 + 24, 3 * 32, 0], [0, 0, 0]],
            nephew_count=[[2, 1, 0], [1, 0, 0], [0, 0, 0]],
            uncle_count=[[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            duration_total=8.0,
            ratio_total=[3.5, 3.15, 0.85, 0.55, 0.3],
            ratio_by_winner=[[3.0, 2.4, 0.6, 0.3, 0.3], [0.5, 0.75, 0.25, 0.25, 0.0], [0.0] * 5],
        )
        assert set(totals) == set(EstimatorBank.TOTALS)
        for name, value in totals.items():
            setattr(bank, name, value)
        return bank

    def test_growth_by_hand(self):
        # (3 * 9/3 + 1 * (2/1 + 3/1)) / 4 rounds = 3.5 blocks per round, over 2 s.
        assert self.bank().growth_rate() == Estimate(1.75, 1.75)

    def test_rewards_by_hand(self):
        # Honest: given its wins, 3 blocks + (2/3) nephews of 1/32; given
        # pool 1's, its 2 blocks under the fork + a nephew of 1/32 + an
        # uncle of 24/32. Pool 1: given honest wins, (1/3) nephews of 1/32 +
        # (1/3) uncles of 28/32; given its own, 3 released blocks.
        honest = (3 * (3 + 2 / 3 / 32) + (2 + 1 / 32 + 24 / 32)) / 4 / 2
        first = (3 * (1 / 3 / 32 + 28 / 3 / 32) + 3) / 4 / 2
        rates = self.bank().reward_rates()
        assert rates.decomposition == pytest.approx((honest, first, 0.0), rel=1e-12)
        assert rates.direct == pytest.approx((379 / 32 / 8, 125 / 32 / 8, 0.0), rel=1e-12)
        assert rates.decomposition == pytest.approx(rates.direct, rel=1e-12)

    def test_ratios_by_hand(self):
        ratios = self.bank().ratio_averages()
        assert list(ratios) == list(metrics.RATIO_NAMES)
        assert ratios["chain_quality"] == Estimate(3.5 / 4, (3 * (3.0 / 3) + 0.5) / 4)
        assert ratios["uncle"] == pytest.approx(Estimate(0.55 / 4, 0.55 / 4), rel=1e-12)

    def test_summary_reads_the_pairs(self):
        bank = self.bank()
        summary = bank.summary()
        assert summary["growth_rate"] == {"direct": 1.75, "decomposition": 1.75}
        assert summary["reward_rate"] == {kind: list(v) for kind, v in bank.reward_rates()._asdict().items()}
        assert summary["ratios"]["orphan"] == bank.ratio_averages()["orphan"]._asdict()
        assert summary["conditional_means"]["fork_position"] == [None, 2.0, None]
        assert summary["nephew_rate"]["conditional"][2] == [0.0, 0.0, 0.0]


class TestRatioAverages:
    def test_two_round_average(self):
        config = SimConfig.from_alphas([0.5, 0.5])
        bank, records = simulate_rounds(
            config, 400, seed=np.random.SeedSequence(37), collect=True
        )
        values = [float(rec.ratios.exact().chain_quality) for rec in records]
        got = bank.ratio_averages()["chain_quality"].direct
        assert got == pytest.approx(sum(values) / len(values), rel=1e-12)

    def test_decomposed_equals_direct(self):
        config = SimConfig.from_alphas([0.55, 0.32, 0.13])
        bank, _ = simulate_rounds(config, 10_000, seed=np.random.SeedSequence(41))
        for name, both in bank.ratio_averages().items():
            assert both.direct == pytest.approx(both.decomposition, rel=1e-11), name

    def test_all_honest_rounds_have_unit_quality(self):
        config = SimConfig.from_alphas([1.0, 0.0])
        bank, _ = simulate_rounds(config, 500, seed=np.random.SeedSequence(43))
        assert bank.ratio_averages()["chain_quality"].direct == 1.0


class TestInterpolateCrossing:
    def test_linear_interpolation(self):
        assert interpolate_crossing([0.4, 0.6], [0.1, -0.1]) == pytest.approx(0.5)

    def test_exact_zero_at_grid_point(self):
        assert interpolate_crossing([0.4, 0.5, 0.6], [0.2, 0.0, -0.2]) == 0.5

    # After a negative difference the segment ending at a zero has no sign
    # change, so the zero itself is the crossing.
    @pytest.mark.parametrize("diff,crossing", [([-0.2, 0.0, 0.2], 0.5), ([-0.2, -0.1, 0.0], 0.6)],
                             ids=["interior", "last"])
    def test_exact_zero_after_negative_differences(self, diff, crossing):
        assert interpolate_crossing([0.4, 0.5, 0.6], diff) == crossing

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

    def test_one_replication_has_no_interval(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        estimate = find_power_threshold(config, [0.4, 0.5, 0.6, 0.7, 0.8], replications=1, rounds_per_run=2000)
        assert len(estimate.crossings) == 1
        assert estimate.ci95 is None

    def test_one_crossing_of_two_replications_has_no_interval(self):
        # Replication 0 crosses at 0.5; replication 1 stays below, so it is skipped.
        estimate = crossing_estimate((0.0, 1.0), [[0.5, 0.5], [0.5, 0.5]], [[0.25, 0.25], [0.75, 0.375]])
        assert (estimate.crossings, estimate.skipped) == ((0.5,), 1)
        assert estimate.ci95 is None

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

    def test_pool_means_equal_in_process_runs_on_child_seeds(self):
        # Grid point g, replication r runs on SeedSequence(master, spawn_key=(g, r)),
        # whichever process runs it; the benchmark's re-run check relies on this.
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        grid, reps, rounds, master = (0.42, 0.50, 0.58), 3, 600, 12
        est = find_power_threshold(config, grid, reps, rounds, master_seed=master, workers=2)
        for g, alpha in enumerate(grid):
            runs = [
                win_fraction_run(grid_config(config, alpha), rounds, np.random.SeedSequence(master, spawn_key=(g, r)))
                for r in range(reps)
            ]
            assert est.mean_p_honest[g] == sum(f[HONEST] for f in runs) / reps
            assert est.mean_p_first[g] == sum(f[1] for f in runs) / reps

    @pytest.mark.parametrize("field,message", [
        ("rounds_per_run", "got 2 and 0"), ("replications", "got 0 and 300"),
    ])
    def test_zero_rounds_or_replications_rejected_before_any_run(self, monkeypatch, field, message):
        def no_runs(*args, **kwargs):
            raise AssertionError("runs started")

        monkeypatch.setattr(metrics, "run_grid", no_runs)
        kwargs = dict(alpha_grid=[0.42, 0.58], replications=2, rounds_per_run=300, master_seed=1, workers=2)
        kwargs[field] = 0
        with pytest.raises(ValueError, match=message):
            find_power_threshold(SimConfig.from_alphas([0.6, 0.3, 0.1]), **kwargs)

    def test_one_point_grid_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(metrics, "run_grid", None)  # a run would fail on calling it
        with pytest.raises(ValueError, match="at least two points"):
            find_power_threshold(SimConfig.from_alphas([0.6, 0.3, 0.1]), [0.5], replications=2, rounds_per_run=300)

    def test_win_fraction_run_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="at least one round"):
            win_fraction_run(SimConfig.from_alphas([0.6, 0.3, 0.1]), 0, np.random.SeedSequence(1))

    def test_win_fraction_run_is_seed_stable(self):
        config = SimConfig.from_alphas([0.6, 0.3, 0.1])
        seed = np.random.SeedSequence(5, spawn_key=(1, 2))
        first = win_fraction_run(config, 400, seed)
        again = win_fraction_run(config, 400, np.random.SeedSequence(5, spawn_key=(1, 2)))
        assert first == again
        assert sum(first) == pytest.approx(1.0)


def grid_pair(point, seed, grid_idx, rep_idx):
    return point, grid_idx, rep_idx, os.getpid()


def fail_first(point, seed, grid_idx, rep_idx):
    if grid_idx == 0:
        raise ValueError(f"bad point {point}")
    return bytes(2**20)


class Unrebuildable(Exception):
    """Pickles, but its pickle calls __init__ with one argument of two."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


class Unpicklable(Exception):
    """Holds a lambda, so it does not pickle at all."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")
        self.hook = lambda: None


@contextlib.contextmanager
def interrupt_after(seconds, error=TimeoutError):
    """Raise error in this process once seconds have passed; a run_grid that
    hangs then fails its test instead of holding the suite."""
    def ring(signum, frame):
        raise error(f"{seconds} s passed")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestRunGrid:
    @pytest.fixture(autouse=True)
    def no_child_outlives_the_call(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("points,replications,workers,started", [
        ((0.5,), 2, 64, [2]),
        ((0.5, 0.6, 0.7), 2, 4, [4]),
        ((0.5, 0.6, 0.7), 1, 8, [3]),
        ((0.5,), 1, 8, []),
        ((0.5, 0.6), 2, 1, []),
    ])
    def test_starts_at_most_one_process_per_task(self, points, replications, workers, started):
        # started: the worker count of each process group started, as [n] or [].
        results = run_grid(grid_pair, points, replications, 1, workers)
        pids = {pid for reps in results for *_, pid in reps}
        assert len(pids - {os.getpid()}) == sum(started)
        assert [[call for *call, _ in reps] for reps in results] == [
            [[p, g, r] for r in range(replications)] for g, p in enumerate(points)
        ]

    def test_child_k_runs_every_nth_call(self):
        results = run_grid(grid_pair, (0.5, 0.6, 0.7), 2, 1, 2)
        pids = [pid for reps in results for *_, pid in reps]
        assert os.getpid() not in pids
        assert pids[0::2] == [pids[0]] * 3 and pids[1::2] == [pids[1]] * 3
        assert pids[0] != pids[1]

    def test_without_fork_the_calls_run_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        results = run_grid(grid_pair, (0.5, 0.6), 2, 1, 2)
        assert {pid for reps in results for *_, pid in reps} == {os.getpid()}

    def test_task_exception_keeps_its_type(self):
        with pytest.raises(ValueError, match="bad point 0.5"):
            run_grid(fail_first, (0.5, 0.6), 1, 1, 2)

    @pytest.mark.parametrize("error", [Unrebuildable, Unpicklable])
    def test_exception_that_does_not_come_back_is_a_runtime_error(self, error):
        def task(point, seed, grid_idx, rep_idx):
            raise error("point", point)

        with pytest.raises(RuntimeError, match=f"(?s)worker 0 failed.*{error.__name__}: point: 0.5") as info:
            run_grid(task, (0.5, 0.6), 1, 1, 2)
        assert type(info.value) is RuntimeError

    def test_child_that_exits_without_a_result(self):
        with pytest.raises(metrics.WorkerDied, match=r"worker 0 ended without a result \(exit status 3\)"):
            run_grid(lambda point, seed, g, r: os._exit(3), (0.5, 0.6), 1, 1, 2)

    def test_large_results_come_back_intact(self):
        results = run_grid(lambda point, seed, g, r: bytes([g]) * 2**20, (0.5, 0.6), 1, 1, 2)
        assert results == [[bytes([0]) * 2**20], [bytes([1]) * 2**20]]

    def test_error_while_another_child_writes_returns_promptly(self):
        # Child 1 blocks on its full pipe until the parent kills it.
        started = time.monotonic()
        with interrupt_after(20), pytest.raises(ValueError):
            run_grid(fail_first, (0.5, 0.6), 1, 1, 2)
        assert time.monotonic() - started < 10

    def test_interrupt_kills_the_children(self):
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            with interrupt_after(0.5, KeyboardInterrupt):
                run_grid(lambda point, seed, g, r: time.sleep(60), (0.5, 0.6), 1, 1, 2)
        assert time.monotonic() - started < 10

    def test_lambda_task_runs_in_children(self):
        results = run_grid(lambda point, seed, g, r: (point * 2, os.getpid()), (0.5, 0.6), 1, 1, 2)
        assert [[value for value, _ in reps] for reps in results] == [[1.0], [1.2]]
        assert os.getpid() not in {pid for reps in results for _, pid in reps}


class TestMeanCi95:
    def test_interval_brackets_mean(self):
        values = [1.0, 2.0, 3.0, 4.0]
        mean = sum(values) / len(values)
        lo, hi = ci95(values)
        assert lo < mean < hi
        assert mean == 2.5
        # Sample variance 5/3 over 4 values, times the 95% normal quantile.
        half = metrics.Z_95 * math.sqrt(5 / 3 / 4)
        assert (lo, hi) == pytest.approx((mean - half, mean + half), rel=1e-15)

    def test_single_value_degenerate(self):
        assert ci95([5.0]) is None

    def test_no_values_raises(self):
        with pytest.raises(NoData):
            ci95([])
