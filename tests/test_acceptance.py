"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive fixtures are
session-scoped and shared across criteria. Two assertions (the power
threshold reproduction and the main-chain-ratio interior minimum) encode the
paper's reference values. The threshold criterion runs under the tip fork
rule, where every forked dishonest chain rides the honest tip; the anchored
rule crosses near 0.49, far below its reference band. Every other criterion,
the trend sweep shared by both parts of criterion 8 included, runs the
default anchored rule. The main-chain-ratio dip is reproduced under neither
rule, so that assertion fails with the measured values in its message.
"""
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Dict, List

import numpy as np
import pytest

from poolsim.cli import ExperimentSpec, _run_replications, run_experiment
from poolsim.engine import HONEST, MiningClock, SimConfig
from poolsim.metrics import EstimatorBank, find_power_threshold, mean_ci95
from poolsim.oracle import enumerate_and_check
from poolsim.pipeline import chained_rounds, simulate_rounds

WORKERS = os.cpu_count() or 1
UNCLE_REWARD_SET = {Fraction(n, 8) for n in range(2, 8)}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- shared heavy runs ---------------------------------------------------------


@dataclass
class IdentityTally:
    rounds: int = 0
    violations: List[str] = field(default_factory=list)

    def check(self, rec):
        self.rounds += 1
        r = rec.ratios
        out = rec.outcome
        if r.main_chain + r.orphan != 1:
            self.violations.append(f"round {rec.index}: main+orphan != 1")
        if r.orphan != r.uncle + r.stale:
            self.violations.append(f"round {rec.index}: orphan != uncle+stale")
        if sum(p.regular for p in rec.rewards.per_pool) != out.pegged:
            self.violations.append(f"round {rec.index}: regular != pegged")
        if out.winner == HONEST and r.chain_quality != 1:
            self.violations.append(f"round {rec.index}: honest quality != 1")
        for uncle in rec.classification.uncles:
            if uncle.reward not in UNCLE_REWARD_SET:
                self.violations.append(f"round {rec.index}: uncle reward {uncle.reward}")
        nephew_booked = sum(p.nephew for p in rec.rewards.per_pool)
        if nephew_booked * 32 != int(nephew_booked * 32):
            self.violations.append(f"round {rec.index}: nephew reward not n/32")


@pytest.fixture(scope="session")
def consistency_runs():
    """Three desk configurations at 5e4 rounds plus a reserve-heavy run;
    shared by the consistency and exactness criteria."""
    tally = IdentityTally()
    banks: Dict[float, EstimatorBank] = {}
    for i, alpha_h in enumerate((0.55, 0.65, 0.75)):
        config = SimConfig.from_alphas([alpha_h, 0.87 - alpha_h, 0.13], gamma=10.0)
        bank, _ = simulate_rounds(
            config, 50_000,
            seed=np.random.SeedSequence(8800, spawn_key=(i,)),
            on_record=tally.check,
        )
        banks[alpha_h] = bank
    # Reserve-and-carryover coverage: a dishonest leader that waits for a
    # three-block lead under minimal release.
    config = SimConfig.from_alphas([0.5, 0.37, 0.13], release_policy="release-min")
    simulate_rounds(
        config, 10_000,
        seed=np.random.SeedSequence(8801),
        termination_policy=lambda longest, second, mined: longest - second >= 3,
        on_record=tally.check,
    )
    return banks, tally


@pytest.fixture(scope="session")
def trend_sweep():
    """Desk-scale sweep for the qualitative trend criterion: six grid
    points, 20 replications of 2e4 rounds each."""
    spec = ExperimentSpec(
        mode="sweep",
        alphas=(0.55, 0.32, 0.13),
        gamma=10.0,
        grid=(0.55, 0.60, 0.65, 0.70, 0.75, 0.80),
        rounds=20_000,
        replications=20,
        seed=771_000,
        workers=WORKERS,
    )
    results = _run_replications(spec, spec.point_configs())
    per_grid_banks: Dict[int, List[EstimatorBank]] = {
        grid_idx: [bank for bank, _rows in reps] for grid_idx, reps in enumerate(results)
    }
    return spec.grid, per_grid_banks


def endpoint_ci(per_grid_banks, grid_idx, extract):
    values = [extract(bank) for bank in per_grid_banks[grid_idx]]
    return mean_ci95(values)


# -- criteria ------------------------------------------------------------------


def test_criterion_1_power_threshold_reproduction():
    # m=2, alpha_2=0.1, gamma=10, N=20000 rounds, 100 replications, under
    # the tip fork rule. The grid also reaches below the reference range,
    # down to where the anchored rule crosses (near 0.49).
    started = time.time()
    config = SimConfig.from_alphas([0.6, 0.3, 0.1], gamma=10.0, fork_rule="tip")
    estimate = find_power_threshold(
        config,
        alpha_grid=(0.40, 0.50, 0.60, 0.70, 0.80),
        replications=100,
        rounds_per_run=20_000,
        master_seed=20_2401,
        workers=WORKERS,
    )
    elapsed = time.time() - started
    lo, hi = estimate.ci95
    band = (0.6462, 0.6931)
    ok = lo <= band[1] and hi >= band[0]
    report(
        1, ok,
        f"alpha*={estimate.alpha_star:.4f} CI=({lo:.4f},{hi:.4f}) "
        f"reference band={band} reps={len(estimate.crossings)} "
        f"elapsed={elapsed:.0f}s",
    )
    assert estimate.skipped == 0
    assert ok, (
        f"measured crossing CI ({lo:.4f},{hi:.4f}) does not intersect the "
        f"reference band {band} under the tip fork rule"
    )


def test_criterion_2_degenerate_growth_rate():
    config = SimConfig.from_alphas([1.0, 0.0, 0.0], gamma=10.0)
    bad_lengths = []

    def check(rec):
        if rec.outcome.length[HONEST] != 2:
            bad_lengths.append(rec.index)

    bank, _ = simulate_rounds(config, 100_000, seed=np.random.SeedSequence(8802), on_record=check)
    growth = bank.growth_rate()
    expected = 1.0 / 16.5
    rel_err = abs(growth.direct - expected) / expected
    p_honest = bank.win_fractions()[0]
    ok = rel_err <= 0.02 and not bad_lengths and p_honest == 1.0
    report(
        2, ok,
        f"growth={growth.direct:.6f} expected={expected:.6f} rel_err={rel_err:.4%} "
        f"pH={p_honest} bad_rounds={len(bad_lengths)}",
    )
    assert not bad_lengths, "every degenerate round must peg exactly two blocks"
    assert p_honest == 1.0
    assert rel_err <= 0.02


def test_criterion_3_growth_decomposition_consistency(consistency_runs):
    banks, _ = consistency_runs
    worst = 0.0
    for alpha_h, bank in banks.items():
        growth = bank.growth_rate()
        rel = abs(growth.decomposition / growth.direct - 1.0)
        worst = max(worst, rel)
    ok = worst < 0.01
    report(3, ok, f"max relative difference across 3 configs: {worst:.2e} (tolerance 1%)")
    assert ok


def test_criterion_4_reward_rate_decomposition_consistency(consistency_runs):
    banks, _ = consistency_runs
    worst = 0.0
    for alpha_h, bank in banks.items():
        rates = bank.reward_rates()
        for direct, decomposed in zip(rates.direct, rates.decomposition):
            if direct:
                worst = max(worst, abs(decomposed / direct - 1.0))
    ok = worst < 0.01
    report(4, ok, f"max per-pool relative difference: {worst:.2e} (tolerance 1%)")
    assert ok


def test_criterion_5_exact_round_identities(consistency_runs):
    _, tally = consistency_runs
    ok = tally.rounds >= 100_000 and not tally.violations
    report(5, ok, f"{tally.rounds} rounds checked, {len(tally.violations)} violations")
    assert tally.rounds >= 100_000
    assert not tally.violations, tally.violations[:5]


def test_criterion_6_first_fork_position_invariant():
    violations = 0
    rounds = 0
    for m, n_rounds, seed in ((1, 34_000, 8803), (2, 33_000, 8804), (3, 33_000, 8805)):
        dishonest = [0.45 / m] * m
        config = SimConfig.from_alphas([0.55] + dishonest, gamma=10.0)
        clock = MiningClock(config, seed=np.random.SeedSequence(seed))
        for out in islice(chained_rounds(config, clock), n_rounds):
            rounds += 1
            # Fork positions only grow within a round, so the lowest one among
            # the forked pools is the first fork's.
            forks = [p for p, n in zip(out.fork_pos[1:], out.length[1:]) if n]
            if forks and min(forks) not in (0, 1):
                violations += 1
    ok = violations == 0 and rounds == 100_000
    report(6, ok, f"{rounds} rounds over m=1,2,3; {violations} fork-position violations")
    assert rounds == 100_000
    assert violations == 0


def test_criterion_7_oracle_equivalence():
    started = time.time()
    result = enumerate_and_check(8, 2)
    elapsed = time.time() - started
    ok = result.ok and result.scripts == 6561 and elapsed <= 60.0
    report(
        7, ok,
        f"{result.scripts} scripts, {result.rounds_checked} closed rounds, "
        f"{len(result.violations)} disagreements, {elapsed:.1f}s",
    )
    assert result.scripts == 6561
    assert result.ok, result.violations[:5]
    assert elapsed <= 60.0


def test_criterion_8_trend_monotonicity(trend_sweep):
    points, per_grid_banks = trend_sweep
    first, last = 0, len(points) - 1

    quality = lambda bank: bank.ratio_averages()["chain_quality"].direct
    uncle = lambda bank: bank.ratio_averages()["uncle"].direct
    honest_reward = lambda bank: bank.reward_means()[0]

    _, q_lo_first, q_hi_first = endpoint_ci(per_grid_banks, first, quality)
    _, q_lo_last, q_hi_last = endpoint_ci(per_grid_banks, last, quality)
    quality_up = q_lo_last > q_hi_first

    _, u_lo_first, u_hi_first = endpoint_ci(per_grid_banks, first, uncle)
    _, u_lo_last, u_hi_last = endpoint_ci(per_grid_banks, last, uncle)
    uncle_down = u_lo_first > u_hi_last

    _, r_lo_first, r_hi_first = endpoint_ci(per_grid_banks, first, honest_reward)
    _, r_lo_last, r_hi_last = endpoint_ci(per_grid_banks, last, honest_reward)
    reward_up = r_lo_last > r_hi_first

    ok = quality_up and uncle_down and reward_up
    report(
        "8 (endpoint trends)", ok,
        f"cQ {q_hi_first:.4f}<{q_lo_last:.4f}:{quality_up} "
        f"rU {u_hi_last:.4f}<{u_lo_first:.4f}:{uncle_down} "
        f"RH {r_hi_first:.4f}<{r_lo_last:.4f}:{reward_up}",
    )
    assert quality_up, "chain quality must rise with honest power"
    assert uncle_down, "uncle ratio must fall with honest power"
    assert reward_up, "honest per-round reward must rise across the grid"


def test_criterion_8_main_ratio_interior_minimum(trend_sweep):
    points, per_grid_banks = trend_sweep
    means = []
    for g in range(len(points)):
        values = [bank.ratio_averages()["main_chain"].direct for bank in per_grid_banks[g]]
        means.append(sum(values) / len(values))
    interior_min = min(means)
    ok = means[0] > interior_min and means[-1] > interior_min
    report(
        "8 (main-ratio dip)", ok,
        "rM by grid point: " + ", ".join(f"{m:.4f}" for m in means),
    )
    assert ok, (
        f"main-chain ratio should dip inside the grid, got {means}; it rises "
        f"monotonically across this grid under both fork rules"
    )


def test_criterion_9_determinism_and_merge_invariance(tmp_path):
    outputs = []
    for workers in (1, 4, 8):
        out_dir = str(tmp_path / f"w{workers}")
        spec = ExperimentSpec(
            mode="sweep",
            alphas=(0.6, 0.27, 0.13),
            grid=(0.55, 0.65, 0.75),
            rounds=2_000,
            replications=4,
            seed=991,
            workers=workers,
            out_dir=out_dir,
        )
        assert run_experiment(spec) == 0
        import json
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        summary.pop("wall_clock_seconds")
        with open(os.path.join(out_dir, "gridpoint.csv")) as fh:
            outputs.append((summary, fh.read()))
    identical = outputs[0] == outputs[1] == outputs[2]

    config = SimConfig.from_alphas([0.55, 0.32, 0.13])
    _, records = simulate_rounds(
        config, 10_000, seed=np.random.SeedSequence(8806), collect=True
    )
    whole = EstimatorBank(2)
    for rec in records:
        whole.update(rec.outcome, rec.ratios, rec.rewards, rec.classification)
    chunks = [EstimatorBank(2) for _ in range(4)]
    for i, rec in enumerate(records):
        chunks[i % 4].update(rec.outcome, rec.ratios, rec.rewards, rec.classification)
    merged = chunks[0].merge(chunks[1]).merge(chunks[2]).merge(chunks[3])
    reversed_merge = chunks[3].merge(chunks[2]).merge(chunks[1]).merge(chunks[0])

    def max_rel_diff(a, b):
        worst = 0.0
        pairs = [(a.duration_mean(), b.duration_mean()), (a.pegged_mean(), b.pegged_mean())]
        pairs += list(zip(a.reward_means(), b.reward_means()))
        pairs += [
            (x.direct, y.direct) for x, y in zip(a.ratio_averages().values(), b.ratio_averages().values())
        ]
        for x, y in pairs:
            if y:
                worst = max(worst, abs(x / y - 1.0))
        return worst

    merge_err = max(max_rel_diff(merged, whole), max_rel_diff(reversed_merge, whole))
    counters_exact = (
        merged.win_counts == whole.win_counts == reversed_merge.win_counts
        and merged.nephew_count == whole.nephew_count
        and merged.uncle_count == whole.uncle_count
    )
    ok = identical and counters_exact and merge_err < 1e-12
    report(
        9, ok,
        f"outputs identical across 1/4/8 workers: {identical}; "
        f"merge counters exact: {counters_exact}; merge max rel err: {merge_err:.2e}",
    )
    assert identical
    assert counters_exact
    assert merge_err < 1e-12
