"""The benchmark's three workloads: one timed unit of work each, and its checks.

A unit is a fixed amount of simulation driven through poolsim's public entry
points only (`metrics.find_power_threshold`, `cli.run_experiment`,
`pipeline.simulate_rounds`). Its inputs come from the unit seed alone. Every
unit checks its outputs against invariants that hold under any fork rule or
random stream; a failed invariant is counted, not raised. Why each workload
was chosen is in NOTES.md.

The caller puts the checkout's `src` directory on `sys.path` before importing
this module.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from poolsim import cli, metrics, pipeline
from poolsim.engine import MiningClock, SimConfig, run_round

# Rounds are divided by this in the smoke test's tiny runs.
TINY_DIVISOR = 20


def identity_wrap(name, fn):
    """Stand-in for Tracer.wrap in untraced runs."""
    return fn


class Checks:
    """Counts output checks attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what, *args):
        """Count one check; `what` is formatted with `args` only on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what.format(*args) if args else what)


def _first_round(config):
    """One round on a freshly seeded clock; the set-up probe's pool task."""
    return run_round(config, None, MiningClock(config, seed=0)).winner


def _probe_pool(config, workers):
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_first_round, [config] * workers))


def _fractions_ok(values):
    return all(0.0 <= v <= 1.0 for v in values)


class ThresholdWinOnly:
    """Criterion 1's shape: the win-only power-threshold search."""

    name = "threshold-winonly"
    alphas = (0.6, 0.3, 0.1)
    gamma = 10.0
    grid = (0.40, 0.50, 0.60, 0.70, 0.80)
    replications = 2  # 10 equal tasks keep two workers evenly busy
    base_rounds = 20_000
    uses_pool = True

    def __init__(self, tiny=False):
        self.rounds = self.base_rounds // (TINY_DIVISOR if tiny else 1)
        self.rounds_per_unit = len(self.grid) * self.replications * self.rounds

    def config(self):
        return SimConfig.from_alphas(self.alphas, gamma=self.gamma)

    def first_round(self, workers):
        config = self.config()
        MiningClock(config, seed=0)
        return _probe_pool(config, workers)

    def run_unit(self, unit_seed, workers, checks, wrap=identity_wrap):
        est = metrics.find_power_threshold(
            self.config(), self.grid, self.replications, self.rounds,
            master_seed=unit_seed, workers=workers,
        )
        checks.check(est.skipped == 0, f"seed {unit_seed}: {est.skipped} replications did not cross")
        for g, (ph, pf) in enumerate(zip(est.mean_p_honest, est.mean_p_first)):
            checks.check(
                _fractions_ok((ph, pf)) and ph + pf <= 1.0 + 1e-12,
                f"seed {unit_seed} grid {g}: win fractions {ph}, {pf} out of range",
            )
        return est

    def check_rerun(self, unit_seed, est, checks):
        """Re-run every replication of one grid point in this process."""
        g = unit_seed % len(self.grid)
        honest = self.grid[g]
        alphas = (honest, max(1.0 - honest - sum(self.alphas[2:]), 0.0)) + self.alphas[2:]
        config = SimConfig.from_alphas(alphas, gamma=self.gamma)
        runs = [
            metrics.win_fraction_run(config, self.rounds, np.random.SeedSequence(unit_seed, spawn_key=(g, r)))
            for r in range(self.replications)
        ]
        for fractions in runs:
            checks.check(
                _fractions_ok(fractions) and abs(sum(fractions) - 1.0) <= 1e-9,
                f"seed {unit_seed} grid {g}: win fractions {fractions} do not sum to 1",
            )
        mean_h = sum(f[0] for f in runs) / self.replications
        mean_f = sum(f[1] for f in runs) / self.replications
        checks.check(
            (mean_h, mean_f) == (est.mean_p_honest[g], est.mean_p_first[g]),
            f"seed {unit_seed} grid {g}: re-run gives {(mean_h, mean_f)}, "
            f"pool gave {(est.mean_p_honest[g], est.mean_p_first[g])}",
        )


class SweepCli:
    """Criterion 8's shape: the CLI sweep users run, outputs written to disk."""

    name = "sweep-cli"
    alphas = (0.55, 0.32, 0.13)
    grid = cli.DEFAULT_GRID
    replications = 2  # 12 equal tasks keep two workers evenly busy
    base_rounds = 4_000
    uses_pool = True

    def __init__(self, out_root, tiny=False):
        self.out_root = out_root
        self.rounds = self.base_rounds // (TINY_DIVISOR if tiny else 1)
        self.rounds_per_unit = len(self.grid) * self.replications * self.rounds
        self.output_bytes = 0

    def spec(self, unit_seed, workers):
        return cli.parse_config(overrides={
            "mode": "sweep",
            "alphas": list(self.alphas),
            "rounds": self.rounds,
            "replications": self.replications,
            "seed": unit_seed,
            "workers": workers,
            "out_dir": os.path.join(self.out_root, f"sweep-{unit_seed}"),
        })

    def first_round(self, workers):
        spec = self.spec(0, workers)
        config = spec.base_config()
        MiningClock(config, seed=0)
        return _probe_pool(config, workers)

    def run_unit(self, unit_seed, workers, checks, wrap=identity_wrap):
        spec = self.spec(unit_seed, workers)
        try:
            code = cli.run_experiment(spec)
            checks.check(code == 0, f"seed {unit_seed}: run_experiment exited {code}")
            if code != 0:
                return None
            return self._read_outputs(spec, unit_seed, checks)
        finally:
            shutil.rmtree(spec.out_dir, ignore_errors=True)

    def _read_outputs(self, spec, unit_seed, checks):
        summary_path = os.path.join(spec.out_dir, "summary.json")
        csv_path = os.path.join(spec.out_dir, "gridpoint.csv")
        try:
            self.output_bytes = os.path.getsize(summary_path) + os.path.getsize(csv_path)
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except (OSError, ValueError) as exc:
            checks.check(False, f"seed {unit_seed}: outputs do not parse: {exc}")
            return None
        checks.check(
            len(rows) == len(self.grid) * self.replications,
            f"seed {unit_seed}: {len(rows)} CSV rows for {len(self.grid)} x {self.replications}",
        )
        pools = len(self.alphas)
        pairs = [("growthDirect", "growthDecomp"), ("rewardRateH_direct", "rewardRateH_decomp")]
        pairs += [(f"rewardRate{i}_direct", f"rewardRate{i}_decomp") for i in range(1, pools)]
        for k, row in enumerate(rows):
            for direct, decomp in pairs:
                a, b = float(row[direct]), float(row[decomp])
                checks.check(
                    math.isclose(a, b, rel_tol=0.01),
                    f"seed {unit_seed} row {k}: {direct} {a} vs {decomp} {b} differ by more than 1%",
                )
        for block in summary["grid"]:
            growth = block["merged"]["growth_rate"]
            checks.check(
                math.isclose(growth["direct"], growth["decomposition"], rel_tol=0.01),
                f"seed {unit_seed}: merged growth rates {growth} differ by more than 1%",
            )
        return rows

    def check_rerun(self, unit_seed, rows, checks):
        """Re-run one replication in this process; compare with its CSV row."""
        g = unit_seed % len(self.grid)
        r = (unit_seed // len(self.grid)) % self.replications
        spec = self.spec(unit_seed, 1)
        config = SimConfig.from_alphas(
            spec.grid_alphas(self.grid[g]),
            gamma=spec.gamma,
            mean_block_time=spec.mean_block_time,
            lead_threshold=spec.lead_threshold,
            release_policy=spec.release_policy,
        )
        bank, _ = pipeline.simulate_rounds(
            config, self.rounds, seed=np.random.SeedSequence(unit_seed, spawn_key=(g, r))
        )
        row = rows[g * self.replications + r]
        written = tuple(float(row[k]) for k in ["pH"] + [f"p{i}" for i in range(1, len(self.alphas))])
        checks.check(
            written == bank.win_fractions(),
            f"seed {unit_seed} grid {g} rep {r}: re-run gives {bank.win_fractions()}, CSV has {written}",
        )


def wait_for_lead_of_three(longest, second, mined):
    """Termination policy: a dishonest leader ends the round at a lead of 3."""
    return longest - second >= 3


class RecordChecker:
    """on_record consumer: exact per-round identities read from counts."""

    def __init__(self, checks):
        self.checks = checks
        self.rounds = 0
        self.reserving = 0

    def __call__(self, record):
        self.rounds += 1
        if record.outcome.reserved:
            self.reserving += 1
        c = record.classification
        pays = record.rewards.per_pool
        # Zero amounts are skipped so the consumer stays light next to the
        # pipeline it watches.
        self.checks.check(
            c.orphan_count == c.uncle_count + c.stale_count
            and sum(p.regular for p in pays if p.regular) == c.regular_count
            and all(Fraction(p.nephew * 32).denominator == 1 for p in pays if p.nephew),
            "round {}: per-round identity broken", record.index,
        )


class CarryoverM4:
    """Four rival pools, minimal release and a lead-3 policy, one process."""

    name = "carryover-m4"
    alphas = (0.5, 0.2, 0.13, 0.1, 0.07)
    base_rounds = 5_000
    uses_pool = False

    def __init__(self, tiny=False):
        self.rounds = self.base_rounds // (TINY_DIVISOR if tiny else 1)
        self.rounds_per_unit = self.rounds
        self.reserve_share = 0.0

    def config(self):
        return SimConfig.from_alphas(self.alphas, release_policy="release-min")

    def first_round(self, workers):
        config = self.config()
        return run_round(config, None, MiningClock(config, seed=0), wait_for_lead_of_three).winner

    def run_unit(self, unit_seed, workers, checks, wrap=identity_wrap):
        consumer = RecordChecker(checks)
        bank, _ = pipeline.simulate_rounds(
            self.config(), self.rounds, seed=unit_seed,
            termination_policy=wait_for_lead_of_three,
            on_record=wrap("bench.on_record", consumer),
        )
        checks.check(
            consumer.rounds == bank.rounds == self.rounds,
            f"seed {unit_seed}: {consumer.rounds} records, bank saw {bank.rounds}, asked {self.rounds}",
        )
        self.reserve_share = consumer.reserving / max(consumer.rounds, 1)
        checks.check(self.reserve_share > 0.0, f"seed {unit_seed}: no round reserved blocks")
        return bank

    def check_rerun(self, unit_seed, bank, checks):
        again, _ = pipeline.simulate_rounds(
            self.config(), self.rounds, seed=unit_seed, termination_policy=wait_for_lead_of_three
        )
        checks.check(
            again.win_counts == bank.win_counts,
            f"seed {unit_seed}: re-run wins {again.win_counts}, first run {bank.win_counts}",
        )


NAMES = (ThresholdWinOnly.name, SweepCli.name, CarryoverM4.name)


def make(name, out_root="", tiny=False):
    if name == SweepCli.name:
        return SweepCli(out_root, tiny)
    if name == ThresholdWinOnly.name:
        return ThresholdWinOnly(tiny)
    if name == CarryoverM4.name:
        return CarryoverM4(tiny)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
