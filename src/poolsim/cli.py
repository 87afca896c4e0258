"""Command-line front end: experiment configs, replication workers, flat outputs.

Experiments come in three modes. `single` runs one pool configuration;
`sweep` varies the honest pool's power over a grid, handing the remainder to
dishonest pool 1; `threshold` is a sweep that also locates the honest power
at which pool 1 wins rounds as often as the honest pool. Every (grid point,
replication) pair runs on its own child seed of the master seed, so results
are identical for any worker count. Outputs are flat files: summary.json
(stable key order) and gridpoint.csv, one row per grid point and
replication, plus an optional capped per-round trace.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classify import UNITS_PER_BLOCK
from .engine import RELEASE_POLICIES, SimConfig
from .metrics import EstimatorBank, NoCrossing, crossing_estimate, grid_config, mean_ci95
from .pipeline import simulate_rounds

MODES = ("single", "sweep", "threshold")
DEFAULT_GRID = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80)
MAX_TRACE_ROWS = 100_000
SUMMARY_SCHEMA = "poolsim-summary-v1"

_SPEC_FIELDS = {
    "mode", "alphas", "gamma", "mean_block_time", "lead_threshold",
    "release_policy", "grid", "rounds", "replications", "seed",
    "workers", "emit_rounds", "out_dir",
}


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    alphas: Tuple[float, ...]
    gamma: float = 10.0
    mean_block_time: float = 15.0
    lead_threshold: int = 2
    release_policy: str = "release-all"
    grid: Tuple[float, ...] = ()
    rounds: int = 10_000
    replications: int = 1
    seed: int = 0
    workers: Optional[int] = None
    emit_rounds: bool = False
    out_dir: str = "out"

    def base_config(self) -> SimConfig:
        return SimConfig.from_alphas(
            self.alphas,
            gamma=self.gamma,
            mean_block_time=self.mean_block_time,
            lead_threshold=self.lead_threshold,
            release_policy=self.release_policy,
            seed=self.seed,
        )

    def point_configs(self) -> List[SimConfig]:
        """Config simulated at each point: the base config in single mode,
        otherwise the grid variant where pool 1 absorbs the remainder.
        Raises ValueError for a config the simulator rejects."""
        base = self.base_config()
        if self.mode == "single":
            return [base]
        return [grid_config(base, alpha_h) for alpha_h in self.grid]

    def grid_alphas(self, alpha_honest: float) -> Tuple[float, ...]:
        """Pool powers at one grid point: pool 1 absorbs the remainder."""
        return grid_config(self.base_config(), alpha_honest).alphas

    def points(self) -> Tuple[float, ...]:
        """Honest powers actually simulated; single mode has one point."""
        if self.mode == "single":
            return (self.alphas[0],)
        return self.grid


def _validate(raw: Dict) -> ExperimentSpec:
    unknown = set(raw) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "alphas" not in raw:
        raise ConfigError("alphas: required (pool powers, honest pool first)")

    mode = raw.get("mode", "single")
    if mode not in MODES:
        raise ConfigError(f"mode: expected one of {MODES}, got {mode!r}")

    alphas = raw["alphas"]
    if not isinstance(alphas, (list, tuple)) or len(alphas) < 2:
        raise ConfigError("alphas: need the honest pool plus at least one dishonest pool")
    for i, a in enumerate(alphas):
        if not isinstance(a, (int, float)) or not 0.0 <= float(a) <= 1.0:
            raise ConfigError(f"alphas[{i}]: must be a number in [0, 1], got {a!r}")

    grid = raw.get("grid")
    if grid is None:
        grid = DEFAULT_GRID if mode != "single" else ()
    if not isinstance(grid, (list, tuple)) or not all(
        isinstance(g, (int, float)) and not isinstance(g, bool) for g in grid
    ):
        raise ConfigError(f"grid: expected a list of honest powers, got {grid!r}")
    grid = tuple(float(g) for g in grid)
    if mode != "single" and len(grid) < (2 if mode == "threshold" else 1):
        raise ConfigError(f"grid: {mode} mode needs at least two grid points")

    def _num(key, default, kind, low=None):
        value = raw.get(key, default)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigError(f"{key}: expected {kind[0].__name__ if isinstance(kind, tuple) else kind.__name__}, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"{key}: must be >= {low}, got {value}")
        return value

    gamma = float(_num("gamma", 10.0, (int, float), 1e-12))
    mean_block_time = float(_num("mean_block_time", 15.0, (int, float), 1e-12))
    lead_threshold = _num("lead_threshold", 2, int, 1)
    rounds = _num("rounds", 10_000, int, 1)
    replications = _num("replications", 1, int, 1)
    seed = _num("seed", 0, int, 0)

    release_policy = raw.get("release_policy", "release-all")

    workers = raw.get("workers")
    if workers is not None:
        workers = _num("workers", None, int, 1)

    emit_rounds = raw.get("emit_rounds", False)
    if not isinstance(emit_rounds, bool):
        raise ConfigError(f"emit_rounds: expected a boolean, got {emit_rounds!r}")

    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir: expected a non-empty string, got {out_dir!r}")

    spec = ExperimentSpec(
        mode=mode,
        alphas=tuple(float(a) for a in alphas),
        gamma=gamma,
        mean_block_time=mean_block_time,
        lead_threshold=lead_threshold,
        release_policy=release_policy,
        grid=grid,
        rounds=rounds,
        replications=replications,
        seed=seed,
        workers=workers,
        emit_rounds=emit_rounds,
        out_dir=out_dir,
    )
    try:
        spec.point_configs()  # the simulator's own checks: powers, grid points, rates, policy
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


def parse_config(path: Optional[str] = None, overrides: Optional[Dict] = None) -> ExperimentSpec:
    """Build a validated spec from a JSON config file and/or flag overrides.

    The file is a flat JSON object; see README for the key reference. Flags
    win over file values. Raises ConfigError naming the offending field.
    """
    raw: Dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        raw.update(loaded)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return _validate(raw)


# -- replication workers -------------------------------------------------------


def replication_seed(master_seed: int, grid_idx: int, rep_idx: int) -> int:
    """Stable per-replication seed fingerprint, for logs and CSV."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(grid_idx, rep_idx))
    return int(seq.generate_state(1, np.uint64)[0])


def _trace_row(grid_idx: float, alpha_h: float, rep_idx: int, record) -> list:
    out = record.outcome
    return [
        grid_idx, f"{alpha_h:.6g}", rep_idx, record.index, out.winner,
        out.honest_length, out.released, out.reserved, f"{out.duration!r}",
        record.classification.uncle_count,
    ] + [f"{x!r}" for x in record.ratios.as_floats()] + [
        f"{p.total_units / UNITS_PER_BLOCK!r}" for p in record.rewards.per_pool
    ]


def _replication_task(args) -> Tuple[int, int, EstimatorBank, Optional[List[list]]]:
    spec, config, grid_idx, alpha_h, rep_idx, trace_cap = args
    seed = np.random.SeedSequence(spec.seed, spawn_key=(grid_idx, rep_idx))
    rows: Optional[List[list]] = [] if trace_cap else None

    def on_record(record):
        if rows is not None and len(rows) < trace_cap:
            rows.append(_trace_row(grid_idx, alpha_h, rep_idx, record))

    bank, _ = simulate_rounds(
        config, spec.rounds, seed=seed,
        on_record=on_record if rows is not None else None,
    )
    return grid_idx, rep_idx, bank, rows


def _run_replications(spec: ExperimentSpec):
    points = spec.points()
    configs = spec.point_configs()
    trace_per_grid = MAX_TRACE_ROWS // len(points) if spec.emit_rounds else 0
    tasks = [
        (spec, configs[g], g, alpha_h, r, trace_per_grid if r == 0 else 0)
        for g, alpha_h in enumerate(points)
        for r in range(spec.replications)
    ]
    workers = spec.workers or os.cpu_count() or 1
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_task, tasks, chunksize=1))
    else:
        results = [_replication_task(t) for t in tasks]
    results.sort(key=lambda item: (item[0], item[1]))
    return points, results


# -- output writers -------------------------------------------------------------


def _rep_scalars(bank: EstimatorBank) -> Dict[str, float]:
    p = bank.win_fractions()
    ratios = bank.ratio_averages()
    growth = bank.growth_rate()
    rates = bank.reward_rates()
    out = {"pH": p[0]}
    for i in range(1, bank.num_pools):
        out[f"p{i}"] = p[i]
    out.update(
        cQ=ratios["chain_quality"]["direct"],
        rM=ratios["main_chain"]["direct"],
        rO=ratios["orphan"]["direct"],
        rU=ratios["uncle"]["direct"],
        rS=ratios["stale"]["direct"],
        growthDirect=growth.direct,
        growthDecomp=growth.decomposition,
        rewardRateH_direct=rates.direct[0],
        rewardRateH_decomp=rates.decomposition[0],
    )
    for i in range(1, bank.num_pools):
        out[f"rewardRate{i}_direct"] = rates.direct[i]
        out[f"rewardRate{i}_decomp"] = rates.decomposition[i]
    return out


def csv_columns(num_dishonest: int, threshold_mode: bool) -> List[str]:
    cols = ["alphaH", "alphaList", "gamma", "rounds", "replication", "seed", "pH"]
    cols += [f"p{i}" for i in range(1, num_dishonest + 1)]
    cols += ["cQ", "rM", "rO", "rU", "rS", "growthDirect", "growthDecomp",
             "rewardRateH_direct", "rewardRateH_decomp"]
    for i in range(1, num_dishonest + 1):
        cols += [f"rewardRate{i}_direct", f"rewardRate{i}_decomp"]
    if threshold_mode:
        cols += ["alphaStar", "alphaStarLo95", "alphaStarHi95"]
    return cols


def _threshold_block(points, per_rep_scalars) -> Dict:
    """Crossing of pool 1's and the honest pool's win curves over the grid."""
    est = crossing_estimate(
        points,
        [[s["pH"] for s in reps] for reps in per_rep_scalars],
        [[s["p1"] for s in reps] for reps in per_rep_scalars],
    )
    return {
        "alpha_star": est.alpha_star,
        "ci95": list(est.ci95),
        "crossings": list(est.crossings),
        "skipped_replications": est.skipped,
        "mean_p_honest": list(est.mean_p_honest),
        "mean_p_first": list(est.mean_p_first),
    }


def _ci_or_none(values: Sequence[float]):
    if len(values) < 2:
        return None
    _, lo, hi = mean_ci95(values)
    return [lo, hi]


def run_experiment(spec: ExperimentSpec) -> int:
    """Run the experiment and write summary.json / gridpoint.csv / rounds.csv.

    Exit codes: 0 on success, 2 for configuration errors, 3 for any failure
    once the simulation has started (runtime, worker or I/O). Every
    per-point config is built before the first round runs, so a config the
    simulator rejects is a configuration error. Identical spec and seed
    produce identical numeric output for any worker count; only the
    wall-clock field differs.
    """
    started = time.time()
    try:
        configs = spec.point_configs()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        points, results = _run_replications(spec)
        os.makedirs(spec.out_dir, exist_ok=True)

        # Results come sorted by (grid point, replication).
        banks = [[bank for g_, _, bank, _ in results if g_ == g] for g in range(len(points))]
        trace_rows = [row for *_, rows in results if rows for row in rows]
        per_rep_scalars = [[_rep_scalars(bank) for bank in reps] for reps in banks]
        merged_banks = [reduce(EstimatorBank.merge, reps) for reps in banks]

        threshold = None
        if spec.mode == "threshold":
            threshold = _threshold_block(points, per_rep_scalars)

        num_dishonest = len(spec.alphas) - 1
        columns = csv_columns(num_dishonest, threshold is not None)
        csv_path = os.path.join(spec.out_dir, "gridpoint.csv")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for g, alpha_h in enumerate(points):
                alphas = configs[g].alphas
                for r, scalars in enumerate(per_rep_scalars[g]):
                    row = {
                        "alphaH": f"{alpha_h:.6g}",
                        "alphaList": ";".join(f"{a:.6g}" for a in alphas),
                        "gamma": f"{spec.gamma:.6g}",
                        "rounds": spec.rounds,
                        "replication": r,
                        "seed": replication_seed(spec.seed, g, r),
                    }
                    row.update({k: repr(v) for k, v in scalars.items()})
                    if threshold is not None:
                        row["alphaStar"] = repr(threshold["alpha_star"])
                        row["alphaStarLo95"] = repr(threshold["ci95"][0])
                        row["alphaStarHi95"] = repr(threshold["ci95"][1])
                    writer.writerow([row[c] for c in columns])

        grid_blocks = []
        for g, alpha_h in enumerate(points):
            scalars = per_rep_scalars[g]
            keys = scalars[0].keys()
            series = {k: [s[k] for s in scalars] for k in keys}
            grid_blocks.append({
                "alpha_honest": alpha_h,
                "alphas": list(configs[g].alphas),
                "seeds": [replication_seed(spec.seed, g, r) for r in range(spec.replications)],
                "merged": merged_banks[g].summary(),
                "replication_mean_ci95": {k: _ci_or_none(v) for k, v in series.items()},
            })

        summary = {
            "schema": SUMMARY_SCHEMA,
            "mode": spec.mode,
            "master_seed": spec.seed,
            "rounds": spec.rounds,
            "replications": spec.replications,
            "config": {
                "alphas": list(spec.alphas),
                "gamma": spec.gamma,
                "mean_block_time": spec.mean_block_time,
                "lead_threshold": spec.lead_threshold,
                "release_policy": spec.release_policy,
                "grid": list(points),
            },
            "grid": grid_blocks,
            "threshold": threshold,
            "wall_clock_seconds": time.time() - started,
        }
        json_path = os.path.join(spec.out_dir, "summary.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")

        if spec.emit_rounds:
            rounds_path = os.path.join(spec.out_dir, "rounds.csv")
            with open(rounds_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                header = ["gridIndex", "alphaH", "replication", "round", "winner",
                          "honestLen", "released", "reserved", "duration", "nUncles",
                          "cQ", "rM", "rO", "rU", "rS"]
                header += [f"reward{i}" for i in range(len(spec.alphas))]
                writer.writerow(header)
                writer.writerows(trace_rows)
    except NoCrossing as exc:
        print(f"threshold failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        print(f"runtime error: {traceback.format_exc()}", file=sys.stderr)
        return 3
    return 0


# -- argument parsing -----------------------------------------------------------


def _parse_float_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolsim",
        description="Monte Carlo simulator of PoW mining competition with uncle rewards.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file (see README)")
    parser.add_argument("--mode", choices=MODES, help="experiment mode")
    parser.add_argument("--alphas", type=_parse_float_list, metavar="A0,A1,...",
                        help="pool powers, honest pool first")
    parser.add_argument("--grid", type=_parse_float_list, metavar="G0,G1,...",
                        help="honest-power grid for sweep/threshold modes")
    parser.add_argument("--gamma", type=float, help="communication rate (default 10)")
    parser.add_argument("--mean-block-time", type=float, dest="mean_block_time",
                        help="mean block time in seconds (default 15)")
    parser.add_argument("--lead-threshold", type=int, dest="lead_threshold",
                        help="blocks of lead that end a round (default 2)")
    parser.add_argument("--release-policy", choices=RELEASE_POLICIES, dest="release_policy",
                        help="dishonest winner's release rule (default release-all)")
    parser.add_argument("--rounds", type=int, help="rounds per replication")
    parser.add_argument("--replications", type=int, help="replications per grid point")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    parser.add_argument("--workers", type=int, help="worker processes (default: all cores)")
    parser.add_argument("--emit-rounds", action="store_true", default=None,
                        help="also write a capped per-round trace (rounds.csv)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "mode": args.mode,
        "alphas": args.alphas,
        "grid": args.grid,
        "gamma": args.gamma,
        "mean_block_time": args.mean_block_time,
        "lead_threshold": args.lead_threshold,
        "release_policy": args.release_policy,
        "rounds": args.rounds,
        "replications": args.replications,
        "seed": args.seed,
        "out_dir": args.out_dir,
        "workers": args.workers,
        "emit_rounds": args.emit_rounds,
    }
    env_workers = os.environ.get("SIM_WORKERS")
    if env_workers:
        try:
            overrides["workers"] = int(env_workers)
        except ValueError:
            print(f"config error: SIM_WORKERS must be an integer, got {env_workers!r}", file=sys.stderr)
            return 2
    try:
        spec = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
