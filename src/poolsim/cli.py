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
from dataclasses import dataclass, fields
from functools import partial, reduce
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classify import UNITS_PER_BLOCK, ratio_floats
from .engine import HONEST, RELEASE_MIN, RELEASE_POLICIES, SimConfig, prefix_table
from .metrics import (
    RATIO_NAMES, EstimatorBank, NoCrossing, ci95, crossing_estimate, grid_config, replication_seed, run_grid,
)
# simulate_rounds is not called here; the benchmark's tracer patches it in
# this module, so it stays importable from it.
from .pipeline import closed_blocks, simulate_rounds  # noqa: F401
from .rewards import reward_columns

MODES = ("single", "sweep", "threshold")
DEFAULT_GRID = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80)
MAX_TRACE_ROWS = 100_000
SUMMARY_SCHEMA = "poolsim-summary-v1"

# SimConfig fields an experiment sets, in base_config and summary.json's
# config block; every other SimConfig field keeps its default.
SIM_FIELDS = ("alphas", "gamma", "mean_block_time", "lead_threshold", "release_policy")


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    alphas: Tuple[float, ...]
    mode: str = "single"
    gamma: float = SimConfig.gamma
    mean_block_time: float = SimConfig.mean_block_time
    lead_threshold: int = SimConfig.lead_threshold
    release_policy: str = SimConfig.release_policy
    grid: Tuple[float, ...] = ()
    rounds: int = 10_000
    replications: int = 1
    seed: int = 0
    workers: Optional[int] = None
    emit_rounds: bool = False
    out_dir: str = "out"

    def base_config(self) -> SimConfig:
        return SimConfig.from_alphas(**{name: getattr(self, name) for name in SIM_FIELDS})

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


# JSON number kind and run-only lower bound of each numeric key; SimConfig
# makes the simulator's value checks.
_NUMBERS = {
    "gamma": (float, None), "mean_block_time": (float, None), "lead_threshold": (int, None),
    "rounds": (int, 1), "replications": (int, 1), "seed": (int, 0), "workers": (int, 1),
}


def _number(key: str, value, kind: type):
    """value as a JSON number of the given kind; an int passes as a float."""
    if not isinstance(value, (int, float) if kind is float else int) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected {'a number' if kind is float else 'int'}, got {value!r}")
    return kind(value)


def _check_run_bounds(spec: ExperimentSpec) -> None:
    """Run-only bounds, each mode's grid and the release policy, for a parsed
    spec or one built directly; workers=None means every CPU the process may use."""
    for key, (_, low) in _NUMBERS.items():
        value = getattr(spec, key)
        if low is not None and value is not None and value < low:
            raise ConfigError(f"{key}: must be >= {low}, got {value}")
    if spec.mode == "single" and spec.grid:
        raise ConfigError(f"grid: single mode runs the base config alone, got {list(spec.grid)}; use sweep mode")
    need = 2 if spec.mode == "threshold" else 1
    if spec.mode != "single" and len(spec.grid) < need:
        raise ConfigError(f"grid: {spec.mode} mode needs at least {need} grid point{'s' if need > 1 else ''}")
    if spec.release_policy == RELEASE_MIN:
        raise ConfigError("release_policy: CLI runs are eager, so a round ends at a lead of exactly"
                          " lead_threshold, where release-min releases the whole chain as release-all does")


def _validate(raw: Dict) -> ExperimentSpec:
    """Check the raw config's keys and types and the run-only fields; the
    simulator's config (SimConfig, grid_config) checks pool powers, rates,
    lead threshold and policy."""
    unknown = set(raw) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "alphas" not in raw:
        raise ConfigError("alphas: required (pool powers, honest pool first)")
    values = {f.name: raw.get(f.name, f.default) for f in fields(ExperimentSpec)}

    mode = values["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode: expected one of {MODES}, got {mode!r}")

    alphas = values["alphas"]
    if not isinstance(alphas, (list, tuple)):
        raise ConfigError("alphas: expected a list of pool powers, honest pool first")
    for i, a in enumerate(alphas):
        if not isinstance(a, (int, float)) or isinstance(a, bool):
            raise ConfigError(f"alphas[{i}]: expected a number, got {a!r}")
    values["alphas"] = tuple(float(a) for a in alphas)

    grid = raw.get("grid")
    if grid is None:
        grid = DEFAULT_GRID if mode != "single" else ()
    if not isinstance(grid, (list, tuple)) or not all(
        isinstance(g, (int, float)) and not isinstance(g, bool) for g in grid
    ):
        raise ConfigError(f"grid: expected a list of honest powers, got {grid!r}")
    values["grid"] = tuple(float(g) for g in grid)

    for key, (kind, _) in _NUMBERS.items():
        if key != "workers" or values[key] is not None:  # workers=None means every CPU the process may use
            values[key] = _number(key, values[key], kind)

    if not isinstance(values["emit_rounds"], bool):
        raise ConfigError(f"emit_rounds: expected a boolean, got {values['emit_rounds']!r}")
    if not isinstance(values["out_dir"], str) or not values["out_dir"]:
        raise ConfigError(f"out_dir: expected a non-empty string, got {values['out_dir']!r}")

    spec = ExperimentSpec(**values)
    _check_run_bounds(spec)
    try:
        spec.point_configs()  # the simulator's own checks: powers, grid points, rates, threshold, policy
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

RATIO_COLUMNS = ("cQ", "rM", "rO", "rU", "rS")  # short names of metrics.RATIO_NAMES, in order
TRACE_COLUMNS = ("gridIndex", "alphaH", "replication", "round", "winner", "honestLen", "released",
                 "reserved", "duration", "nUncles", *RATIO_COLUMNS)  # then reward<i> per pool


def _replication_task(
    config: SimConfig, seed, grid_idx: int, rep_idx: int, rounds: int, trace_cap: int
) -> Tuple[EstimatorBank, List[list]]:
    """One replication's bank, and its first trace_cap trace rows when it is
    replication 0, read off each closed block's columns."""
    bank = EstimatorBank(config.num_dishonest)
    rows: List[list] = []
    cap = trace_cap if rep_idx == 0 else 0
    head = [grid_idx, f"{config.alphas[0]:.6g}", rep_idx]
    for closed, _ in closed_blocks(config, rounds, seed=seed):
        take = min(cap - len(rows), len(closed.duration))
        if take > 0:
            block = closed.rounds
            columns = (
                block.winner, block.length[:, HONEST], block.released, block.reserved, closed.duration,
                closed.uncle_count, *ratio_floats(*closed.ratio_numerators),
                sum(reward_columns(block, closed.uncle_distance, closed.prev_uncle_count)) / UNITS_PER_BLOCK,
            )
            # Plain Python values, one tolist per column: csv writes a float as its repr.
            *fields, pays = (c[:take].tolist() for c in columns)
            rows += [[*head, i, *row, *pay] for i, *row, pay in zip(count(bank.rounds + 1), *fields, pays)]
        bank.add(closed)
    return bank, rows


def _run_replications(spec: ExperimentSpec, configs: Sequence[SimConfig]) -> List[list]:
    """(bank, trace rows) of every replication, as results[g][r], from
    run_grid's spec.workers processes, this one included. Every config's
    prefix table is built before the children fork, so they share it."""
    for config in configs:
        prefix_table(config)
    trace_cap = MAX_TRACE_ROWS // len(configs) if spec.emit_rounds else 0
    task = partial(_replication_task, rounds=spec.rounds, trace_cap=trace_cap)
    return run_grid(task, configs, spec.replications, spec.seed, spec.workers or _usable_cpus())


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# -- output writers -------------------------------------------------------------


def _rep_scalars(bank: EstimatorBank) -> Dict[str, float]:
    p = bank.win_fractions()
    out = {"pH": p[0], **{f"p{i}": p[i] for i in range(1, bank.num_pools)}}
    ratios = bank.ratio_averages()
    out.update((column, ratios[name].direct) for column, name in zip(RATIO_COLUMNS, RATIO_NAMES))
    growth, rates = bank.growth_rate(), bank.reward_rates()
    out.update(growthDirect=growth.direct, growthDecomp=growth.decomposition)
    for i, pool in enumerate(["H", *range(1, bank.num_pools)]):
        out[f"rewardRate{pool}_direct"], out[f"rewardRate{pool}_decomp"] = rates.direct[i], rates.decomposition[i]
    return out


# gridpoint.csv columns: these, then _rep_scalars' keys, then in threshold
# mode the crossing.
CSV_PREFIX = ("alphaH", "alphaList", "gamma", "rounds", "replication", "seed")
THRESHOLD_COLUMNS = ("alphaStar", "alphaStarLo95", "alphaStarHi95")


def _threshold_block(points, per_rep_scalars) -> Dict:
    """Crossing of pool 1's and the honest pool's win curves over the grid."""
    est = crossing_estimate(
        points,
        [[s["pH"] for s in reps] for reps in per_rep_scalars],
        [[s["p1"] for s in reps] for reps in per_rep_scalars],
    )
    return {
        "alpha_star": est.alpha_star,
        "ci95": est.ci95,
        "crossings": list(est.crossings),
        "skipped_replications": est.skipped,
        "mean_p_honest": list(est.mean_p_honest),
        "mean_p_first": list(est.mean_p_first),
    }


def run_experiment(spec: ExperimentSpec) -> int:
    """Run the experiment and write summary.json / gridpoint.csv / rounds.csv.

    Exit codes: 0 on success, 2 for configuration errors, 3 for any failure
    once the simulation has started (runtime, worker or I/O). The run-only
    bounds are checked and every per-point config is built before the first
    round runs, so a spec out of bounds, parsed or built directly, or a
    config the simulator rejects is a configuration error. Identical spec
    and seed produce identical numeric output for any worker count; only
    the wall-clock field differs.
    """
    started = time.time()
    try:
        _check_run_bounds(spec)
        configs = spec.point_configs()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        results = _run_replications(spec, configs)
        os.makedirs(spec.out_dir, exist_ok=True)

        points = [config.alphas[0] for config in configs]
        seeds = [
            [int(replication_seed(spec.seed, g, r).generate_state(1, np.uint64)[0]) for r in range(spec.replications)]
            for g in range(len(points))
        ]
        trace_rows = [row for reps in results for _, rows in reps if rows for row in rows]
        per_rep_scalars = [[_rep_scalars(bank) for bank, _ in reps] for reps in results]
        merged_banks = [reduce(EstimatorBank.merge, [bank for bank, _ in reps]) for reps in results]

        threshold = None
        if spec.mode == "threshold":
            threshold = _threshold_block(points, per_rep_scalars)

        csv_path = os.path.join(spec.out_dir, "gridpoint.csv")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*CSV_PREFIX, *per_rep_scalars[0][0], *(THRESHOLD_COLUMNS if threshold is not None else ())])
            for g, alpha_h in enumerate(points):
                alpha_list = ";".join(f"{a:.6g}" for a in configs[g].alphas)
                for r, scalars in enumerate(per_rep_scalars[g]):
                    row = [f"{alpha_h:.6g}", alpha_list, f"{spec.gamma:.6g}", spec.rounds, r, seeds[g][r]]
                    row += [repr(v) for v in scalars.values()]
                    if threshold is not None:
                        ci = threshold["ci95"]  # no interval: empty cells
                        row += [repr(threshold["alpha_star"]), *(map(repr, ci) if ci else ("", ""))]
                    writer.writerow(row)

        grid_blocks = []
        for g, alpha_h in enumerate(points):
            scalars = per_rep_scalars[g]
            keys = scalars[0].keys()
            series = {k: [s[k] for s in scalars] for k in keys}
            grid_blocks.append({
                "alpha_honest": alpha_h,
                "alphas": list(configs[g].alphas),
                "seeds": seeds[g],
                "merged": merged_banks[g].summary(),
                "replication_mean_ci95": {k: ci95(v) for k, v in series.items()},
            })

        summary = {
            "schema": SUMMARY_SCHEMA,
            "mode": spec.mode,
            "master_seed": spec.seed,
            "rounds": spec.rounds,
            "replications": spec.replications,
            "config": {**{name: getattr(spec, name) for name in SIM_FIELDS}, "grid": points},
            "grid": grid_blocks,
            "threshold": threshold,
            "wall_clock_seconds": time.time() - started,
        }
        json_path = os.path.join(spec.out_dir, "summary.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")

        if spec.emit_rounds:
            rounds_path = os.path.join(spec.out_dir, "rounds.csv")
            with open(rounds_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([*TRACE_COLUMNS, *(f"reward{i}" for i in range(len(spec.alphas)))])
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
    parser.add_argument("--gamma", type=float, help=f"communication rate (default {SimConfig.gamma:g})")
    parser.add_argument("--mean-block-time", type=float, dest="mean_block_time",
                        help=f"mean block time in seconds (default {SimConfig.mean_block_time:g})")
    parser.add_argument("--lead-threshold", type=int, dest="lead_threshold",
                        help=f"blocks of lead that end a round (default {SimConfig.lead_threshold})")
    parser.add_argument("--release-policy", choices=RELEASE_POLICIES, dest="release_policy",
                        help=f"dishonest winner's release rule (default {SimConfig.release_policy}); CLI runs"
                        " are eager, where release-min would peg every block, so it is a configuration error")
    parser.add_argument("--rounds", type=int, help="rounds per replication")
    parser.add_argument("--replications", type=int, help="replications per grid point")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    parser.add_argument("--workers", type=int,
                        help="worker processes, this one included (default: the CPUs this process may run on)")
    parser.add_argument("--emit-rounds", action="store_true", default=None,
                        help="also write a capped per-round trace (rounds.csv)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    path = overrides.pop("config")  # every other flag's dest is a spec field
    try:
        spec = parse_config(path, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
