"""poolsim benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; poolsim is imported from its `src`
directory. With `--trace 0` the run measures the end-to-end metrics: it runs
the workload's fixed unit of work with `nproc` workers until `--seconds` have
passed, times fresh-interpreter set-up several times spread over that window,
and reports medians over units and over set-ups. With `--trace 1` it measures
per-layer metrics: it times one untraced unit with `nproc` workers for the
pool's CPU share, then runs untraced and traced units in one process in
pairs, and writes the spans to `perfbench/_out/`. Either way every unit's outputs are checked, and one
replication is re-run on its seed.

Human-readable lines (the run manifest and every metric with its unit) come
first; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The workloads and metrics are
described in NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def _cpu_s(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _measure_unit(work, unit_seed, workers, checks, **kwargs):
    """Wall seconds, CPU seconds (self and children) and output of one unit."""
    self0, kids0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    out = work.run_unit(unit_seed, workers, checks, **kwargs)
    wall = time.perf_counter() - t0
    kids = _cpu_s(resource.RUSAGE_CHILDREN) - kids0
    return wall, _cpu_s(resource.RUSAGE_SELF) - self0 + kids, kids, out


def _setup_seconds(name, workers):
    """Fresh interpreter to first round, as measured by setup_probe.py."""
    t0 = time.monotonic()  # CLOCK_MONOTONIC is system-wide on Linux
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(workers)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def _unit_seed(seed, k):
    return seed * 10_000 + k


def timed_run(work, args, workers, checks):
    repeats = 1 if args.tiny else SETUP_REPEATS
    setups, walls, cpus = [], [], []
    first = None
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        # Set-up probes are spread over the run, so they sample the machine's
        # load as the units do, not one moment of it.
        if len(setups) < repeats and time.perf_counter() - started >= len(setups) * args.seconds / repeats:
            setups.append(_setup_seconds(work.name, workers))
        wall, cpu, _, out = _measure_unit(work, _unit_seed(args.seed, len(walls)), workers, checks)
        if not walls:
            first = out
        walls.append(wall)
        cpus.append(cpu)
    while len(setups) < repeats:
        setups.append(_setup_seconds(work.name, workers))
    if first is not None:
        work.check_rerun(_unit_seed(args.seed, 0), first, checks)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rounds = work.rounds_per_unit
    return {
        "rounds_per_s": (statistics.median(rounds / w for w in walls), "1/s"),
        "wall_s": (statistics.median(walls), "s"),
        "rounds_per_cpu_s": (statistics.median(rounds / c for c in cpus), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }, {"units": len(walls), "setup_repeats": repeats}


def traced_run(work, args, workers, checks):
    import spans

    pool_share = 0.0
    if work.uses_pool:
        wall, _, kids, _ = _measure_unit(work, _unit_seed(args.seed, 0), workers, checks)
        pool_share = kids / (workers * wall)
    tracer = spans.Tracer()
    untraced, traced = [], []
    first = None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        unit_seed = _unit_seed(args.seed, len(traced))
        wall, _, _, out = _measure_unit(work, unit_seed, 1, checks)
        untraced.append(wall)
        if first is None:
            first = out
        with tracer:
            traced.append(_measure_unit(work, unit_seed, 1, checks, wrap=tracer.wrap)[0])
    if first is not None:
        work.check_rerun(_unit_seed(args.seed, 0), first, checks)

    layers = spans.layer_metrics(tracer, len(traced))
    layers["cli.pool_cpu_share"] = (pool_share, "share")
    layers["cli.output_bytes"] = (getattr(work, "output_bytes", 0), "bytes")
    overhead = statistics.median(traced) - statistics.median(untraced)
    layers["trace.overhead_s"] = (overhead, "s")
    layers["trace.overhead_share"] = (overhead / statistics.median(untraced), "share")
    spans_path = OUT / f"spans-{work.name}.npz"
    tracer.save(spans_path)
    return layers, {
        "units": len(traced), "traced_workers": 1, "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def parse_args(argv):
    parser = argparse.ArgumentParser(description="poolsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="divide every unit's rounds by 20 and time set-up once (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "poolsim" / "__init__.py").is_file():
        print(f"perfbench: no poolsim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {workloads.NAMES}", file=sys.stderr)
        return 2
    workers = len(os.sched_getaffinity(0))  # nproc; the package's pool is capped at this
    OUT.mkdir(exist_ok=True)
    work = workloads.make(args.workload, str(OUT), args.tiny)
    checks = workloads.Checks()
    run = traced_run if args.trace else timed_run
    metrics, details = run(work, args, workers, checks)

    manifest = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": workers, "workers": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": _git_sha(), "rounds_per_unit": work.rounds_per_unit, **details,
    }
    print("manifest " + json.dumps(manifest))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    failed_share = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"metric failed_share {failed_share!r} share ({checks.failed}/{checks.attempted} checks)")
    for message in checks.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": checks.attempted > 0 and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
