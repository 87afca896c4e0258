"""Check that the working tree's reference runs are byte-identical to REV's.

Extracts REV's src/ with `git archive REV src | tar -x` into a temporary
directory (no worktree, .git unchanged), then runs the reference CLI runs
of CI on REV and on the working tree, each at --workers 1 and 2 with
PYTHONPATH set to that tree's src/. gridpoint.csv and rounds.csv must match
byte for byte, and summary.json through compare_summaries.py's load and
differences, so wall_clock_seconds is left out. No CLI mode counts winners
alone (metrics.win_fraction_run), so library calls of find_power_threshold
cover that path, under each fork rule at 1 and 2 workers; the repr of
each ThresholdEstimate must match. Prints one line per run, worker count
and file or call, and exits 1 if anything differs.

Usage: python .github/compare_revisions.py REV
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_summaries import differences, load  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKERS = (1, 2)
FILES = ("gridpoint.csv", "rounds.csv", "summary.json")
RUNS = {
    "single": ["--mode", "single", "--alphas", "0.6,0.3,0.1", "--rounds", "40000", "--replications", "2",
               "--emit-rounds", "--seed", "1"],
    "five-pool": ["--mode", "single", "--alphas", "0.4,0.2,0.15,0.15,0.1", "--lead-threshold", "3",
                  "--rounds", "40000", "--replications", "2", "--emit-rounds", "--seed", "1"],
    "nine-pool": ["--mode", "single", "--alphas", "0.3" + ",0.0875" * 8, "--rounds", "40000", "--replications", "2",
                  "--seed", "1"],
    "threshold": ["--mode", "threshold", "--alphas", "0.6,0.3,0.1", "--grid", "0.4,0.5,0.6,0.7,0.8",
                  "--rounds", "2000", "--replications", "2", "--seed", "1"],
    "sweep": ["--mode", "sweep", "--alphas", "0.55,0.32,0.13", "--rounds", "2000", "--replications", "2",
              "--emit-rounds", "--seed", "7"],
}
# The threshold search of perfbench's threshold-winonly workload.
THRESHOLD_CALL = (
    "from poolsim.engine import SimConfig; from poolsim.metrics import find_power_threshold; "
    "print(repr(find_power_threshold(SimConfig((0.6, 0.3, 0.1), fork_rule={rule!r}), (0.4, 0.5, 0.6, 0.7, 0.8), "
    "2, 20000, master_seed=1, workers={workers})))"
)
FORK_RULES = ("anchored", "tip")


def run_cli(src: Path, args: list, out: Path, cwd: Path) -> None:
    """One poolsim CLI run on the package under src, writing to out."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "poolsim.cli", *args, "--out", str(out)], env=env, cwd=cwd, check=True)


def run_threshold(src: Path, rule: str, workers: int, cwd: Path) -> str:
    """The repr of one library find_power_threshold run on the package under src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = THRESHOLD_CALL.format(rule=rule, workers=workers)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout


def check_import(src: Path, cwd: Path) -> None:
    """Exit unless PYTHONPATH=src imports poolsim from src, not from an installed copy."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    found = subprocess.run([sys.executable, "-c", "import poolsim; print(poolsim.__file__)"],
                           env=env, cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        sys.exit(f"PYTHONPATH={src} imports poolsim from {found}")


def compare(file: str, theirs: Path, ours: Path) -> str:
    """'identical', or how the working tree's file differs from REV's."""
    if not theirs.exists() or not ours.exists():
        return "written by neither" if theirs.exists() == ours.exists() else "DIFFERS: in one run only"
    if file == "summary.json":
        paths = list(differences(load(theirs), load(ours)))
        return f"DIFFERS at {len(paths)} paths: {', '.join(paths[:5])}" if paths else "identical"
    return "identical" if theirs.read_bytes() == ours.read_bytes() else "DIFFERS"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against, such as a parent commit's sha")
    rev = parser.parse_args().rev
    with tempfile.TemporaryDirectory(prefix="poolsim-compare-") as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"git archive {rev} src failed")
        trees = {"rev": tmp / "rev" / "src", "ours": ROOT / "src"}
        for src in trees.values():
            check_import(src, tmp)
        differ = False
        for name, args in RUNS.items():
            for workers in WORKERS:
                outs = {tree: tmp / f"{tree}-{name}-w{workers}" for tree in trees}
                for tree, src in trees.items():
                    run_cli(src, [*args, "--workers", str(workers)], outs[tree], tmp)
                for file in FILES:
                    verdict = compare(file, outs["rev"] / file, outs["ours"] / file)
                    differ |= verdict.startswith("DIFFERS")
                    print(f"{name:<10} workers {workers}  {file:<14} {verdict}", flush=True)
        for rule in FORK_RULES:
            for workers in WORKERS:
                found = {tree: run_threshold(src, rule, workers, tmp) for tree, src in trees.items()}
                verdict = "identical" if found["rev"] == found["ours"] else "DIFFERS"
                differ |= verdict == "DIFFERS"
                print(f"{'threshold-' + rule:<10} workers {workers}  {'estimate repr':<14} {verdict}", flush=True)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
