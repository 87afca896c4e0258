"""Compare two poolsim summary.json files once wall_clock_seconds is dropped.

Exits non-zero with a message when they differ, naming up to 10 of the key
paths where they do. With --rounds it also checks
the first summary's run size: the rounds per replication, a first grid
point whose merged bank holds rounds x --replications rounds, and merged
win fractions that sum to 1.

Usage: python .github/compare_summaries.py ONE TWO [--rounds N --replications R]
"""
import argparse
import json
import sys

SHOWN_PATHS = 10


def load(path):
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.pop("wall_clock_seconds")
    return summary


def differences(one, two, path="$"):
    """Key path of every value at which two JSON documents differ, in the first one's order."""
    if isinstance(one, dict) and isinstance(two, dict):
        for key in [*one, *(key for key in two if key not in one)]:
            if key in one and key in two:
                yield from differences(one[key], two[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}"
    elif isinstance(one, list) and isinstance(two, list) and len(one) == len(two):
        for i, (a, b) in enumerate(zip(one, two)):
            yield from differences(a, b, f"{path}[{i}]")
    elif one != two:
        yield path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("one")
    parser.add_argument("two")
    parser.add_argument("--rounds", type=int, help="rounds per replication the run must report")
    parser.add_argument("--replications", type=int, default=1, help="replications merged into each grid point")
    args = parser.parse_args()
    one, two = load(args.one), load(args.two)
    if one != two:
        paths = list(differences(one, two))
        sys.exit(f"{args.one} and {args.two} differ beyond wall_clock_seconds at {len(paths)} paths: "
                 + ", ".join(paths[:SHOWN_PATHS]) + (", ..." if len(paths) > SHOWN_PATHS else ""))
    if args.rounds is not None:
        merged = one["grid"][0]["merged"]
        if (one["rounds"], merged["rounds"]) != (args.rounds, args.rounds * args.replications):
            sys.exit(f"rounds {one['rounds']} and merged rounds {merged['rounds']}, "
                     f"expected {args.rounds} and {args.rounds * args.replications}")
        if abs(sum(merged["win_fraction"]) - 1.0) >= 1e-9:
            sys.exit(f"merged win fractions {merged['win_fraction']} do not sum to 1")


if __name__ == "__main__":
    main()
