"""Set-up probe: a fresh interpreter runs one workload's first round.

It imports poolsim, builds the workload's config, seeds a clock, starts the
workload's process pool if it has one, plays one round (in every worker) and
prints the system-wide monotonic clock. The caller reads the clock before
starting the interpreter, so the difference is the set-up time.

Usage: python3 perfbench/setup_probe.py <workload> <workers>
"""
import os
import sys
import time


def main():
    name, workers = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.make(name).first_round(workers)
    print(repr(time.monotonic()), flush=True)


if __name__ == "__main__":
    main()
