"""In-memory spans around poolsim's public functions, for the traced run.

The tracer replaces module attributes with timing wrappers while it is
active and restores them on exit, so untraced runs execute unmodified code.
A span is (name, start, end, parent, run id); spans live in flat arrays until
`save` writes them. A span's self time is its duration minus the durations of
its direct children: the traced run is single-threaded, so children never
overlap.

Every wrapped call crosses a layer boundary of the package. `tree` runs
inside `run_round` and is counted with the engine; see NOTES.md.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from poolsim import cli, metrics, pipeline
from poolsim.metrics import EstimatorBank

# (owner, attribute, span name). One function reached through several
# modules' globals gets one span name.
TARGETS = (
    (cli, "run_experiment", "cli.run_experiment"),
    (metrics, "find_power_threshold", "metrics.find_power_threshold"),
    (metrics, "win_fraction_run", "metrics.win_fraction_run"),
    (metrics, "run_round", "engine.run_round"),
    (pipeline, "run_round", "engine.run_round"),
    (metrics, "MiningClock", "engine.MiningClock"),
    (pipeline, "MiningClock", "engine.MiningClock"),
    (cli, "simulate_rounds", "pipeline.simulate_rounds"),
    (pipeline, "simulate_rounds", "pipeline.simulate_rounds"),
    (pipeline, "determine_nephew", "classify.determine_nephew"),
    (pipeline, "find_uncles", "classify.find_uncles"),
    (pipeline, "classify_round", "classify.classify_round"),
    (pipeline, "round_ratios", "classify.round_ratios"),
    (pipeline, "allocate", "rewards.allocate"),
    (EstimatorBank, "update", "metrics.update"),
    (EstimatorBank, "merge", "metrics.merge"),
    (EstimatorBank, "summary", "metrics.summary"),
)

CLASSIFY = ("classify.determine_nephew", "classify.find_uncles", "classify.classify_round", "classify.round_ratios")


def _count_round(counts, outcome):
    counts["events"] += outcome.events
    counts["reserving"] += outcome.reserved > 0


def _count_uncles(counts, classification):
    counts["uncles"] += classification.uncle_count


COUNTERS = {"engine.run_round": _count_round, "classify.classify_round": _count_uncles}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("I")
        self.run_id = 0
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """fn, timed as one span per call under `name`."""
        nid = self._id(name)
        count = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def __enter__(self):
        self.run_id += 1
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def self_times_ns(self):
        """Total self time per span name, in nanoseconds; 0 for names never called."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        totals = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        self_ns = Counter({name: float(totals[i]) for i, name in enumerate(self.names)})
        call_count = Counter({name: int(calls[i]) for i, name in enumerate(self.names)})
        return self_ns, call_count

    def clock_setup_us(self):
        """Median MiningClock construction time; 0 if no clock was built."""
        nid = self._ids.get("engine.MiningClock")
        if nid is None:
            return 0.0
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        mine = dur[names == nid]
        return float(np.median(mine)) / 1e3 if mine.size else 0.0

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run_id=np.frombuffer(self.run, dtype=np.uint32),
        )


def layer_metrics(tracer, units):
    """Per-layer metrics from all traced units; `units` is how many ran."""
    self_ns, calls = tracer.self_times_ns()
    rounds = calls["engine.run_round"]
    per_round = 1e-3 / rounds if rounds else 0.0  # ns total -> us per round
    per_unit = 1e-6 / units  # ns total -> ms per unit
    events = tracer.counts["events"]
    classify_calls = calls["classify.classify_round"]
    return {
        "engine.us_per_round": (self_ns["engine.run_round"] * per_round, "us"),
        "engine.us_per_event": (self_ns["engine.run_round"] * 1e-3 / events if events else 0.0, "us"),
        "engine.events_per_round": (events / rounds if rounds else 0.0, "count"),
        "engine.reserve_share": (tracer.counts["reserving"] / rounds if rounds else 0.0, "share"),
        "engine.clock_setup_us": (tracer.clock_setup_us(), "us"),
        "classify.calls": (classify_calls, "count"),
        "classify.us_per_round": (sum(self_ns[n] for n in CLASSIFY) * per_round, "us"),
        "classify.uncles_per_round": (
            tracer.counts["uncles"] / classify_calls if classify_calls else 0.0, "count"),
        "rewards.calls": (calls["rewards.allocate"], "count"),
        "rewards.us_per_round": (self_ns["rewards.allocate"] * per_round, "us"),
        "metrics.update_calls": (calls["metrics.update"], "count"),
        "metrics.update_us_per_round": (self_ns["metrics.update"] * per_round, "us"),
        "metrics.merge_summary_ms": ((self_ns["metrics.merge"] + self_ns["metrics.summary"]) * per_unit, "ms"),
        "metrics.win_only_self_us_per_round": (self_ns["metrics.win_fraction_run"] * per_round, "us"),
        "pipeline.self_us_per_round": (self_ns["pipeline.simulate_rounds"] * per_round, "us"),
        "bench.on_record_us_per_round": (self_ns["bench.on_record"] * per_round, "us"),
        "cli.output_ms": (self_ns["cli.run_experiment"] * per_unit, "ms"),
    }
