"""Streaming estimators over simulated rounds.

An EstimatorBank takes in buffers of closed rounds and keeps totals of
everything the long-run analysis needs: win counts per pool, the round
geometry summed per winner, the per-round ratios, round duration and
pegged-block count, booked rewards per pool, and the (winner, holder)
counting tables for nephew and uncle events. Integer samples are summed
exactly, so their means are one correctly rounded division; durations and
ratios are float sums. Banks from different workers merge exactly on the
integer totals and to rounding on the float ones, so results cannot depend
on scheduling.

Long-run rates come out two ways on purpose, as one Estimate pair: a direct
estimate (sample mean of per-round totals over mean duration) and the
renewal decomposition E[X] = sum over winners w of P(w) E[X | w], which one
method computes for growth, rewards and ratios alike. The two agree up to
floating point; both are reported so the consistency is observable.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .classify import UNITS_PER_BLOCK, Ratios, ratio_floats, ratio_numerators
# MiningClock and run_round are not called here; the benchmark's tracer
# patches them in this module, so they stay importable from it.
from .engine import (  # noqa: F401
    ALPHA_SLACK, HONEST, LaneDraws, MiningClock, SimConfig, lane_blocks, round_columns, run_round,
)
from .rewards import ClosedRounds, close_columns

if TYPE_CHECKING:
    from .pipeline import RoundRecord

Z_95 = 1.959963984540054

RATIO_NAMES = Ratios._fields


class NoData(RuntimeError):
    """Asked a bank with zero rounds for an estimate."""


class MergeShapeError(ValueError):
    """Tried to merge banks built for different pool counts."""


class NoCrossing(RuntimeError):
    """The win-probability curves do not cross on the given grid."""


class WorkerDied(RuntimeError):
    """A run_grid worker ended without reporting a result."""


def ci95(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """Normal-approximation 95% interval of the sample mean as a (low, high)
    pair. An interval needs two values, so with one value there is none."""
    n = len(values)
    if n == 0:
        raise NoData("no values")
    if n < 2:
        return None
    mean = sum(values) / n
    var = sum((x - mean) ** 2 for x in values) / (n - 1)
    half = Z_95 * math.sqrt(var / n)
    return mean - half, mean + half


class Estimate(NamedTuple):
    """A long-run quantity by both estimators: direct, from totals over all
    rounds, and through the decomposition over the round's winner."""

    direct: Any
    decomposition: Any


def _add(total, part):
    """Elementwise sum of two equally nested lists of numbers."""
    if isinstance(total, list):
        return [_add(t, p) for t, p in zip(total, part)]
    return total + part


def _mean(total, count: int, default=None):
    """total / count, or default when nothing was counted."""
    return total / count if count else default


class EstimatorBank:
    """Mergeable totals over the closed rounds of one simulation configuration.

    Integer samples (win and event counts, lengths, pegged counts, reward
    units) are kept as exact integer totals, so their means are exact up to
    one final division; durations and the five ratios are float totals.
    Per-pool lists are indexed by pool, tables by (winner, pool).
    """

    # Every accumulator, in merge order; each is a total over closed rounds.
    TOTALS = (
        "rounds", "win_counts", "fork_pos_total", "length_total", "released_total",
        "pegged_total", "reward_units", "nephew_count", "nephew_units",
        "uncle_count", "uncle_units", "duration_total", "ratio_total", "ratio_by_winner",
    )

    def __init__(self, num_dishonest: int):
        if num_dishonest < 1:
            raise ValueError("need at least one dishonest pool")
        n = num_dishonest + 1
        self.num_pools = n
        self.rounds = 0
        self.win_counts = [0] * n
        # Winner's fork position, own chain length (the honest length on an
        # honest win) and pegged own blocks, summed over its wins.
        self.fork_pos_total = [0] * n
        self.length_total = [0] * n
        self.released_total = [0] * n
        self.pegged_total = 0
        self.reward_units = [0] * n  # booked units of 1/32
        # (winner, holder) event tables: holder owned the round's first block,
        # the previous round's nephew / had an uncle among the round's
        # orphans; with the units booked for them.
        self.nephew_count = [[0] * n for _ in range(n)]
        self.nephew_units = [[0] * n for _ in range(n)]
        self.uncle_count = [[0] * n for _ in range(n)]
        self.uncle_units = [[0] * n for _ in range(n)]
        self.duration_total = 0.0
        self.ratio_total = [0.0] * len(RATIO_NAMES)
        self.ratio_by_winner = [[0.0] * len(RATIO_NAMES) for _ in range(n)]

    @property
    def num_dishonest(self) -> int:
        return self.num_pools - 1

    def add(self, closed: ClosedRounds) -> None:
        """Take in a buffer of closed rounds."""
        rounds = closed.rounds
        pools = np.eye(self.num_pools, dtype=np.int64)
        won = pools[rounds.winner]  # one-hot winner per round
        by_winner = won.T
        ratios = ratio_floats(*ratio_numerators(rounds.pegged, closed.orphan, rounds.released, closed.uncle_count))
        part = {
            "rounds": len(rounds.winner),
            "win_counts": won.sum(axis=0),
            "fork_pos_total": (won * rounds.fork_pos).sum(axis=0),
            "length_total": (won * rounds.length).sum(axis=0),
            "released_total": by_winner @ rounds.released,
            "pegged_total": rounds.pegged.sum(),
            "reward_units": (closed.regular_units + closed.uncle_units + closed.nephew_units).sum(axis=0),
            "nephew_count": by_winner @ pools[rounds.first_owner],
            "nephew_units": by_winner @ closed.nephew_units,
            "uncle_count": by_winner @ (closed.uncle_distance > 0),
            "uncle_units": by_winner @ closed.uncle_units,
            "duration_total": rounds.duration.sum(),
            "ratio_total": np.array([r.sum() for r in ratios]),
            "ratio_by_winner": np.stack(
                [np.bincount(rounds.winner, weights=r, minlength=self.num_pools) for r in ratios], axis=1
            ),
        }
        for name in self.TOTALS:
            setattr(self, name, _add(getattr(self, name), np.asarray(part[name]).tolist()))

    def update(self, record: RoundRecord) -> None:
        """Take in one closed round's record; the one-row case of add. The
        round closes again from its outcome, its nephew's owner (None when
        the nephew is reserved) and the nephew units booked to its first
        owner, which are the previous round's uncle count."""
        outcome, nephew = record.outcome, record.classification.nephew
        self.add(close_columns(
            round_columns([outcome]),
            None if nephew.from_reserve else nephew.owner,
            record.rewards.per_pool[outcome.first_owner].nephew_units,
        ))

    # -- merging -----------------------------------------------------------

    def merge(self, other: "EstimatorBank") -> "EstimatorBank":
        """New bank equal to taking in both inputs' rounds, in any order."""
        if self.num_pools != other.num_pools:
            raise MergeShapeError(f"cannot merge banks with {self.num_pools} and {other.num_pools} pools")
        out = EstimatorBank(self.num_dishonest)
        for name in self.TOTALS:
            setattr(out, name, _add(getattr(self, name), getattr(other, name)))
        return out

    # -- estimates ---------------------------------------------------------

    def _require_data(self) -> None:
        if self.rounds == 0:
            raise NoData("bank has no rounds")

    def win_fractions(self) -> Tuple[float, ...]:
        self._require_data()
        return tuple(c / self.rounds for c in self.win_counts)

    def event_rates(self, table: List[List[int]]) -> Dict[str, List[List[float]]]:
        """Frequencies of a (winner, holder) event table, such as nephew_count
        or uncle_count: joint rates divide by all rounds, conditional rates
        by the winner's round count (what the rate decompositions need)."""
        self._require_data()

        def over(bases: List[int]) -> List[List[float]]:
            return [[count / base if base else 0.0 for count in row] for row, base in zip(table, bases)]

        return {"joint": over([self.rounds] * self.num_pools), "conditional": over(self.win_counts)}

    def conditional_mean(self, totals: List[int], winner: int) -> Optional[float]:
        """Mean of a winner-conditional total over that winner's rounds; None
        if it never won."""
        return _mean(totals[winner], self.win_counts[winner])

    def duration_mean(self) -> float:
        self._require_data()
        return self.duration_total / self.rounds

    def pegged_mean(self) -> float:
        self._require_data()
        return self.pegged_total / self.rounds

    def reward_means(self) -> Tuple[float, ...]:
        """Mean booked reward per round for every pool, in blocks."""
        self._require_data()
        return tuple(units / (UNITS_PER_BLOCK * self.rounds) for units in self.reward_units)

    def _decomposed(self, given_winner: Callable[[int], float]) -> float:
        """Mean of a per-round X through the round's winner: the sum of
        wins_w * E[X | w] over the winners w that won, over all rounds.
        given_winner(w) is E[X | w]."""
        total = 0.0
        for w, wins in enumerate(self.win_counts):
            if wins:
                total += wins * given_winner(w)
        return total / self.rounds

    def _pegged_given(self, w: int) -> float:
        """Mean pegged blocks of the rounds w won: the honest length, or a
        dishonest winner's fork position plus its released blocks."""
        if w == HONEST:
            return self.conditional_mean(self.length_total, w)
        return self.conditional_mean(self.fork_pos_total, w) + self.conditional_mean(self.released_total, w)

    def _reward_given(self, pool: int, w: int) -> float:
        """Mean reward of one pool, in blocks, over the rounds w won."""
        wins = self.win_counts[w]
        if pool == HONEST:
            base = self.conditional_mean(self.length_total if w == HONEST else self.fork_pos_total, w)
        elif w == pool:
            base = self.conditional_mean(self.released_total, w)
        else:
            base = 0.0
        # Event rate times the mean reward given the event, per table.
        nephew, uncle = (
            (count[w][pool] / wins) * _mean(units[w][pool], UNITS_PER_BLOCK * count[w][pool], 0.0)
            for count, units in ((self.nephew_count, self.nephew_units), (self.uncle_count, self.uncle_units))
        )
        return base + nephew + uncle

    def growth_rate(self) -> Estimate:
        """Long-run pegged blocks per second."""
        mean_duration = self.duration_mean()
        return Estimate(self.pegged_mean() / mean_duration, self._decomposed(self._pegged_given) / mean_duration)

    def reward_rates(self) -> Estimate:
        """Long-run reward per second for every pool, as tuples over the pools."""
        mean_duration = self.duration_mean()
        return Estimate(
            tuple(mean / mean_duration for mean in self.reward_means()),
            tuple(self._decomposed(partial(self._reward_given, p)) / mean_duration for p in range(self.num_pools)),
        )

    def ratio_averages(self) -> Dict[str, Estimate]:
        """Means of the per-round ratios, by name; on the same data the two
        estimators agree to float tolerance."""
        self._require_data()
        return {
            name: Estimate(
                self.ratio_total[k] / self.rounds,
                self._decomposed(lambda w: self.ratio_by_winner[w][k] / self.win_counts[w]),
            )
            for k, name in enumerate(RATIO_NAMES)
        }

    def summary(self) -> dict:
        """Plain-type snapshot of every estimate, for JSON serialization."""
        self._require_data()
        dishonest = range(1, self.num_pools)
        return {
            "rounds": self.rounds,
            "win_fraction": list(self.win_fractions()),
            "conditional_means": {
                "honest_length": self.conditional_mean(self.length_total, HONEST),
                "fork_position": [None] + [self.conditional_mean(self.fork_pos_total, p) for p in dishonest],
                "length": [None] + [self.conditional_mean(self.length_total, p) for p in dishonest],
                "released": [None] + [self.conditional_mean(self.released_total, p) for p in dishonest],
            },
            "ratios": {name: both._asdict() for name, both in self.ratio_averages().items()},
            "duration_mean": self.duration_mean(),
            "pegged_mean": self.pegged_mean(),
            "growth_rate": self.growth_rate()._asdict(),
            "reward_mean": list(self.reward_means()),
            "reward_rate": {kind: list(rates) for kind, rates in self.reward_rates()._asdict().items()},
            "nephew_rate": self.event_rates(self.nephew_count),
            "uncle_rate": self.event_rates(self.uncle_count),
        }


# -- mining power threshold --------------------------------------------------


@dataclass(frozen=True)
class ThresholdEstimate:
    alpha_star: float  # crossing of the replication-averaged curves
    ci95: Optional[Tuple[float, float]]  # from the spread of per-replication crossings; None for fewer than two
    crossings: Tuple[float, ...]  # one interpolated crossing per replication
    grid: Tuple[float, ...]
    mean_p_honest: Tuple[float, ...]
    mean_p_first: Tuple[float, ...]
    skipped: int  # replications whose curves never crossed on the grid


def interpolate_crossing(grid: Sequence[float], diff: Sequence[float]) -> Optional[float]:
    """First zero of a piecewise-linear curve through (grid, diff), if any."""
    for a in range(len(grid) - 1):
        ga, gb = diff[a], diff[a + 1]
        if ga == 0.0:
            return grid[a]
        if (ga > 0.0) != (gb > 0.0):
            return grid[a] + (grid[a + 1] - grid[a]) * ga / (ga - gb)
    if diff and diff[-1] == 0.0:
        return grid[-1]
    return None


def grid_config(base: SimConfig, alpha_honest: float) -> SimConfig:
    """Config with the honest power set and the remainder given to pool 1.

    Every other field, the fork rule included, is carried over from base.
    Float dust below zero in pool 1's remainder is clamped to 0.
    """
    fixed = sum(base.alphas[2:])
    alpha_first = 1.0 - alpha_honest - fixed
    if alpha_first < -ALPHA_SLACK:
        raise ValueError(
            f"grid point {alpha_honest} leaves pool 1 with negative power {alpha_first:.4f}"
        )
    alphas = (alpha_honest, max(alpha_first, 0.0)) + base.alphas[2:]
    return replace(base, alphas=alphas)


def win_fraction_run(config: SimConfig, rounds: int, seed) -> Tuple[float, ...]:
    """Fraction of rounds each pool wins over one seeded run.

    Fast path for probability-only experiments: a win-only close of the lane
    engine, which counts each block's winners and skips classification and
    reward booking, neither of which can change who wins. It plays the same
    blocks on the same stream as simulate_rounds(config, rounds, seed=seed),
    so the two agree on every winner.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    counts = np.zeros(len(config.alphas), dtype=np.int64)
    for block in lane_blocks(config, rounds, LaneDraws(config, seed)):
        counts += np.bincount(block.winner, minlength=len(counts))
    return tuple(c / rounds for c in counts.tolist())


def replication_seed(master_seed: int, grid_idx: int, rep_idx: int) -> np.random.SeedSequence:
    """Child seed of one (grid point, replication) pair of a master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(grid_idx, rep_idx))


def run_grid(
    task: Callable, points: Sequence, replications: int, master_seed: int, workers: Optional[int] = None
) -> List[list]:
    """results[g][r] = task(points[g], seed, g, r) for every grid point g and
    replication r, where seed is replication_seed(master_seed, g, r).

    The calls are ordered grid point first. With n = min(workers, calls) > 1
    on a platform with os.fork, n forked children share them: child k runs
    calls k, k + n, k + 2n, ... in order, so with two replications and two
    workers each child runs one replication of every point. The parent runs
    no call itself. Children inherit task and points, so only results must
    pickle; each child sends its results back through its own pipe, and the
    parent reaps every child before it returns or raises. A task's exception
    is raised here with its type, or as a RuntimeError carrying the child's
    traceback when it does not pickle; a child that ends without a result
    raises WorkerDied. Otherwise, and with one worker, the calls run here.
    Every call has its own seed, so results match for any worker count.
    """
    calls = [
        (point, replication_seed(master_seed, g, r), g, r)
        for g, point in enumerate(points)
        for r in range(replications)
    ]
    n = min(workers or 1, len(calls)) if hasattr(os, "fork") else 1
    flat = _forked_calls(task, calls, n) if n > 1 else [task(*call) for call in calls]
    return [flat[g * replications:(g + 1) * replications] for g in range(len(points))]


def _forked_calls(task: Callable, calls: list, n: int) -> list:
    """task(*call) for every call, in call order, from n forked children."""
    pids: Dict[int, int] = {}  # child -> pid, until reaped
    pipes: Dict[int, int] = {}  # child -> read end, until read
    _flush_std_streams()  # so no child writes the parent's buffered output again
    try:
        for k in range(n):
            pipes[k], write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(task, calls[k::n], write_end, list(pipes.values()))
            finally:
                os.close(write_end)
            pids[k] = pid
        flat = [None] * len(calls)
        for k in range(n):
            with open(pipes[k], "rb", closefd=False) as reader:
                data = reader.read()
            os.close(pipes.pop(k))
            _, status = os.waitpid(pids[k], 0)
            del pids[k]
            flat[k::n] = _share_results(k, data, status)
        return flat
    finally:
        # On an early exit, a child not yet read may still be running or
        # blocked on a full pipe: close the pipe and kill it before reaping.
        for k, read_end in pipes.items():
            os.close(read_end)
            if k in pids:
                os.kill(pids[k], signal.SIGKILL)
        for pid in pids.values():
            os.waitpid(pid, 0)


def _run_share(task: Callable, calls: list, write_end: int, read_ends: List[int]) -> NoReturn:
    """A child's whole life: run its calls, write one pickle, (True, results)
    or (False, (pickled exception or None, traceback text)), and leave by
    os._exit, so it never returns into the caller's frames. It first closes
    the read ends it inherited, so if the parent dies, a write to the full
    pipe fails rather than blocking for ever."""
    code = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        try:
            payload = pickle.dumps((True, [task(*call) for call in calls]))
        except BaseException as exc:  # reported to the parent, which raises it
            text = traceback.format_exc()
            try:
                pickled = pickle.dumps(exc)
            except Exception:
                pickled = None
            payload = pickle.dumps((False, (pickled, text)))
        with os.fdopen(write_end, "wb") as writer:
            writer.write(payload)
        _flush_std_streams()  # os._exit does not
        code = 0
    finally:
        os._exit(code)


def _flush_std_streams() -> None:
    """Write out what sys.stdout and sys.stderr hold, where they can take it."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):  # no stream, a closed one, or a broken pipe
            pass


def _share_results(k: int, data: bytes, status: int) -> list:
    """Child k's results from what it wrote, or what it raised, raised here."""
    try:
        ok, value = pickle.loads(data)
    except Exception:  # nothing, or cut short: the child died before it finished writing
        code = os.waitstatus_to_exitcode(status)
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise WorkerDied(f"run_grid worker {k} ended without a result ({how})") from None
    if ok:
        return value
    pickled, text = value
    try:
        exc = pickle.loads(pickled)
    except Exception:  # None, or an exception class that cannot be rebuilt from its pickle
        raise RuntimeError(f"run_grid worker {k} failed:\n{text}") from None
    raise exc from RuntimeError(f"in run_grid worker {k}:\n{text}")


def _threshold_task(config: SimConfig, seed, grid_idx: int, rep_idx: int, rounds: int) -> Tuple[float, ...]:
    """run_grid task of the threshold search: one replication's win fractions
    at one grid point's config, on that replication's seed."""
    return win_fraction_run(config, rounds, seed)


def find_power_threshold(
    base_config: SimConfig,
    alpha_grid: Sequence[float],
    replications: int,
    rounds_per_run: int,
    master_seed: int = 0,
    workers: Optional[int] = None,
) -> ThresholdEstimate:
    """Honest power at which pool 1 wins rounds as often as the honest pool.

    Sweeps the honest power over alpha_grid, giving pool 1 the leftover
    power (pools 2..m keep base_config's values). Each grid point is run
    `replications` times with child seeds of master_seed; the crossing of
    the averaged win-probability curves is located by linear interpolation,
    and the 95% interval comes from the per-replication crossings. With
    workers > 1 the runs go to forked workers (run_grid); by default they
    run here.
    """
    if len(alpha_grid) < 2:
        raise ValueError("alpha_grid needs at least two points")
    if replications < 1 or rounds_per_run < 1:
        raise ValueError(f"need at least one replication and one round, got {replications} and {rounds_per_run}")
    grid = tuple(float(a) for a in alpha_grid)
    configs = [grid_config(base_config, alpha) for alpha in grid]
    task = partial(_threshold_task, rounds=rounds_per_run)
    fractions = run_grid(task, configs, replications, master_seed, workers)
    p_honest = [[f[HONEST] for f in reps] for reps in fractions]
    p_first = [[f[1] for f in reps] for reps in fractions]
    return crossing_estimate(grid, p_honest, p_first)


def crossing_estimate(
    grid: Sequence[float],
    p_honest: Sequence[Sequence[float]],
    p_first: Sequence[Sequence[float]],
) -> ThresholdEstimate:
    """Crossing of pool 1's and the honest pool's win curves over a grid,
    from replication r's win fractions p_honest[g][r], p_first[g][r] at each
    grid point g: alpha_star from the averaged curves, the interval from the
    per-replication crossings."""
    grid = tuple(grid)
    replications = len(p_honest[0])
    crossings = []
    skipped = 0
    for r in range(replications):
        diff = [p_first[g][r] - p_honest[g][r] for g in range(len(grid))]
        crossing = interpolate_crossing(grid, diff)
        if crossing is None:
            skipped += 1
        else:
            crossings.append(crossing)

    mean_h = tuple(sum(col) / replications for col in p_honest)
    mean_f = tuple(sum(col) / replications for col in p_first)
    alpha_star = interpolate_crossing(grid, [f - h for f, h in zip(mean_f, mean_h)])
    if alpha_star is None or not crossings:
        raise NoCrossing(f"win-probability curves do not cross on grid {grid}")

    return ThresholdEstimate(
        alpha_star=alpha_star,
        ci95=ci95(crossings),
        crossings=tuple(crossings),
        grid=grid,
        mean_p_honest=mean_h,
        mean_p_first=mean_f,
        skipped=skipped,
    )
