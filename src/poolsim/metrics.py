"""Streaming estimators over simulated rounds.

An EstimatorBank takes in buffers of closed rounds and keeps the
renewal-reward table the long-run analysis reads: one row per winner, with
its win count, the round geometry, pegged blocks, booked reward units per
pool, nephew and uncle event counts per holder, and the per-round ratios,
each summed over the rounds that winner won, plus the duration and ratio
totals over all rounds. Each is a bincount of a buffer's 1-D columns over
winner or (winner, pool) cells. Integer samples are summed exactly, so their
means are one correctly rounded division; durations and ratios are float
sums. Banks from different workers merge exactly on the integer totals and
to rounding on the float ones, so results cannot depend on scheduling.

Long-run rates come out two ways on purpose, as one Estimate pair: a direct
estimate (sample mean of per-round totals over mean duration) and the
renewal decomposition E[X] = sum over winners w of P(w) E[X | w], which one
rule reads off the table's rows for growth, rewards and ratios alike. The
two agree up to floating point; both are reported so the consistency is
observable.
"""
from __future__ import annotations

import math
import operator
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .classify import UNITS_PER_BLOCK, Ratios, ratio_floats, ratio_numerators, uncle_units
# MiningClock and run_round are not called here; the benchmark's tracer
# patches them in this module, so they stay importable from it.
from .engine import (  # noqa: F401
    ALPHA_SLACK, HONEST, LaneDraws, MiningClock, SimConfig, lane_blocks, prefix_table, round_columns, run_round,
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
    """Elementwise sum of two numbers, lists of numbers or lists of lists of numbers."""
    if isinstance(total, list) and isinstance(total[0], list):
        return [list(map(operator.add, t, p)) for t, p in zip(total, part)]
    return list(map(operator.add, total, part)) if isinstance(total, list) else total + part


class EstimatorBank:
    """Mergeable totals over the closed rounds of one simulation configuration.

    The bank is the renewal-reward table: one row per winner w, one column
    per quantity X, each cell the total of X over the rounds w won. Integer
    samples (win and event counts, lengths, pegged counts, reward units) are
    kept as exact integer totals, so their means are exact up to one final
    division; durations and the five ratios are float totals. Per-pool lists
    are indexed by pool, tables by (winner, pool).
    """

    # Every accumulator, in merge order; each is a total over closed rounds.
    TOTALS = (
        "rounds", "win_counts", "fork_pos_total", "length_total", "released_total", "pegged_by_winner",
        "reward_by_winner", "nephew_count", "uncle_count", "duration_total", "ratio_total", "ratio_by_winner",
    )

    def __init__(self, num_dishonest: int):
        if num_dishonest < 1:
            raise ValueError("need at least one dishonest pool")
        n = num_dishonest + 1
        self.num_pools = n
        self.rounds = 0
        self.win_counts = [0] * n
        # Winner's fork position, own chain length (the honest length on an
        # honest win), released and pegged blocks, summed over its wins.
        self.fork_pos_total = [0] * n
        self.length_total = [0] * n
        self.released_total = [0] * n
        self.pegged_by_winner = [0] * n
        # Booked units of 1/32, [winner][pool]: regular, uncle and nephew units alike.
        self.reward_by_winner = [[0] * n for _ in range(n)]
        # (winner, holder) event counts: holder owned the round's first block,
        # the previous round's nephew / had an uncle among the round's orphans.
        self.nephew_count = [[0] * n for _ in range(n)]
        self.uncle_count = [[0] * n for _ in range(n)]
        self.duration_total = 0.0
        self.ratio_total = [0.0] * len(RATIO_NAMES)
        self.ratio_by_winner = [[0.0] * len(RATIO_NAMES) for _ in range(n)]

    @property
    def num_dishonest(self) -> int:
        return self.num_pools - 1

    @property
    def pegged_total(self) -> int:
        return sum(self.pegged_by_winner)

    @property
    def reward_units(self) -> List[int]:
        """Booked units of 1/32 per pool, over all winners."""
        return [sum(column) for column in zip(*self.reward_by_winner)]

    def add(self, closed: ClosedRounds) -> None:
        """Take in a buffer of closed rounds. Every total is a bincount of
        1-D columns over winner cells or (winner, pool) cells; integer sums
        come back exact, as no buffer's come near 2 ** 53."""
        rounds, n = closed.rounds, self.num_pools
        winner, released = rounds.winner, rounds.released

        def total(weights, cells=winner, size=n):
            return np.bincount(cells, weights, size).astype(np.int64)

        pegged, released_by_winner = total(rounds.pegged), total(released)
        # The honest pool's main-chain blocks (its length when it won, else
        # the winner's fork) and a dishonest winner's own blocks.
        honest_main, own = pegged - released_by_winner, total(released + rounds.reserved)
        nephew_cells = winner * n + rounds.first_owner
        # (winner, pool, uncle distance) counts, a pool's column at a time; distance 0 is no uncle.
        reach = int(closed.uncle_distance.max()) + 1
        uncles = np.stack([
            np.bincount(winner * reach + far, minlength=n * reach).reshape(n, reach) for far in closed.uncle_distance.T
        ], axis=1)[:, :, 1:]
        # Units booked, by winner: a round's first owner collects one nephew unit per uncle of the
        # round before, each uncle pays its owner by distance, the honest pool is paid its main-chain
        # blocks and a dishonest winner its released ones.
        nephew_units = total(closed.prev_uncle_count, nephew_cells, n * n).reshape(n, n)
        reward = nephew_units + uncles @ uncle_units(np.arange(1, reach))
        reward[:, HONEST] += UNITS_PER_BLOCK * honest_main
        reward.reshape(-1)[:: n + 1] += UNITS_PER_BLOCK * released_by_winner  # the diagonal
        ratios = ratio_floats(*ratio_numerators(rounds.pegged, closed.orphan, released, closed.uncle_count))
        part = {
            "rounds": len(winner),
            "win_counts": np.bincount(winner, minlength=n),
            "fork_pos_total": np.append(0, honest_main[1:]),
            "length_total": np.append(honest_main[0], own[1:]),
            "released_total": released_by_winner,
            "pegged_by_winner": pegged,
            "reward_by_winner": reward,
            "nephew_count": np.bincount(nephew_cells, minlength=n * n).reshape(n, n),
            "uncle_count": uncles.sum(axis=2),
            "duration_total": closed.duration.sum(),
            "ratio_total": np.array([r.sum() for r in ratios]),
            "ratio_by_winner": np.stack([np.bincount(winner, r, n) for r in ratios], axis=1),
        }
        for name in self.TOTALS:
            setattr(self, name, _add(getattr(self, name), np.asarray(part[name]).tolist()))

    def update(self, record: RoundRecord) -> None:
        """Take in one closed round's record; the one-row case of add. The
        round closes again from its outcome, its duration, its nephew's
        owner (None when the nephew is reserved) and the nephew units booked
        to its first owner, which are the previous round's uncle count."""
        outcome, nephew = record.outcome, record.classification.nephew
        self.add(close_columns(
            round_columns([outcome]),
            np.array([record.duration]),
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
        by the winner's round count."""
        self._require_data()

        def over(bases: List[int]) -> List[List[float]]:
            return [[count / base if base else 0.0 for count in row] for row, base in zip(table, bases)]

        return {"joint": over([self.rounds] * self.num_pools), "conditional": over(self.win_counts)}

    def conditional_mean(self, totals: List[int], winner: int) -> Optional[float]:
        """Mean of a winner-conditional total over that winner's rounds; None
        if it never won."""
        wins = self.win_counts[winner]
        return totals[winner] / wins if wins else None

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

    def _decomposed(self, by_winner: Sequence[float]) -> float:
        """Mean of a per-round X through the round's winner, from its totals
        T_w over the rounds each winner w won: the sum of wins_w * E[X | w],
        with E[X | w] = T_w / wins_w, over the winners that won, over all
        rounds."""
        total = 0.0
        for wins, given in zip(self.win_counts, by_winner):
            if wins:
                total += wins * (given / wins)
        return total / self.rounds

    def growth_rate(self) -> Estimate:
        """Long-run pegged blocks per second."""
        mean_duration = self.duration_mean()
        return Estimate(self.pegged_mean() / mean_duration, self._decomposed(self.pegged_by_winner) / mean_duration)

    def reward_rates(self) -> Estimate:
        """Long-run reward per second for every pool, as tuples over the pools."""
        mean_duration = self.duration_mean()
        return Estimate(
            tuple(mean / mean_duration for mean in self.reward_means()),
            tuple(self._decomposed(units) / (UNITS_PER_BLOCK * mean_duration) for units in zip(*self.reward_by_winner)),
        )

    def ratio_averages(self) -> Dict[str, Estimate]:
        """Means of the per-round ratios, by name; on the same data the two
        estimators agree to float tolerance."""
        self._require_data()
        return {
            name: Estimate(total / self.rounds, self._decomposed(by_winner))
            for name, total, by_winner in zip(RATIO_NAMES, self.ratio_total, zip(*self.ratio_by_winner))
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
    run here. Every grid config's prefix table is built here first, so
    forked workers share it rather than each build it again.
    """
    if len(alpha_grid) < 2:
        raise ValueError("alpha_grid needs at least two points")
    if replications < 1 or rounds_per_run < 1:
        raise ValueError(f"need at least one replication and one round, got {replications} and {rounds_per_run}")
    grid = tuple(float(a) for a in alpha_grid)
    configs = [grid_config(base_config, alpha) for alpha in grid]
    for config in configs:
        prefix_table(config)

    def task(config: SimConfig, seed, grid_idx: int, rep_idx: int) -> Tuple[float, ...]:
        return win_fraction_run(config, rounds_per_run, seed)

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
