"""Streaming estimators over simulated rounds.

An EstimatorBank ingests one closed round at a time and tracks everything
the long-run analysis needs: win frequencies per pool, conditional means of
the round geometry given the winner, running means of the per-round ratios,
mean round duration and pegged-block count, booked rewards per pool, and
the (winner, holder) counting tables for nephew and uncle events. Banks from
different workers merge exactly on counters and to float tolerance on means,
so results cannot depend on scheduling.

Long-run rates come out two ways on purpose: a direct estimate (sample mean
of per-round totals over mean duration) and a decomposition through the win
frequencies and conditional means. The two agree up to floating point; both
are reported so the consistency is observable.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classify import UNITS_PER_BLOCK, Classification, RoundRatios
from .engine import Carryover, MiningClock, PoolSpec, RoundOutcome, SimConfig, make_carryover, run_round
from .rewards import RewardVector
from .tree import HONEST

Z_95 = 1.959963984540054

RATIO_NAMES = ("chain_quality", "main_chain", "orphan", "uncle", "stale")


class NoData(RuntimeError):
    """Asked a bank with zero rounds for an estimate."""


class MergeShapeError(ValueError):
    """Tried to merge banks built for different pool counts."""


class NoCrossing(RuntimeError):
    """The win-probability curves do not cross on the given grid."""


class StreamingMean:
    """Numerically stable online mean and variance (Welford), mergeable."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self, count: int = 0, mean: float = 0.0, m2: float = 0.0):
        self.count = count
        self.mean = mean
        self.m2 = m2

    def update(self, x: float) -> None:
        self.count = count = self.count + 1
        delta = x - self.mean
        self.mean = mean = self.mean + delta / count
        self.m2 += delta * (x - mean)

    def merge(self, other: "StreamingMean") -> "StreamingMean":
        """Combined accumulator, equal to streaming both inputs' samples."""
        if other.count == 0:
            return StreamingMean(self.count, self.mean, self.m2)
        if self.count == 0:
            return StreamingMean(other.count, other.mean, other.m2)
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = (self.count * self.mean + other.count * other.mean) / count
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / count
        return StreamingMean(count, mean, m2)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    def mean_or(self, default: Optional[float] = None) -> Optional[float]:
        return self.mean if self.count else default


def mean_ci95(values: Sequence[float]) -> Tuple[float, float, float]:
    """Sample mean with a normal-approximation 95% interval."""
    n = len(values)
    if n == 0:
        raise NoData("no values")
    mean = sum(values) / n
    if n < 2:
        return mean, mean, mean
    var = sum((x - mean) ** 2 for x in values) / (n - 1)
    half = Z_95 * math.sqrt(var / n)
    return mean, mean - half, mean + half


@dataclass(frozen=True)
class GrowthRate:
    direct: float  # pegged blocks per second, totals ratio
    decomposition: float  # through win fractions and conditional means


@dataclass(frozen=True)
class RewardRates:
    direct: Tuple[float, ...]  # per pool, booked totals over time
    decomposition: Tuple[float, ...]


class EstimatorBank:
    """Mergeable per-round accumulators for one simulation configuration."""

    def __init__(self, num_dishonest: int):
        if num_dishonest < 1:
            raise ValueError("need at least one dishonest pool")
        n = num_dishonest + 1
        self.num_pools = n
        self.rounds = 0
        self.win_counts = [0] * n
        self.cond_honest_len = StreamingMean()  # honest chain length on honest wins
        self.cond_fork_pos = [StreamingMean() for _ in range(n)]  # winner's fork position
        self.cond_length = [StreamingMean() for _ in range(n)]  # winner's own chain length
        self.cond_released = [StreamingMean() for _ in range(n)]  # winner's pegged own blocks
        self.ratio_all = {name: StreamingMean() for name in RATIO_NAMES}
        self.ratio_by_winner = [{name: StreamingMean() for name in RATIO_NAMES} for _ in range(n)]
        self.duration = StreamingMean()
        self.pegged = StreamingMean()
        self.reward_total = [StreamingMean() for _ in range(n)]
        # (winner, holder) event tables: holder owned the round's nephew block /
        # had an uncle among the round's orphans. Reward means are conditional
        # on the event, so rates times means reproduce the booked totals.
        self.nephew_count = [[0] * n for _ in range(n)]
        self.nephew_given = [[StreamingMean() for _ in range(n)] for _ in range(n)]
        self.uncle_count = [[0] * n for _ in range(n)]
        self.uncle_given = [[StreamingMean() for _ in range(n)] for _ in range(n)]

    @property
    def num_dishonest(self) -> int:
        return self.num_pools - 1

    def update(
        self,
        outcome: RoundOutcome,
        ratios: RoundRatios,
        rewards: RewardVector,
        classification: Classification,
    ) -> None:
        w = outcome.winner
        self.rounds += 1
        self.win_counts[w] += 1
        if w == HONEST:
            self.cond_honest_len.update(outcome.honest_length)
        else:
            stat = outcome.per_pool[w - 1]
            self.cond_fork_pos[w].update(stat.fork_position)
            self.cond_length[w].update(stat.length)
            self.cond_released[w].update(outcome.released)

        by_winner = self.ratio_by_winner[w]
        for name, x in zip(RATIO_NAMES, ratios.as_floats()):
            self.ratio_all[name].update(x)
            by_winner[name].update(x)

        self.duration.update(outcome.duration)
        self.pegged.update(outcome.pegged_count)
        pays = rewards.per_pool
        for mean, pay in zip(self.reward_total, pays):
            mean.update(pay.total_units / UNITS_PER_BLOCK)

        holder = outcome.first_block_owner
        self.nephew_count[w][holder] += 1
        self.nephew_given[w][holder].update(pays[holder].nephew_units / UNITS_PER_BLOCK)
        for record in classification.uncles:
            self.uncle_count[w][record.owner] += 1
            self.uncle_given[w][record.owner].update(record.units / UNITS_PER_BLOCK)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "EstimatorBank") -> "EstimatorBank":
        """New bank equal to streaming both inputs' rounds in any order."""
        if self.num_pools != other.num_pools:
            raise MergeShapeError(f"cannot merge banks with {self.num_pools} and {other.num_pools} pools")
        out = EstimatorBank(self.num_dishonest)
        out.rounds = self.rounds + other.rounds
        out.win_counts = [a + b for a, b in zip(self.win_counts, other.win_counts)]
        out.cond_honest_len = self.cond_honest_len.merge(other.cond_honest_len)
        out.cond_fork_pos = [a.merge(b) for a, b in zip(self.cond_fork_pos, other.cond_fork_pos)]
        out.cond_length = [a.merge(b) for a, b in zip(self.cond_length, other.cond_length)]
        out.cond_released = [a.merge(b) for a, b in zip(self.cond_released, other.cond_released)]
        out.ratio_all = {name: self.ratio_all[name].merge(other.ratio_all[name]) for name in RATIO_NAMES}
        out.ratio_by_winner = [
            {name: mine[name].merge(theirs[name]) for name in RATIO_NAMES}
            for mine, theirs in zip(self.ratio_by_winner, other.ratio_by_winner)
        ]
        out.duration = self.duration.merge(other.duration)
        out.pegged = self.pegged.merge(other.pegged)
        out.reward_total = [a.merge(b) for a, b in zip(self.reward_total, other.reward_total)]
        n = self.num_pools
        for w in range(n):
            for p in range(n):
                out.nephew_count[w][p] = self.nephew_count[w][p] + other.nephew_count[w][p]
                out.nephew_given[w][p] = self.nephew_given[w][p].merge(other.nephew_given[w][p])
                out.uncle_count[w][p] = self.uncle_count[w][p] + other.uncle_count[w][p]
                out.uncle_given[w][p] = self.uncle_given[w][p].merge(other.uncle_given[w][p])
        return out

    # -- estimates ---------------------------------------------------------

    def _require_data(self) -> None:
        if self.rounds == 0:
            raise NoData("bank has no rounds")

    def win_fractions(self) -> Tuple[float, ...]:
        self._require_data()
        return tuple(c / self.rounds for c in self.win_counts)

    def nephew_rates(self, conditional: bool = True) -> List[List[float]]:
        """(winner, holder) nephew-ownership frequencies.

        Conditional rates divide by the winner's round count (what the rate
        decompositions need); joint rates divide by all rounds.
        """
        self._require_data()
        return self._event_rates(self.nephew_count, conditional)

    def uncle_rates(self, conditional: bool = True) -> List[List[float]]:
        self._require_data()
        return self._event_rates(self.uncle_count, conditional)

    def _event_rates(self, table, conditional: bool) -> List[List[float]]:
        out = []
        for w in range(self.num_pools):
            base = self.win_counts[w] if conditional else self.rounds
            out.append([table[w][p] / base if base else 0.0 for p in range(self.num_pools)])
        return out

    def expected_pegged(self) -> float:
        """Mean pegged blocks per round via the win-fraction decomposition."""
        self._require_data()
        total = self.win_counts[HONEST] * self.cond_honest_len.mean
        for pool in range(1, self.num_pools):
            if self.win_counts[pool]:
                total += self.win_counts[pool] * (
                    self.cond_fork_pos[pool].mean + self.cond_released[pool].mean
                )
        return total / self.rounds

    def growth_rate(self) -> GrowthRate:
        """Long-run pegged blocks per second, both estimators."""
        self._require_data()
        mean_duration = self.duration.mean
        return GrowthRate(
            direct=self.pegged.mean / mean_duration,
            decomposition=self.expected_pegged() / mean_duration,
        )

    def expected_round_reward(self, pool: int) -> float:
        """Mean booked reward per round for one pool, via the decomposition."""
        self._require_data()
        total = 0.0
        for w in range(self.num_pools):
            wins = self.win_counts[w]
            if not wins:
                continue
            if w == HONEST and pool == HONEST:
                base = self.cond_honest_len.mean
            elif w != HONEST and pool == HONEST:
                base = self.cond_fork_pos[w].mean
            elif w == pool:
                base = self.cond_released[w].mean
            else:
                base = 0.0
            nephew = (self.nephew_count[w][pool] / wins) * (self.nephew_given[w][pool].mean_or(0.0) or 0.0)
            uncle = (self.uncle_count[w][pool] / wins) * (self.uncle_given[w][pool].mean_or(0.0) or 0.0)
            total += wins * (base + nephew + uncle)
        return total / self.rounds

    def reward_rates(self) -> RewardRates:
        """Long-run reward per second for every pool, both estimators."""
        self._require_data()
        mean_duration = self.duration.mean
        direct = tuple(self.reward_total[p].mean / mean_duration for p in range(self.num_pools))
        decomposition = tuple(
            self.expected_round_reward(p) / mean_duration for p in range(self.num_pools)
        )
        return RewardRates(direct=direct, decomposition=decomposition)

    def ratio_averages(self) -> Dict[str, Dict[str, float]]:
        """Running means of the per-round ratios, direct and decomposed.

        The decomposed form weighs the per-winner conditional means by the
        win fractions; on the same data the two agree to float tolerance.
        """
        self._require_data()
        out: Dict[str, Dict[str, float]] = {}
        for name in RATIO_NAMES:
            decomposed = 0.0
            for w in range(self.num_pools):
                wins = self.win_counts[w]
                if wins:
                    decomposed += wins * self.ratio_by_winner[w][name].mean
            out[name] = {
                "direct": self.ratio_all[name].mean,
                "decomposition": decomposed / self.rounds,
            }
        return out

    def summary(self) -> dict:
        """Plain-type snapshot of every estimate, for JSON serialization."""
        self._require_data()
        growth = self.growth_rate()
        rates = self.reward_rates()
        return {
            "rounds": self.rounds,
            "win_fraction": list(self.win_fractions()),
            "conditional_means": {
                "honest_length": self.cond_honest_len.mean_or(),
                "fork_position": [sm.mean_or() for sm in self.cond_fork_pos],
                "length": [sm.mean_or() for sm in self.cond_length],
                "released": [sm.mean_or() for sm in self.cond_released],
            },
            "ratios": {
                name: both for name, both in self.ratio_averages().items()
            },
            "duration_mean": self.duration.mean,
            "pegged_mean": self.pegged.mean,
            "growth_rate": {"direct": growth.direct, "decomposition": growth.decomposition},
            "reward_mean": [sm.mean for sm in self.reward_total],
            "reward_rate": {"direct": list(rates.direct), "decomposition": list(rates.decomposition)},
            "nephew_rate": {
                "joint": self.nephew_rates(conditional=False),
                "conditional": self.nephew_rates(conditional=True),
            },
            "uncle_rate": {
                "joint": self.uncle_rates(conditional=False),
                "conditional": self.uncle_rates(conditional=True),
            },
        }


# -- mining power threshold --------------------------------------------------


@dataclass(frozen=True)
class ThresholdEstimate:
    alpha_star: float  # crossing of the replication-averaged curves
    ci95: Tuple[float, float]  # from the spread of per-replication crossings
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
    if alpha_first < -base.alpha_slack:
        raise ValueError(
            f"grid point {alpha_honest} leaves pool 1 with negative power {alpha_first:.4f}"
        )
    alphas = (alpha_honest, max(alpha_first, 0.0)) + base.alphas[2:]
    return replace(base, pools=tuple(PoolSpec(i, a) for i, a in enumerate(alphas)))


def win_fraction_run(config: SimConfig, rounds: int, seed) -> Tuple[float, ...]:
    """Fraction of rounds each pool wins over one seeded run.

    Fast path for probability-only experiments: plays the rounds without
    classification or reward booking, which cannot change who wins.
    """
    clock = MiningClock(config, seed=seed)
    counts = [0] * len(config.pools)
    carry: Optional[Carryover] = None
    for _ in range(rounds):
        outcome = run_round(config, carry, clock)
        carry = make_carryover(outcome)
        counts[outcome.winner] += 1
    return tuple(c / rounds for c in counts)


def _threshold_task(args) -> Tuple[int, int, Tuple[float, ...]]:
    base, grid_idx, alpha_honest, rep_idx, rounds, master_seed = args
    config = grid_config(base, alpha_honest)
    seed = np.random.SeedSequence(master_seed, spawn_key=(grid_idx, rep_idx))
    return grid_idx, rep_idx, win_fraction_run(config, rounds, seed)


def find_power_threshold(
    base_config: SimConfig,
    alpha_grid: Sequence[float],
    replications: int,
    rounds_per_run: int,
    master_seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> ThresholdEstimate:
    """Honest power at which pool 1 wins rounds as often as the honest pool.

    Sweeps the honest power over alpha_grid, giving pool 1 the leftover
    power (pools 2..m keep base_config's values). Each grid point is run
    `replications` times with child seeds of master_seed; the crossing of
    the averaged win-probability curves is located by linear interpolation,
    and the 95% interval comes from the per-replication crossings.
    """
    if len(alpha_grid) < 2:
        raise ValueError("alpha_grid needs at least two points")
    if master_seed is None:
        master_seed = base_config.seed
    grid = tuple(float(a) for a in alpha_grid)

    tasks = [
        (base_config, g, alpha, r, rounds_per_run, master_seed)
        for g, alpha in enumerate(grid)
        for r in range(replications)
    ]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_threshold_task, tasks, chunksize=1))
    else:
        results = [_threshold_task(t) for t in tasks]

    fractions = {(g, r): f for g, r, f in results}
    p_honest = [[fractions[g, r][HONEST] for r in range(replications)] for g in range(len(grid))]
    p_first = [[fractions[g, r][1] for r in range(replications)] for g in range(len(grid))]
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

    _, lo, hi = mean_ci95(crossings)
    return ThresholdEstimate(
        alpha_star=alpha_star,
        ci95=(lo, hi),
        crossings=tuple(crossings),
        grid=grid,
        mean_p_honest=mean_h,
        mean_p_first=mean_f,
        skipped=skipped,
    )
