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

from .classify import UNITS_PER_BLOCK, Classification, RoundRatios, ratio_floats, ratio_numerators, round_columns
from .engine import (
    ALPHA_SLACK, HONEST, Carryover, MiningClock, PoolSpec, RoundOutcome, SimConfig, make_carryover, run_round,
)
from .rewards import ClosedRounds, RewardVector

Z_95 = 1.959963984540054

RATIO_NAMES = ("chain_quality", "main_chain", "orphan", "uncle", "stale")


class NoData(RuntimeError):
    """Asked a bank with zero rounds for an estimate."""


class MergeShapeError(ValueError):
    """Tried to merge banks built for different pool counts."""


class NoCrossing(RuntimeError):
    """The win-probability curves do not cross on the given grid."""


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

    def update(
        self,
        outcome: RoundOutcome,
        ratios: RoundRatios,
        rewards: RewardVector,
        classification: Classification,
    ) -> None:
        """Take in one closed round's records; the one-row case of add."""
        rounds = round_columns([outcome])
        height = np.zeros_like(rounds.length)
        distance = np.zeros_like(rounds.length)
        for record in classification.uncles:
            height[0, record.owner] = record.height
            distance[0, record.owner] = record.distance
        nephew = classification.nephew
        pays = rewards.per_pool
        self.add(ClosedRounds(
            rounds=rounds,
            nephew_owner=np.array([nephew.owner]),
            nephew_height=np.array([nephew.height]),
            from_reserve=np.array([nephew.from_reserve]),
            uncle_height=height,
            uncle_distance=distance,
            uncle_count=np.array([ratios.uncles]),
            orphan=np.array([ratios.total - ratios.main]),
            stale=np.array([classification.stale_count]),
            regular_units=np.array([[p.regular_units for p in pays]]),
            uncle_units=np.array([[p.uncle_units for p in pays]]),
            nephew_units=np.array([[p.nephew_units for p in pays]]),
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

    def expected_pegged(self) -> float:
        """Mean pegged blocks per round via the win-fraction decomposition."""
        self._require_data()
        total = self.win_counts[HONEST] * _mean(self.length_total[HONEST], self.win_counts[HONEST], 0.0)
        for pool in range(1, self.num_pools):
            if self.win_counts[pool]:
                total += self.win_counts[pool] * (
                    self.conditional_mean(self.fork_pos_total, pool)
                    + self.conditional_mean(self.released_total, pool)
                )
        return total / self.rounds

    def growth_rate(self) -> GrowthRate:
        """Long-run pegged blocks per second, both estimators."""
        mean_duration = self.duration_mean()
        return GrowthRate(
            direct=self.pegged_mean() / mean_duration,
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
                base = self.conditional_mean(self.length_total, w)
            elif w != HONEST and pool == HONEST:
                base = self.conditional_mean(self.fork_pos_total, w)
            elif w == pool:
                base = self.conditional_mean(self.released_total, w)
            else:
                base = 0.0
            # Event rate times the mean reward given the event, per table.
            nephew, uncle = (
                (count[w][pool] / wins) * _mean(units[w][pool], UNITS_PER_BLOCK * count[w][pool], 0.0)
                for count, units in ((self.nephew_count, self.nephew_units), (self.uncle_count, self.uncle_units))
            )
            total += wins * (base + nephew + uncle)
        return total / self.rounds

    def reward_rates(self) -> RewardRates:
        """Long-run reward per second for every pool, both estimators."""
        mean_duration = self.duration_mean()
        direct = tuple(mean / mean_duration for mean in self.reward_means())
        decomposition = tuple(
            self.expected_round_reward(p) / mean_duration for p in range(self.num_pools)
        )
        return RewardRates(direct=direct, decomposition=decomposition)

    def ratio_averages(self) -> Dict[str, Dict[str, float]]:
        """Means of the per-round ratios, direct and decomposed.

        The decomposed form weighs the per-winner conditional means by the
        win fractions; on the same data the two agree to float tolerance.
        """
        self._require_data()
        out: Dict[str, Dict[str, float]] = {}
        for k, name in enumerate(RATIO_NAMES):
            decomposed = 0.0
            for w in range(self.num_pools):
                wins = self.win_counts[w]
                if wins:
                    decomposed += wins * (self.ratio_by_winner[w][k] / wins)
            out[name] = {
                "direct": self.ratio_total[k] / self.rounds,
                "decomposition": decomposed / self.rounds,
            }
        return out

    def summary(self) -> dict:
        """Plain-type snapshot of every estimate, for JSON serialization."""
        self._require_data()
        growth = self.growth_rate()
        rates = self.reward_rates()
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
            "ratios": self.ratio_averages(),
            "duration_mean": self.duration_mean(),
            "pegged_mean": self.pegged_mean(),
            "growth_rate": {"direct": growth.direct, "decomposition": growth.decomposition},
            "reward_mean": list(self.reward_means()),
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
    if alpha_first < -ALPHA_SLACK:
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
