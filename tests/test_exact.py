"""Both engines against exact win probabilities.

Under the tip fork rule with two dishonest pools the race has a closed form
(compare Grunspan & Pérez-Marco, "Selfish mining in Ethereum", arXiv
1904.13330). Every forked chain rides the honest tip, so once a dishonest
pool has forked the honest pool never leads again: it wins only a round it
opens with k = lead_threshold honest blocks. After that, the two rivals
play a gambler's ruin on the difference of their own lengths, which honest
blocks do not move, and the first to lead by k wins. With p_i the chance
that pool i mines the next block,

    P(H) = p_H^k,    P(1) = (1 - p_H^k) / (1 + (p_2 / p_1)^k).

With a zero-power second rival this is P(1) = 1 - p_H^k. The draw rule is
restated here, sharing no code with the engine: the rate of pool i is
proportional to alpha_i / (1 + alpha_i / gamma).
"""
import math

import pytest

from poolsim.engine import FORK_TIP, SimConfig
from poolsim.metrics import win_fraction_run
from poolsim.pipeline import simulate_rounds

GAMMA = 10.0


def exact_win_fractions(alphas, k):
    weights = [a / (1.0 + a / GAMMA) for a in alphas]
    p_h, p_1, p_2 = (w / sum(weights) for w in weights)
    honest = p_h ** k
    first = (1.0 - honest) / (1.0 + (p_2 / p_1) ** k)
    return honest, first, 1.0 - honest - first


def assert_within_z(fractions, exact, rounds):
    for pool, (got, want) in enumerate(zip(fractions, exact)):
        if want in (0.0, 1.0):
            assert got == want, f"pool {pool}: {got} != exact {want}"
            continue
        z = (got - want) / math.sqrt(want * (1.0 - want) / rounds)
        assert abs(z) <= 4.0, f"pool {pool}: {got:.5f} against exact {want:.5f}, z={z:.2f}"


POINTS = [((a, 0.9 - a, 0.1), k) for a in (0.5, 0.6, 0.7) for k in (2, 3)] + [((0.6, 0.4, 0.0), 2)]
IDS = ["-".join(f"{a:g}" for a in alphas) + f"-k{k}" for alphas, k in POINTS]


@pytest.mark.parametrize("alphas,k", POINTS, ids=IDS)
class TestTipWinFractions:
    def config(self, alphas, k):
        return SimConfig(alphas, gamma=GAMMA, lead_threshold=k, fork_rule=FORK_TIP)

    def test_lanes(self, alphas, k):
        rounds = 200_000
        fractions = win_fraction_run(self.config(alphas, k), rounds, seed=31)
        assert_within_z(fractions, exact_win_fractions(alphas, k), rounds)

    def test_run_round(self, alphas, k):
        # A policy that always fires plays eager rounds through run_round.
        rounds = 20_000
        bank, _ = simulate_rounds(
            self.config(alphas, k), rounds, seed=31, termination_policy=lambda longest, second, mined: True
        )
        assert_within_z(bank.win_fractions(), exact_win_fractions(alphas, k), rounds)


def test_exact_crossing_on_criterion_1_line():
    # Criterion 1 runs (a, 0.9 - a, 0.1) with gamma 10 and k = 2 under tip;
    # the honest pool and pool 1 win equally often at its crossing.
    lo, hi = 0.4, 0.8
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        honest, first, _ = exact_win_fractions((mid, 0.9 - mid, 0.1), 2)
        lo, hi = (mid, hi) if honest < first else (lo, mid)
    assert abs(lo - 0.682294) <= 1e-6
