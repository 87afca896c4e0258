from fractions import Fraction

import numpy as np
import pytest

from poolsim import classify, pipeline
from poolsim.classify import NephewUnavailable
from poolsim.engine import FORK_TIP, HONEST, RELEASE_MIN, Carryover, SimConfig
from poolsim.oracle import (
    EventScript,
    IncompleteScript,
    ViolationReport,
    close_replay,
    enumerate_and_check,
    reference_analysis,
    replay_script,
    script_config,
    select_main_chain,
)
from poolsim.pipeline import simulate_rounds

from conftest import build_outcome

H, D1, D2, D3 = 0, 1, 2, 3
CFG2 = script_config(2)
TIP2 = script_config(2, fork_rule=FORK_TIP)


def one_round(events, config=CFG2, carry=None):
    rounds = replay_script(EventScript(tuple(events), carryover=carry), config)
    return rounds[0].outcome


class TestReplayBasics:
    def test_two_honest_blocks_close_immediately(self):
        out = one_round([H, H])
        assert out.winner == HONEST and out.length[H] == 2

    def test_two_private_blocks_claim_the_round(self):
        out = one_round([D1, D1])
        assert out.winner == D1
        assert out.fork_pos[D1] == 0
        assert out.length[D1] == 2
        assert out.released == 2

    def test_open_race_is_incomplete(self):
        # Honest at three, a fork riding position one at two: one block of
        # lead only, so four events cannot close the round.
        with pytest.raises(IncompleteScript):
            replay_script(EventScript((H, D1, H, H)), CFG2)

    def test_rounds_chain_and_trailing_round_stays_open(self):
        rounds = replay_script(EventScript((H, H, D1, D1, H, H)), CFG2)
        assert [r.outcome.winner for r in rounds] == [H, D1, H]
        # Each round's nephew is the next round's first block; the trailing
        # round's comes after the script, so it cannot close without one.
        with pytest.raises(NephewUnavailable):
            list(close_replay(rounds, [None]))
        [records] = close_replay(rounds, [D2])
        assert [rec.classification.nephew.owner for rec in records] == [D1, H, D2]


class TestTipReplay:
    def test_fork_at_zero_keeps_the_round_open(self):
        with pytest.raises(IncompleteScript):
            replay_script(EventScript((D1, H, H, H)), TIP2)

    def test_two_honest_blocks_close_for_honest(self):
        out = one_round([H, H], TIP2)
        assert out.winner == HONEST and out.length[H] == 2

    def test_fork_at_one_closes_for_pool_one(self):
        out = one_round([H, D1, D1], TIP2)
        assert out.winner == D1
        assert (out.fork_pos[D1], out.length[D1]) == (1, 2)
        assert (out.longest, out.second) == (3, 1)

    def test_rival_fork_resets_the_race_between_forks(self):
        # D1 leads the honest pool by one from its first block; D2's fork
        # ties it, so D1 needs two more blocks than D2 to close.
        out = one_round([D1, H, D2, D1, D1], TIP2)
        assert out.winner == D1
        assert list(zip(out.fork_pos[1:], out.length[1:])) == [(1, 3), (1, 1)]
        assert (out.longest, out.second) == (4, 2)

    def test_late_win_orphans_no_honest_block(self):
        out, tree = replay_script(EventScript((D1, H, H, H, H, D1)), TIP2)[0]
        assert out.winner == D1 and out.fork_pos[D1] == 4
        assert out.pegged == out.longest == 6
        assert tree.honest.blocks == select_main_chain(tree, out.winner, out.released)[:4]


class TestHonestWinnerTreeShapes:
    def test_idle_rivals_close_at_two(self):
        out = one_round([H, H])
        assert out.length[H] == 2
        assert out.length[1:] == (0, 0)  # no rival forked

    def test_single_fork_at_zero_closes_at_two_over(self):
        out = one_round([D1, H, H, H])
        assert out.winner == H and out.length[H] == 3
        assert (out.fork_pos[D1], out.length[D1]) == (0, 1)
        # chain length equals the rival's blocks plus the two-block lead
        assert out.length[H] == out.length[D1] + 2

    def test_single_fork_at_one_carries_its_anchor(self):
        out = one_round([H, D1, H, H, H])
        assert out.winner == H and out.length[H] == 4
        assert (out.fork_pos[D1], out.length[D1]) == (1, 1)
        assert out.length[H] == out.fork_pos[D1] + out.length[D1] + 2

    def test_twin_forks_at_zero(self):
        out = one_round([D1, D2, H, H, H])
        assert out.winner == H and out.length[H] == 3
        gens = [p + n for p, n in zip(out.fork_pos[1:], out.length[1:])]
        assert max(gens) == out.length[H] - 2
        assert all(1 <= g <= out.length[H] - 2 for g in gens)

    def test_twin_forks_at_one(self):
        out = one_round([H, D1, D2, H, H, H, H])
        assert out.winner == H and out.length[H] == 4
        assert out.fork_pos[1:] == (1, 1) and out.length[1:] == (1, 1)
        assert out.length[H] == 1 + 1 + 2

    def test_staggered_forks(self):
        out = one_round([D1, H, D2, H, H, H])
        assert out.winner == H and out.length[H] == 4
        assert (out.fork_pos[D1], out.length[D1]) == (0, 1)
        assert (out.fork_pos[D2], out.length[D2]) == (1, 1)
        assert out.fork_pos[D2] + out.length[D2] == out.length[H] - 2

    def test_staggered_forks_shifted_up(self):
        out = one_round([H, D1, H, D2, H, H, H])
        assert out.winner == H and out.length[H] == 5
        assert (out.fork_pos[D1], out.length[D1]) == (1, 1)
        assert (out.fork_pos[D2], out.length[D2]) == (2, 1)
        assert out.fork_pos[D2] + out.length[D2] == out.length[H] - 2


class TestDishonestWinnerTreeShapes:
    def test_lone_runner_needs_two(self):
        out = one_round([D1, D1])
        assert out.winner == D1
        assert out.length[D1] == 2 and out.length[H] == 0

    def test_fork_at_zero_beats_honest_by_two(self):
        out = one_round([D1, H, D1, D1])
        assert out.winner == D1 and out.length[H] == 1
        assert out.length[D1] == out.length[H] + 2

    def test_fork_at_one_rides_its_anchor(self):
        out = one_round([H, D1, H, D1, D1])
        assert out.winner == D1 and out.length[H] == 2
        assert out.fork_pos[D1] == 1
        assert out.fork_pos[D1] + out.length[D1] == out.length[H] + 2

    def test_twin_forks_at_zero_race_each_other(self):
        out = one_round([D1, D2, H, D1, D1])
        assert out.winner == D1
        l1, l2 = out.length[D1], out.length[D2]
        assert l1 >= max(out.length[H] + 2, l2 + 2)

    def test_twin_forks_at_one_race_each_other(self):
        out = one_round([H, D1, D2, D1, D1])
        assert out.winner == D1
        (_, p1, p2), (_, l1, l2) = out.fork_pos, out.length
        assert p1 == p2 == 1
        assert p1 + l1 >= max(out.length[H] + 2, p2 + l2 + 2)

    def test_staggered_forks_winner_low(self):
        out = one_round([D1, H, D2, D1, D1, D1])
        assert out.winner == D1
        (_, p1, p2), (_, l1, l2) = out.fork_pos, out.length
        assert (p1, p2) == (0, 1)
        assert l1 >= max(out.length[H] + 2, p2 + l2 + 2)

    def test_staggered_forks_shifted_up(self):
        out = one_round([H, D1, H, D2, D1, D1, D1])
        assert out.winner == D1
        (_, p1, p2), (_, l1, l2) = out.fork_pos, out.length
        assert (p1, p2) == (1, 2)
        assert p1 + l1 >= max(out.length[H] + 2, p2 + l2 + 2)


class TestReferenceAnalysis:
    def test_agrees_with_worked_example(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)], first_owner=HONEST)
        ref = reference_analysis(out, prev_uncle_count=0)
        assert ref["uncles"] == [(2, 1, 4), (1, 2, 3)]
        assert ref["ratios"]["uncle"] == Fraction(2, 7)
        assert ref["rewards"][0][0] == 4
        assert ref["rewards"][1][1] == Fraction(5, 8)

    def test_books_reference_reward_to_first_owner(self):
        out = build_outcome(HONEST, 2, [(False, 0, 0)], first_owner=1)
        ref = reference_analysis(out, prev_uncle_count=3)
        assert ref["rewards"][1][2] == Fraction(3, 32)


class TestEnumerateAndCheck:
    def test_depth_four_single_rival_clean(self):
        report = enumerate_and_check(4, 1)
        assert report.scripts == 16
        assert report.ok, report.violations[:5]

    def test_depth_six_two_rivals_clean(self):
        report = enumerate_and_check(6, 2)
        assert report.scripts == 729
        assert report.ok, report.violations[:5]

    def test_carryover_scripts_clean(self):
        report = enumerate_and_check(5, 2, carryover=Carryover(1, 2))
        assert report.ok, report.violations[:5]

    def test_release_min_with_carryover_clean(self):
        config = script_config(2, release_policy=RELEASE_MIN)
        report = enumerate_and_check(5, 2, config=config, carryover=Carryover(1, 5))
        assert report.rounds_checked > 0
        assert report.ok, report.violations[:5]

    def test_depth_eight_two_rivals_clean_under_tip(self):
        report = enumerate_and_check(8, 2, config=TIP2)
        assert report.scripts == 6561
        assert report.rounds_checked > 0
        assert report.ok, report.violations[:5]

    def test_carryover_scripts_clean_under_tip(self):
        report = enumerate_and_check(5, 2, config=TIP2, carryover=Carryover(1, 2))
        assert report.rounds_checked > 0
        assert report.ok, report.violations[:5]

    def test_release_min_with_carryover_clean_under_tip(self):
        config = script_config(2, release_policy=RELEASE_MIN, fork_rule=FORK_TIP)
        report = enumerate_and_check(5, 2, config=config, carryover=Carryover(1, 5))
        assert report.rounds_checked > 0
        assert report.ok, report.violations[:5]

    @pytest.mark.parametrize("fork_rule", ["anchored", FORK_TIP])
    def test_lead_threshold_three_clean(self, fork_rule):
        # With a three-block lead the honest pool can hold two blocks before
        # the first fork, so that fork may sit at 0, 1 or 2.
        config = script_config(3, lead_threshold=3, release_policy=RELEASE_MIN, fork_rule=fork_rule)
        report = enumerate_and_check(6, 3, config=config)
        assert report.rounds_checked > 0
        assert report.ok, report.violations[:5]

    def test_mutated_distance_cutoff_is_caught(self, monkeypatch):
        # Ten events, three rivals: the only way to reach a distance-seven
        # candidate within the enumeration cap. A production close that
        # accepts distance seven must disagree with the reference, which
        # keeps its own cutoff.
        config = script_config(3)
        probe = EventScript((D1, H, H, D2, H, H, D3, H, H, H))
        clean = enumerate_and_check(10, 3, config=config, scripts=[probe])
        assert clean.ok
        monkeypatch.setattr(classify, "MAX_UNCLE_DISTANCE", 7)
        mutated = enumerate_and_check(10, 3, config=config, scripts=[probe])
        assert not mutated.ok
        assert any("uncle" in v for v in mutated.violations)

    def test_carry_one_block_short_is_caught(self, monkeypatch):
        # The replay chains its rounds from its own trees, so an engine-side
        # carry rule that drops one private block must disagree with it.
        def one_short(outcome):
            return Carryover(outcome.winner, outcome.reserved - 1) if outcome.reserved > 1 else None

        monkeypatch.setattr(pipeline, "make_carryover", one_short)
        config = script_config(2, release_policy=RELEASE_MIN)
        report = enumerate_and_check(5, 2, config=config, carryover=Carryover(1, 5))
        assert report.rounds_checked > 0
        assert not report.ok

    def test_report_serializes(self):
        report = enumerate_and_check(3, 1)
        assert report.ok is True and report.scripts == 8


def wait_for_lead_of_three(longest, second, mined):
    return longest - second >= 3


class TestMonteCarloAgainstReference:
    """The production close path on random streams, round by round, against
    the from-scratch reference analysis."""

    CASES = {
        "m2-anchored": (SimConfig.from_alphas([0.55, 0.32, 0.13]), None),
        "m2-tip": (SimConfig.from_alphas([0.55, 0.32, 0.13], fork_rule=FORK_TIP), None),
        "m4-release-min-lead3": (
            SimConfig.from_alphas([0.5, 0.2, 0.13, 0.1, 0.07], release_policy=RELEASE_MIN),
            wait_for_lead_of_three,
        ),
        "lead-threshold-3": (SimConfig.from_alphas([0.5, 0.3, 0.2], lead_threshold=3), None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_records_match_reference(self, case):
        config, policy = self.CASES[case]
        _, records = simulate_rounds(
            config, 3000, seed=np.random.SeedSequence(404), termination_policy=policy, collect=True
        )
        prev_uncles = 0
        uncles_seen = 0
        for rec in records:
            ref = reference_analysis(rec.outcome, prev_uncles)
            c = rec.classification
            assert [(u.owner, u.height, u.distance) for u in c.uncles] == ref["uncles"], rec.index
            assert c.nephew.height == ref["nephew_height"], rec.index
            assert (c.regular_count, c.regular_count + c.orphan_count) == (ref["main_len"], ref["observed"])
            got_ratios = {name: getattr(rec.ratios, name) for name in ref["ratios"]}
            assert got_ratios == ref["ratios"], rec.index
            got_rewards = [(p.regular, p.uncle, p.nephew) for p in rec.rewards.per_pool]
            assert got_rewards == ref["rewards"], rec.index
            prev_uncles = c.uncle_count
            uncles_seen += c.uncle_count
        assert uncles_seen > 0
        if policy is not None:
            assert any(rec.outcome.reserved for rec in records)
