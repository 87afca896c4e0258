from fractions import Fraction

import numpy as np
import pytest

from poolsim.engine import FORK_TIP, RELEASE_MIN, Carryover, SimConfig
from poolsim.oracle import (
    EventScript,
    IncompleteScript,
    ViolationReport,
    enumerate_and_check,
    reference_analysis,
    replay_script,
    script_config,
)
from poolsim.pipeline import simulate_rounds
from poolsim.tree import HONEST

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
        assert out.winner == HONEST and out.honest_length == 2

    def test_two_private_blocks_claim_the_round(self):
        out = one_round([D1, D1])
        assert out.winner == D1
        assert out.per_pool[0].fork_position == 0
        assert out.per_pool[0].length == 2
        assert out.released == 2

    def test_open_race_is_incomplete(self):
        # Honest at three, a fork riding position one at two: one block of
        # lead only, so four events cannot close the round.
        with pytest.raises(IncompleteScript):
            replay_script(EventScript((H, D1, H, H)), CFG2)

    def test_rounds_chain_and_trailing_round_stays_open(self):
        rounds = replay_script(EventScript((H, H, D1, D1, H, H)), CFG2)
        assert [r.outcome.winner for r in rounds] == [H, D1, H]
        assert rounds[0].classification is not None
        assert rounds[1].classification is not None
        assert rounds[2].classification is None  # no next first block seen


class TestTipReplay:
    def test_fork_at_zero_keeps_the_round_open(self):
        with pytest.raises(IncompleteScript):
            replay_script(EventScript((D1, H, H, H)), TIP2)

    def test_two_honest_blocks_close_for_honest(self):
        out = one_round([H, H], TIP2)
        assert out.winner == HONEST and out.honest_length == 2

    def test_fork_at_one_closes_for_pool_one(self):
        out = one_round([H, D1, D1], TIP2)
        assert out.winner == D1
        assert (out.per_pool[0].fork_position, out.per_pool[0].length) == (1, 2)
        assert (out.longest, out.second) == (3, 1)

    def test_rival_fork_resets_the_race_between_forks(self):
        # D1 leads the honest pool by one from its first block; D2's fork
        # ties it, so D1 needs two more blocks than D2 to close.
        out = one_round([D1, H, D2, D1, D1], TIP2)
        assert out.winner == D1
        assert [(s.fork_position, s.length) for s in out.per_pool] == [(1, 3), (1, 1)]
        assert (out.longest, out.second) == (4, 2)

    def test_late_win_orphans_no_honest_block(self):
        out = one_round([D1, H, H, H, H, D1], TIP2)
        assert out.winner == D1 and out.per_pool[0].fork_position == 4
        assert out.pegged_count == out.longest == 6
        assert out.tree.honest.blocks == out.pegged[:4]


class TestHonestWinnerTreeShapes:
    def test_idle_rivals_close_at_two(self):
        out = one_round([H, H])
        assert out.honest_length == 2
        assert all(not s.forked for s in out.per_pool)

    def test_single_fork_at_zero_closes_at_two_over(self):
        out = one_round([D1, H, H, H])
        assert out.winner == H and out.honest_length == 3
        assert (out.per_pool[0].fork_position, out.per_pool[0].length) == (0, 1)
        # chain length equals the rival's blocks plus the two-block lead
        assert out.honest_length == out.per_pool[0].length + 2

    def test_single_fork_at_one_carries_its_anchor(self):
        out = one_round([H, D1, H, H, H])
        assert out.winner == H and out.honest_length == 4
        assert (out.per_pool[0].fork_position, out.per_pool[0].length) == (1, 1)
        assert out.honest_length == out.per_pool[0].fork_position + out.per_pool[0].length + 2

    def test_twin_forks_at_zero(self):
        out = one_round([D1, D2, H, H, H])
        assert out.winner == H and out.honest_length == 3
        gens = [s.fork_position + s.length for s in out.per_pool]
        assert max(gens) == out.honest_length - 2
        assert all(1 <= g <= out.honest_length - 2 for g in gens)

    def test_twin_forks_at_one(self):
        out = one_round([H, D1, D2, H, H, H, H])
        assert out.winner == H and out.honest_length == 4
        for stat in out.per_pool:
            assert stat.fork_position == 1 and stat.length == 1
        assert out.honest_length == 1 + 1 + 2

    def test_staggered_forks(self):
        out = one_round([D1, H, D2, H, H, H])
        assert out.winner == H and out.honest_length == 4
        assert (out.per_pool[0].fork_position, out.per_pool[0].length) == (0, 1)
        assert (out.per_pool[1].fork_position, out.per_pool[1].length) == (1, 1)
        assert out.per_pool[1].fork_position + out.per_pool[1].length == out.honest_length - 2

    def test_staggered_forks_shifted_up(self):
        out = one_round([H, D1, H, D2, H, H, H])
        assert out.winner == H and out.honest_length == 5
        assert (out.per_pool[0].fork_position, out.per_pool[0].length) == (1, 1)
        assert (out.per_pool[1].fork_position, out.per_pool[1].length) == (2, 1)
        assert out.per_pool[1].fork_position + out.per_pool[1].length == out.honest_length - 2


class TestDishonestWinnerTreeShapes:
    def test_lone_runner_needs_two(self):
        out = one_round([D1, D1])
        assert out.winner == D1
        assert out.per_pool[0].length == 2 and out.honest_length == 0

    def test_fork_at_zero_beats_honest_by_two(self):
        out = one_round([D1, H, D1, D1])
        assert out.winner == D1 and out.honest_length == 1
        assert out.per_pool[0].length == out.honest_length + 2

    def test_fork_at_one_rides_its_anchor(self):
        out = one_round([H, D1, H, D1, D1])
        assert out.winner == D1 and out.honest_length == 2
        stat = out.per_pool[0]
        assert stat.fork_position == 1
        assert stat.fork_position + stat.length == out.honest_length + 2

    def test_twin_forks_at_zero_race_each_other(self):
        out = one_round([D1, D2, H, D1, D1])
        assert out.winner == D1
        l1, l2 = out.per_pool[0].length, out.per_pool[1].length
        assert l1 >= max(out.honest_length + 2, l2 + 2)

    def test_twin_forks_at_one_race_each_other(self):
        out = one_round([H, D1, D2, D1, D1])
        assert out.winner == D1
        s1, s2 = out.per_pool
        assert s1.fork_position == s2.fork_position == 1
        assert s1.fork_position + s1.length >= max(out.honest_length + 2, s2.fork_position + s2.length + 2)

    def test_staggered_forks_winner_low(self):
        out = one_round([D1, H, D2, D1, D1, D1])
        assert out.winner == D1
        s1, s2 = out.per_pool
        assert (s1.fork_position, s2.fork_position) == (0, 1)
        assert s1.length >= max(out.honest_length + 2, s2.fork_position + s2.length + 2)

    def test_staggered_forks_shifted_up(self):
        out = one_round([H, D1, H, D2, D1, D1, D1])
        assert out.winner == D1
        s1, s2 = out.per_pool
        assert (s1.fork_position, s2.fork_position) == (1, 2)
        assert s1.fork_position + s1.length >= max(
            out.honest_length + 2, s2.fork_position + s2.length + 2
        )


class TestReferenceAnalysis:
    def test_agrees_with_worked_example(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)], first_block_owner=HONEST)
        ref = reference_analysis(out, prev_uncle_count=0)
        assert ref["uncles"] == [(2, 1, 4), (1, 2, 3)]
        assert ref["ratios"]["uncle"] == Fraction(2, 7)
        assert ref["rewards"][0][0] == 4
        assert ref["rewards"][1][1] == Fraction(5, 8)

    def test_books_reference_reward_to_first_owner(self):
        out = build_outcome(HONEST, 2, [(False, 0, 0)], first_block_owner=1)
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

    def test_mutated_distance_cutoff_is_caught(self):
        # Ten events, three rivals: the only way to reach a distance-seven
        # candidate within the enumeration cap. A classifier that accepts
        # distance seven must disagree with the reference.
        config = script_config(3)
        probe = EventScript((D1, H, H, D2, H, H, D3, H, H, H))
        clean = enumerate_and_check(10, 3, config=config, scripts=[probe])
        assert clean.ok
        mutated = enumerate_and_check(
            10, 3, config=config, scripts=[probe], mutate_max_distance=7
        )
        assert not mutated.ok
        assert any("uncle" in v for v in mutated.violations)

    def test_report_serializes(self):
        report = enumerate_and_check(3, 1)
        data = report.to_dict()
        assert data["ok"] is True and data["scripts"] == 8


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
