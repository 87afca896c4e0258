from fractions import Fraction

import pytest

from poolsim.classify import (
    NephewUnavailable,
    classify_round,
    determine_nephew,
    find_uncles,
    round_ratios,
)
from poolsim.engine import HONEST
from poolsim.oracle import reference_analysis
from poolsim.rewards import allocate

from conftest import build_outcome

# Pool 1's lone block, forked at 0, is an uncle candidate at height 1.
LONE_CANDIDATE = build_outcome(HONEST, 12, [(0, 1)])


class TestUncleReward:
    @pytest.mark.parametrize(
        "distance,expected",
        [(1, Fraction(7, 8)), (2, Fraction(6, 8)), (3, Fraction(5, 8)),
         (4, Fraction(4, 8)), (5, Fraction(3, 8)), (6, Fraction(2, 8))],
    )
    def test_reward_table(self, distance, expected):
        [uncle] = find_uncles(LONE_CANDIDATE, 1 + distance)
        assert (uncle.distance, uncle.reward) == (distance, expected)

    @pytest.mark.parametrize("distance", [0, 7, -1, 12])
    def test_outside_table_rejected(self, distance):
        assert find_uncles(LONE_CANDIDATE, 1 + distance) == ()


def nephew_reference_paid(uncle_count):
    """What the owner of a round's first block is paid for naming the
    previous round's uncle_count uncles."""
    out = build_outcome(HONEST, 2, [(False, 0, 0)], first_block_owner=1)
    nephew = determine_nephew(out, next_first_owner=HONEST)
    cls = classify_round(out, nephew, find_uncles(out, nephew.height))
    return allocate(out, cls, uncle_count).per_pool[1].nephew


class TestNephewReward:
    def test_values(self):
        assert nephew_reference_paid(0) == 0
        assert nephew_reference_paid(2) == Fraction(1, 16)
        assert nephew_reference_paid(3) == Fraction(3, 32)

    def test_linearity(self):
        unit = nephew_reference_paid(1)
        for n in range(12):
            assert nephew_reference_paid(n) == n * unit


class TestDetermineNephew:
    def test_honest_win_next_block_is_nephew(self):
        out = build_outcome(HONEST, 4, [(False, 0, 0)])
        nephew = determine_nephew(out, next_first_owner=HONEST)
        assert (nephew.owner, nephew.height, nephew.from_reserve) == (HONEST, 5, False)

    def test_reserved_block_is_nephew(self):
        out = build_outcome(1, 2, [(0, 4)], released=2)
        assert out.reserved == 2
        nephew = determine_nephew(out)
        assert (nephew.owner, nephew.height, nephew.from_reserve) == (1, 3, True)

    def test_full_release_defers_to_next_round(self):
        out = build_outcome(1, 2, [(1, 3), (False, 0, 0)], released=3)
        nephew = determine_nephew(out, next_first_owner=2)
        assert (nephew.owner, nephew.height, nephew.from_reserve) == (2, 5, False)

    def test_no_source_raises(self):
        out = build_outcome(HONEST, 2, [(False, 0, 0)])
        with pytest.raises(NephewUnavailable):
            determine_nephew(out)


class TestFindUncles:
    def test_honest_win_first_blocks_qualify(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)])
        got = [(u.owner, u.height, u.distance) for u in find_uncles(out, 5)]
        assert got == [(2, 1, 4), (1, 2, 3)]

    def test_dishonest_win_first_orphaned_honest_block(self):
        out = build_outcome(1, 2, [(0, 4)], released=4)
        got = [(u.owner, u.height, u.distance) for u in find_uncles(out, 5)]
        assert got == [(HONEST, 1, 4)]

    def test_distance_cutoff_excludes(self):
        out = build_outcome(HONEST, 9, [(0, 7)])
        assert find_uncles(out, 10) == ()

    def test_rewards_follow_the_table(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)])
        rewards = {u.owner: u.reward for u in find_uncles(out, 5)}
        assert rewards == {1: Fraction(5, 8), 2: Fraction(4, 8)}

    def test_only_first_block_of_a_chain_qualifies(self):
        out = build_outcome(HONEST, 5, [(0, 3)])
        got = find_uncles(out, 6)
        assert len(got) == 1 and got[0].height == 1

    def test_exclusion_when_honest_uncle_qualifies(self):
        # Dishonest 1 wins from fork position 1; pool 2 forked at 2, on top
        # of the orphaned honest block H_2. Once H_2 qualifies as an uncle,
        # pool 2's first block cannot.
        out = build_outcome(1, 3, [(1, 4), (2, 1)], released=4)
        got = [(u.owner, u.height, u.distance) for u in find_uncles(out, 6)]
        assert got == [(HONEST, 2, 4)]

    def test_no_exclusion_when_fork_is_below_orphaned_honest(self):
        out = build_outcome(1, 3, [(1, 4), (0, 1)], released=4)
        got = [(u.owner, u.height, u.distance) for u in find_uncles(out, 6)]
        assert got == [(2, 1, 5), (HONEST, 2, 4)]

    def test_no_exclusion_when_honest_candidate_too_far(self):
        # Honest orphan at height 2 sits 7 away from the nephew: stale. The
        # exclusion rule never triggers, so pool 2's first block stays in.
        out = build_outcome(1, 3, [(1, 8), (2, 1)], released=8)
        got = [(u.owner, u.height, u.distance) for u in find_uncles(out, 9)]
        assert got == [(2, 3, 6)]

    def test_winner_never_among_uncles(self):
        out = build_outcome(2, 1, [(0, 1), (0, 3)], released=3)
        assert all(u.owner != 2 for u in find_uncles(out, 4))


class TestClassifyRound:
    def test_honest_win_with_mixed_orphans(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)])
        nephew = determine_nephew(out, next_first_owner=HONEST)
        uncles = find_uncles(out, nephew.height)
        cls = classify_round(out, nephew, uncles)
        assert cls.regular_count == 4
        assert cls.uncle_count == 2
        assert cls.stale_count == 1
        assert cls.orphan_count == 3
        ref = reference_analysis(out, 0)
        assert ref["labels"][(1, 3)] == "stale"
        assert ref["labels"][(1, 2)] == "uncle"
        assert (1, 2, 3) in ref["uncles"]
        assert (1, 2, 3) in [(u.owner, u.height, u.distance) for u in cls.uncles]
        assert cls.nephew.uncle_count == 2

    def test_clean_honest_win_has_no_orphans(self):
        out = build_outcome(HONEST, 2, [(False, 0, 0), (False, 0, 0)])
        nephew = determine_nephew(out, next_first_owner=2)
        cls = classify_round(out, nephew, find_uncles(out, nephew.height))
        assert cls.regular_count == 2 and cls.orphan_count == 0

    def test_dishonest_win_orphans_honest_chain(self):
        out = build_outcome(1, 2, [(0, 4)], released=4)
        nephew = determine_nephew(out, next_first_owner=1)
        cls = classify_round(out, nephew, find_uncles(out, nephew.height))
        assert cls.regular_count == 4
        labels = reference_analysis(out, 0)["labels"]
        assert labels[(HONEST, 1)] == "uncle"
        assert labels[(HONEST, 2)] == "stale"
        assert [(u.owner, u.height) for u in cls.uncles] == [(HONEST, 1)]

    def test_every_observed_block_labeled_once(self):
        out = build_outcome(1, 3, [(1, 4), (0, 2)], released=3)
        nephew = determine_nephew(out, next_first_owner=0)
        cls = classify_round(out, nephew, find_uncles(out, nephew.height))
        labels = reference_analysis(out, 0)["labels"]
        assert len(labels) == cls.regular_count + cls.orphan_count
        # reserved block is not observed this round
        assert (1, 5) not in labels

    def test_reserved_blocks_unobserved(self):
        out = build_outcome(1, 2, [(0, 5)], released=3)
        nephew = determine_nephew(out)
        cls = classify_round(out, nephew, find_uncles(out, nephew.height))
        assert cls.regular_count + cls.orphan_count == 3 + 2  # released + honest


class TestRoundRatios:
    def test_honest_win_substitution(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)])
        nephew = determine_nephew(out, next_first_owner=HONEST)
        cls = classify_round(out, nephew, find_uncles(out, nephew.height))
        r = round_ratios(out, cls)
        assert r.chain_quality == 1
        assert r.main_chain == Fraction(4, 7)
        assert r.orphan == Fraction(3, 7)
        assert r.uncle == Fraction(2, 7)
        assert r.stale == Fraction(1, 7)

    def test_dishonest_win_substitution(self):
        out = build_outcome(1, 3, [(1, 3), (0, 2)], released=3, first_block_owner=1)
        nephew = determine_nephew(out, next_first_owner=2)
        cls = classify_round(out, nephew, find_uncles(out, nephew.height))
        assert cls.uncle_count == 2
        r = round_ratios(out, cls)
        assert r.chain_quality == Fraction(1, 4)
        assert r.main_chain == Fraction(1, 2)
        assert r.orphan == Fraction(1, 2)
        assert r.uncle == Fraction(2, 8)
        assert r.stale == Fraction(2, 8)

    def test_clean_round_is_all_main_chain(self):
        out = build_outcome(HONEST, 2, [(False, 0, 0)])
        nephew = determine_nephew(out, next_first_owner=0)
        cls = classify_round(out, nephew, find_uncles(out, nephew.height))
        r = round_ratios(out, cls)
        assert r.main_chain == 1
        assert r.orphan == r.uncle == r.stale == 0

    def test_identities_hold_exactly(self):
        cases = [
            build_outcome(HONEST, 5, [(1, 3), (0, 2)]),
            build_outcome(1, 4, [(1, 5), (2, 1)], released=4),
            build_outcome(2, 2, [(0, 1), (0, 6)], released=5),
        ]
        for out in cases:
            nephew = determine_nephew(out, next_first_owner=0)
            cls = classify_round(out, nephew, find_uncles(out, nephew.height))
            r = round_ratios(out, cls)
            assert r.main_chain + r.orphan == 1
            assert r.orphan == r.uncle + r.stale
