from fractions import Fraction

import numpy as np
import pytest

from poolsim.classify import classify_round, determine_nephew, find_uncles
from poolsim.engine import HONEST, SimConfig
from poolsim.oracle import EventScript, close_replay, replay_script, script_config
from poolsim.pipeline import simulate_rounds
from poolsim.rewards import allocate

from conftest import build_outcome


def closed(out, next_owner, prev_uncles=0):
    nephew = determine_nephew(out, next_owner)
    cls = classify_round(out, nephew, find_uncles(out, nephew.height))
    return cls, allocate(out, cls, prev_uncles)


class TestAllocate:
    def test_honest_win_books_regulars_and_uncles(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)])
        _, rewards = closed(out, next_owner=HONEST)
        assert rewards.per_pool[0].regular == 4
        assert rewards.per_pool[1].uncle == Fraction(5, 8)
        assert rewards.per_pool[2].uncle == Fraction(4, 8)
        assert rewards.per_pool[1].regular == rewards.per_pool[2].regular == 0

    def test_dishonest_win_books_release_and_honest_uncle(self):
        out = build_outcome(1, 2, [(0, 4)], released=4, first_block_owner=HONEST)
        _, rewards = closed(out, next_owner=1)
        assert rewards.per_pool[1].regular == 4
        assert rewards.per_pool[0].regular == 0
        assert rewards.per_pool[0].uncle == Fraction(1, 2)

    def test_previous_nephew_owner_collects_reference_reward(self):
        out = build_outcome(HONEST, 2, [(False, 0, 0)], first_block_owner=HONEST)
        _, rewards = closed(out, next_owner=HONEST, prev_uncles=2)
        assert rewards.per_pool[0].regular == 2
        assert rewards.per_pool[0].nephew == Fraction(1, 16)
        assert rewards.per_pool[0].total == 2 + Fraction(1, 16)

    def test_dishonest_first_block_collects_reference_reward(self):
        out = build_outcome(HONEST, 3, [(0, 1)], first_block_owner=1)
        _, rewards = closed(out, next_owner=HONEST, prev_uncles=3)
        assert rewards.per_pool[1].nephew == Fraction(3, 32)
        assert rewards.per_pool[0].nephew == 0

    def test_honest_prefix_paid_when_dishonest_wins(self):
        out = build_outcome(1, 3, [(1, 4)], released=4, first_block_owner=HONEST)
        _, rewards = closed(out, next_owner=HONEST)
        assert rewards.per_pool[0].regular == 1  # pegged honest prefix
        assert rewards.per_pool[1].regular == 4

    def test_reserved_blocks_earn_nothing_now(self):
        out = build_outcome(1, 2, [(0, 5)], released=3, first_block_owner=1)
        _, rewards = closed(out, next_owner=None)
        assert rewards.per_pool[1].regular == 3  # not 5


def uncle_payments(classification):
    """Uncle payments a closed round settles, in (height, pool) order."""
    return [(u.owner, u.reward) for u in classification.uncles]


class TestSettleUncleRewards:
    def test_payments_follow_table(self):
        out = build_outcome(HONEST, 4, [(1, 2), (0, 1)])
        cls, _ = closed(out, next_owner=HONEST)
        assert uncle_payments(cls) == [(2, Fraction(4, 8)), (1, Fraction(5, 8))]

    def test_no_uncles_no_payments(self):
        out = build_outcome(HONEST, 2, [(False, 0, 0)])
        cls, _ = closed(out, next_owner=HONEST)
        assert uncle_payments(cls) == []

    def test_same_payments_for_reserve_nephew(self):
        # The uncle payments of a round do not depend on which source
        # provided the nephew, only the nephew's height.
        full = build_outcome(1, 2, [(0, 4), (0, 1)], released=4, first_block_owner=1)
        held = build_outcome(1, 2, [(0, 5), (0, 1)], released=4, first_block_owner=1)
        cls_full, _ = closed(full, next_owner=2)
        cls_held, _ = closed(held, next_owner=None)
        assert cls_held.nephew.from_reserve and not cls_full.nephew.from_reserve
        assert uncle_payments(cls_full) == uncle_payments(cls_held)


class TestConservation:
    def test_regular_rewards_equal_pegged_blocks(self):
        config = SimConfig.from_alphas([0.55, 0.32, 0.13])
        _, records = simulate_rounds(config, 2000, seed=np.random.SeedSequence(17), collect=True)
        for rec in records:
            total = sum(p.regular for p in rec.rewards.per_pool)
            assert total == rec.outcome.pegged_count

    def test_uncle_payments_match_classification(self):
        config = SimConfig.from_alphas([0.5, 0.37, 0.13])
        _, records = simulate_rounds(config, 2000, seed=np.random.SeedSequence(23), collect=True)
        for rec in records:
            booked = sum(p.uncle for p in rec.rewards.per_pool)
            expected = sum(u.reward for u in rec.classification.uncles)
            assert booked == expected

    def test_nephew_reference_booked_exactly_once_next_round(self):
        config = SimConfig.from_alphas([0.5, 0.37, 0.13])
        _, records = simulate_rounds(config, 2000, seed=np.random.SeedSequence(29), collect=True)
        for prev, cur in zip(records, records[1:]):
            booked = sum(p.nephew for p in cur.rewards.per_pool)
            assert booked == Fraction(prev.classification.uncle_count, 32)
            if prev.classification.uncle_count:
                holder = cur.outcome.first_block_owner
                assert cur.rewards.per_pool[holder].nephew == booked

    def test_all_components_non_negative(self):
        config = SimConfig.from_alphas([0.6, 0.27, 0.13])
        _, records = simulate_rounds(config, 1000, seed=np.random.SeedSequence(31), collect=True)
        for rec in records:
            for pool_reward in rec.rewards.per_pool:
                assert pool_reward.regular >= 0
                assert pool_reward.uncle >= 0
                assert pool_reward.nephew >= 0


class TestDishonestSymmetry:
    def test_swapping_dishonest_pools_permutes_rewards(self):
        # Relabel pools 1 and 2 in the event order: every reward vector must
        # permute the same way.
        config = script_config(2)
        events = (1, 0, 2, 1, 1, 0, 0, 2, 2, 0, 0, 0, 1, 1)
        swap = {0: 0, 1: 2, 2: 1}
        swapped = tuple(swap[e] for e in events)
        # The honest pool, which the swap fixes, mines the block after the script.
        [records_a] = close_replay(replay_script(EventScript(events), config), [HONEST])
        [records_b] = close_replay(replay_script(EventScript(swapped), config), [HONEST])
        assert len(records_a) == len(records_b)
        for a, b in zip(records_a, records_b):
            assert a.outcome.winner == swap[b.outcome.winner] or swap[a.outcome.winner] == b.outcome.winner
            totals_a = [p.total for p in a.rewards.per_pool]
            totals_b = [p.total for p in b.rewards.per_pool]
            assert totals_a == [totals_b[swap[p]] for p in range(3)]
