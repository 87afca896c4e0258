from itertools import product

import pytest
from hypothesis import given, strategies as st

from poolsim.oracle import (
    CONTINUE,
    DISHONEST_ELIGIBLE,
    HONEST,
    HONEST_WIN,
    AlreadyForked,
    Block,
    InvalidPool,
    InvalidRelease,
    NotForked,
    RoundTree,
    SortedLengths,
    append_block,
    check_termination,
    fork_subchain,
    ride_tip,
    select_main_chain,
    sorted_lengths,
)


def grow(tree, pool, blocks=1):
    for _ in range(blocks):
        tree = append_block(tree, pool)
    return tree


def tree_with_lengths(honest_len, dishonest):
    """dishonest: list of (fork_position, length); length 0 means unforked."""
    tree = RoundTree.empty(len(dishonest))
    tree = grow(tree, HONEST, honest_len)
    for i, (fork_pos, length) in enumerate(dishonest, start=1):
        if length:
            tree = fork_subchain(tree, i, fork_pos)
            tree = grow(tree, i, length)
    return tree


class TestForkSubchain:
    def test_fork_before_any_honest_block(self):
        tree = fork_subchain(RoundTree.empty(2), 1, 0)
        sub = tree.subchain(1)
        assert sub.forked and sub.fork_position == 0 and sub.blocks == ()

    def test_fork_at_height_one(self):
        tree = grow(RoundTree.empty(2), HONEST, 1)
        tree = fork_subchain(tree, 2, 1)
        assert tree.subchain(2).fork_position == 1
        assert tree.subchain(1).forked is False

    def test_double_fork_rejected(self):
        tree = fork_subchain(RoundTree.empty(2), 1, 0)
        with pytest.raises(AlreadyForked):
            fork_subchain(tree, 1, 0)

    def test_honest_pool_cannot_fork(self):
        with pytest.raises(InvalidPool):
            fork_subchain(RoundTree.empty(1), HONEST, 0)

    def test_fork_beyond_honest_tip_rejected(self):
        with pytest.raises(ValueError):
            fork_subchain(RoundTree.empty(1), 1, 1)


class TestAppendBlock:
    def test_honest_heights_sequential(self):
        tree = grow(RoundTree.empty(1), HONEST, 2)
        tree = append_block(tree, HONEST)
        assert tree.honest.blocks[-1] == Block(HONEST, 3, 3)

    def test_dishonest_height_offsets_by_fork(self):
        tree = grow(RoundTree.empty(1), HONEST, 1)
        tree = fork_subchain(tree, 1, 1)
        tree = append_block(tree, 1)
        assert tree.subchain(1).blocks == (Block(1, 2, 1),)

    def test_append_without_fork_rejected(self):
        with pytest.raises(NotForked):
            append_block(RoundTree.empty(2), 2)

    def test_operations_do_not_mutate_input(self):
        tree = RoundTree.empty(1)
        append_block(tree, HONEST)
        assert tree.honest.blocks == ()


class TestSortedLengths:
    def test_mixed_lengths_sorted_descending(self):
        tree = tree_with_lengths(3, [(1, 4), (0, 2)])  # gen lengths 5 and 2
        lengths = sorted_lengths(tree)
        assert lengths.entries == ((1, 5), (HONEST, 3), (2, 2))
        assert (lengths.omega1, lengths.omega2, lengths.leader) == (5, 3, 1)

    def test_unforked_pools_count_zero(self):
        tree = tree_with_lengths(2, [(0, 0), (0, 0)])
        lengths = sorted_lengths(tree)
        assert lengths.entries == ((HONEST, 2), (1, 0), (2, 0))
        assert (lengths.omega1, lengths.omega2) == (2, 0)

    def test_empty_round_leader_is_honest(self):
        lengths = sorted_lengths(RoundTree.empty(2))
        assert lengths.leader == HONEST
        assert lengths.omega1 == lengths.omega2 == 0

    def test_tie_break_honest_first_then_index(self):
        tree = tree_with_lengths(2, [(0, 2), (0, 2)])
        assert sorted_lengths(tree).entries == ((HONEST, 2), (1, 2), (2, 2))

    @given(
        st.integers(0, 8),
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=3
        ),
    )
    def test_entries_are_a_permutation_with_max_on_top(self, honest_len, dishonest):
        dishonest = [(min(k, honest_len), l) for k, l in dishonest]
        tree = tree_with_lengths(honest_len, dishonest)
        lengths = sorted_lengths(tree)
        assert sorted(p for p, _ in lengths.entries) == list(range(len(dishonest) + 1))
        values = [g for _, g in lengths.entries]
        assert values == sorted(values, reverse=True)
        assert lengths.omega1 == max(values)


class TestRideTip:
    def test_forked_chains_move_onto_the_honest_tip(self):
        tree = ride_tip(tree_with_lengths(3, [(1, 4), (0, 2), (0, 0)]))
        assert [(s.fork_position, s.length) for s in tree.dishonest[:2]] == [(3, 4), (3, 2)]
        assert [b.height for b in tree.subchain(1).blocks] == [4, 5, 6, 7]
        assert [b.ordinal for b in tree.subchain(1).blocks] == [1, 2, 3, 4]
        assert tree.subchain(3).forked is False
        assert tree.honest.blocks == tuple(Block(HONEST, h, h) for h in (1, 2, 3))

    def test_lengths_measure_from_the_tip(self):
        # Same tree as the mixed-lengths case: riding the tip, each forked
        # chain measures honest length 3 plus its own blocks.
        tree = ride_tip(tree_with_lengths(3, [(1, 4), (0, 2)]))
        assert sorted_lengths(tree).entries == ((1, 7), (2, 5), (HONEST, 3))

    def test_pegging_keeps_every_honest_block(self):
        tree = ride_tip(tree_with_lengths(4, [(0, 2)]))
        pegged = select_main_chain(tree, 1, 2)
        assert [(b.owner, b.height) for b in pegged] == [(HONEST, h) for h in range(1, 5)] + [(1, 5), (1, 6)]


class TestCheckTermination:
    def test_honest_two_ahead_wins(self):
        lengths = SortedLengths(((HONEST, 2), (1, 0), (2, 0)))
        verdict = check_termination(lengths)
        assert verdict.state == HONEST_WIN and verdict.ends_round

    def test_dishonest_leader_two_ahead_is_eligible(self):
        lengths = SortedLengths(((1, 4), (HONEST, 2), (2, 1)))
        verdict = check_termination(lengths)
        assert verdict.state == DISHONEST_ELIGIBLE and verdict.pool == 1

    def test_single_block_lead_continues(self):
        lengths = SortedLengths(((HONEST, 3), (1, 2)))
        assert check_termination(lengths).state == CONTINUE

    def test_exhaustive_small_states(self):
        # Over all generalized-length vectors with entries <= 8 and m <= 3:
        # every sub-threshold state continues, and an honest win only ever
        # goes to an honest leader under the deterministic tie-break.
        for m in (1, 2, 3):
            for gens in product(range(9), repeat=m + 1):
                tree = tree_with_lengths(gens[0], [(0, g) for g in gens[1:]])
                lengths = sorted_lengths(tree)
                verdict = check_termination(lengths)
                lead = lengths.omega1 - lengths.omega2
                if lead < 2:
                    assert verdict.state == CONTINUE
                elif verdict.state == HONEST_WIN:
                    assert lengths.leader == HONEST
                else:
                    assert verdict.pool == lengths.leader != HONEST
                # determinism: recomputing gives the same verdict
                assert check_termination(sorted_lengths(tree)) == verdict


class TestSelectMainChain:
    def test_honest_winner_pegs_whole_chain(self):
        tree = tree_with_lengths(2, [(0, 0)])
        assert select_main_chain(tree, HONEST, 2) == tree.honest.blocks
        assert len(select_main_chain(tree, HONEST, 2)) == 2

    def test_dishonest_winner_pegs_prefix_plus_release(self):
        tree = tree_with_lengths(3, [(1, 3)])
        chain = select_main_chain(tree, 1, 3)
        assert chain == (Block(HONEST, 1, 1), Block(1, 2, 1), Block(1, 3, 2), Block(1, 4, 3))

    def test_release_beyond_mined_rejected(self):
        tree = tree_with_lengths(2, [(0, 4)])
        with pytest.raises(InvalidRelease):
            select_main_chain(tree, 1, 5)

    def test_zero_release_rejected(self):
        tree = tree_with_lengths(2, [(0, 4)])
        with pytest.raises(InvalidRelease):
            select_main_chain(tree, 1, 0)

    def test_pegged_length_matches_fork_plus_release(self):
        for fork_pos, length, released in [(0, 2, 2), (1, 4, 2), (2, 3, 3)]:
            tree = tree_with_lengths(4, [(fork_pos, length)])
            assert len(select_main_chain(tree, 1, released)) == fork_pos + released
