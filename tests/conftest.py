import pytest

from poolsim.engine import PoolRoundStat, RoundOutcome
from poolsim.engine import HONEST


def build_outcome(winner, honest_len, pools, released=0, first_block_owner=HONEST, duration=1.0):
    """Assemble a RoundOutcome for classifier/allocator tests.

    pools is one (forked, fork_position, length) triple per dishonest pool;
    a bare (fork_position, length) pair means forked. States need not be
    reachable by the engine; the classifier is a pure function of them.
    """
    stats = []
    for entry in pools:
        forked, fork_pos, length = entry if len(entry) == 3 else (True, *entry)
        stats.append(PoolRoundStat(forked, fork_pos if forked else 0, length))

    if winner == HONEST:
        rel = 0
        reserved = 0
    else:
        rel = released
        reserved = stats[winner - 1].length - released
    gens = sorted([honest_len] + [s.fork_position + s.length if s.forked else 0 for s in stats], reverse=True)
    return RoundOutcome(
        winner=winner,
        honest_length=honest_len,
        per_pool=tuple(stats),
        released=rel,
        reserved=reserved,
        duration=duration,
        first_block_owner=first_block_owner,
        fork_order=tuple(i for i, s in enumerate(stats, start=1) if s.forked),
        longest=gens[0],
        second=gens[1],
        events=honest_len + sum(s.length for s in stats),
    )


@pytest.fixture
def outcome_builder():
    return build_outcome
