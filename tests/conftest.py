import pytest

from poolsim.engine import RoundOutcome
from poolsim.engine import HONEST


def build_outcome(winner, honest_len, pools, released=0, first_owner=HONEST):
    """Assemble a RoundOutcome for classifier/allocator tests.

    pools is one (forked, fork_position, length) triple per dishonest pool;
    a bare (fork_position, length) pair means forked. States need not be
    reachable by the engine; the classifier is a pure function of them.
    """
    fork_pos, length = [0], [honest_len]
    for entry in pools:
        forked, pos, own = entry if len(entry) == 3 else (True, *entry)
        fork_pos.append(pos if forked else 0)
        length.append(own)

    if winner == HONEST:
        rel = 0
        reserved = 0
        pegged = honest_len
    else:
        rel = released
        reserved = length[winner] - released
        pegged = fork_pos[winner] + released
    gens = sorted([honest_len] + [p + n if n else 0 for p, n in zip(fork_pos[1:], length[1:])], reverse=True)
    return RoundOutcome(
        winner=winner,
        fork_pos=tuple(fork_pos),
        length=tuple(length),
        released=rel,
        reserved=reserved,
        pegged=pegged,
        first_owner=first_owner,
        events=sum(length),
        longest=gens[0],
        second=gens[1],
    )


def lead_at_least(lead):
    """Termination policy: a dishonest leader ends the round once it leads by at least `lead` blocks."""
    return lambda longest, second, mined: longest - second >= lead


@pytest.fixture
def outcome_builder():
    return build_outcome
