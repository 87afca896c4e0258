"""Per-round tree state of the mining competition.

A round is represented as a tree with m+1 sub-chains: one honest chain and
one (initially empty) chain per dishonest pool. A dishonest chain forks off
the honest chain at the honest tip when the pool mines its first block of the
round. Under the anchored fork rule that fork position stays fixed; under the
tip rule (ride_tip) every forked chain moves up with each honest block. The
round ends under the two-block leading criterion, evaluated on the
generalized lengths (fork position plus own blocks) of all sub-chains; block
heights and main-chain selection use the same fork position.

All operations here are value-semantic: they take a tree and return a new
one, so trees can be shared freely across simulation workers. The engine
plays rounds on plain counters and never builds a tree; round_tree derives
one from a finished round's counters on demand, for the oracle and tests.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

HONEST = 0

DEFAULT_LEAD_THRESHOLD = 2

FORK_ANCHORED = "anchored"
FORK_TIP = "tip"
FORK_RULES = (FORK_ANCHORED, FORK_TIP)


class InvalidPool(ValueError):
    """An operation named a pool that cannot perform it."""


class AlreadyForked(ValueError):
    """A dishonest pool tried to fork twice in one round."""


class NotForked(ValueError):
    """A dishonest pool tried to extend a chain it has not forked yet."""


class InvalidRelease(ValueError):
    """The released block count is outside the winner's mined range."""


@dataclass(frozen=True)
class Block:
    """One mined block.

    height counts from the round genesis (first block of the round = 1);
    ordinal is the 1-based position within the owner's own sequence. For an
    honest block the two coincide; for a dishonest block height equals the
    fork position plus the ordinal.
    """

    owner: int
    height: int
    ordinal: int


@dataclass(frozen=True)
class SubChain:
    """The blocks one pool has mined this round.

    A dishonest sub-chain is empty until the pool forks; fork_position is
    meaningful only while forked is True. It changes within a round only
    under the tip fork rule, through ride_tip.
    """

    owner: int
    fork_position: int = 0
    blocks: Tuple[Block, ...] = ()
    forked: bool = False

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def generalized_length(self) -> int:
        if self.owner == HONEST:
            return len(self.blocks)
        return self.fork_position + len(self.blocks) if self.forked else 0


@dataclass(frozen=True)
class RoundTree:
    honest: SubChain
    dishonest: Tuple[SubChain, ...]

    @classmethod
    def empty(cls, num_dishonest: int) -> "RoundTree":
        if num_dishonest < 1:
            raise ValueError("need at least one dishonest pool")
        return cls(
            honest=SubChain(owner=HONEST),
            dishonest=tuple(SubChain(owner=i) for i in range(1, num_dishonest + 1)),
        )

    @property
    def num_dishonest(self) -> int:
        return len(self.dishonest)

    @property
    def honest_length(self) -> int:
        return len(self.honest.blocks)

    def subchain(self, pool: int) -> SubChain:
        if pool == HONEST:
            return self.honest
        if not 1 <= pool <= len(self.dishonest):
            raise InvalidPool(f"no pool {pool} in a tree with {len(self.dishonest)} dishonest pools")
        return self.dishonest[pool - 1]

    def _with_subchain(self, pool: int, sub: SubChain) -> "RoundTree":
        if pool == HONEST:
            return replace(self, honest=sub)
        chains = list(self.dishonest)
        chains[pool - 1] = sub
        return replace(self, dishonest=tuple(chains))


@dataclass(frozen=True)
class SortedLengths:
    """Generalized lengths of all pools, longest first.

    Ties are broken deterministically: the honest pool sorts before any
    dishonest pool of equal length, then by ascending pool index. The
    tie-break never affects a termination verdict (the leader only matters
    once its lead is at least the threshold, i.e. strictly positive).
    """

    entries: Tuple[Tuple[int, int], ...]  # (pool, generalized length)

    @property
    def omega1(self) -> int:
        return self.entries[0][1]

    @property
    def omega2(self) -> int:
        return self.entries[1][1]

    @property
    def leader(self) -> int:
        return self.entries[0][0]


CONTINUE = "continue"
HONEST_WIN = "honest-win"
DISHONEST_ELIGIBLE = "dishonest-eligible"


@dataclass(frozen=True)
class TerminationVerdict:
    state: str
    pool: Optional[int] = None

    @property
    def ends_round(self) -> bool:
        return self.state != CONTINUE


def fork_subchain(tree: RoundTree, pool: int, honest_length_now: int) -> RoundTree:
    """Fix a dishonest pool's fork position at the current honest tip."""
    if pool == HONEST:
        raise InvalidPool("the honest pool never forks")
    sub = tree.subchain(pool)
    if sub.forked:
        raise AlreadyForked(f"pool {pool} already forked at {sub.fork_position}")
    if not 0 <= honest_length_now <= tree.honest_length:
        raise ValueError(f"fork position {honest_length_now} beyond honest length {tree.honest_length}")
    return tree._with_subchain(pool, replace(sub, forked=True, fork_position=honest_length_now))


def append_block(tree: RoundTree, pool: int) -> RoundTree:
    """Append the next block to a pool's sub-chain."""
    sub = tree.subchain(pool)
    if pool != HONEST and not sub.forked:
        raise NotForked(f"pool {pool} must fork before mining")
    ordinal = len(sub.blocks) + 1
    base = 0 if pool == HONEST else sub.fork_position
    block = Block(owner=pool, height=base + ordinal, ordinal=ordinal)
    return tree._with_subchain(pool, replace(sub, blocks=sub.blocks + (block,)))


def ride_tip(tree: RoundTree) -> RoundTree:
    """Move every forked dishonest chain onto the current honest tip.

    This is the tip fork rule's step after each honest block: the chain keeps
    its own blocks, its fork position becomes the honest length, and its
    block heights follow, so the generalized length it is compared by and
    the heights it is pegged and classified at share one base.
    """
    v = tree.honest_length
    chains = tuple(
        replace(
            sub,
            fork_position=v,
            blocks=tuple(Block(b.owner, v + b.ordinal, b.ordinal) for b in sub.blocks),
        )
        if sub.forked else sub
        for sub in tree.dishonest
    )
    return replace(tree, dishonest=chains)


def round_tree(outcome) -> RoundTree:
    """The block tree of a finished round, rebuilt from its counters.

    Heights use each dishonest chain's final fork position, which under the
    tip rule is the honest length the chain rode up to.
    """
    v = outcome.honest_length
    chains = tuple(
        SubChain(i, stat.fork_position, tuple(Block(i, stat.fork_position + j, j) for j in range(1, stat.length + 1)), True)
        if stat.forked else SubChain(i)
        for i, stat in enumerate(outcome.per_pool, start=1)
    )
    return RoundTree(SubChain(HONEST, blocks=tuple(Block(HONEST, h, h) for h in range(1, v + 1))), chains)


def sorted_lengths(tree: RoundTree) -> SortedLengths:
    pairs = [(HONEST, tree.honest.generalized_length)]
    pairs += [(sub.owner, sub.generalized_length) for sub in tree.dishonest]
    pairs.sort(key=lambda e: (-e[1], e[0]))
    return SortedLengths(entries=tuple(pairs))


def check_termination(
    lengths: SortedLengths, lead_threshold: int = DEFAULT_LEAD_THRESHOLD
) -> TerminationVerdict:
    """Apply the two-block leading criterion to sorted generalized lengths.

    An honest leader wins outright; a dishonest leader merely becomes
    eligible to end the round (whether it does is the engine's policy).
    Under single-block events the honest lead reaches the threshold exactly,
    so testing >= here coincides with equality on reachable states.
    """
    if lengths.omega1 - lengths.omega2 < lead_threshold:
        return TerminationVerdict(CONTINUE)
    if lengths.leader == HONEST:
        return TerminationVerdict(HONEST_WIN, HONEST)
    return TerminationVerdict(DISHONEST_ELIGIBLE, lengths.leader)


def select_main_chain(tree: RoundTree, winner: int, released: int) -> Tuple[Block, ...]:
    """Blocks pegged onto the blockchain when `winner` ends the round.

    An honest winner pegs its whole chain (released is ignored). A dishonest
    winner pegs the honest prefix up to its fork position plus `released` of
    its own blocks; the remainder stays private.
    """
    if winner == HONEST:
        return tree.honest.blocks
    sub = tree.subchain(winner)
    if not sub.forked or not 1 <= released <= sub.length:
        raise InvalidRelease(
            f"pool {winner} cannot release {released} of {sub.length if sub.forked else 0} blocks"
        )
    if sub.fork_position > tree.honest_length:
        raise ValueError("fork position beyond honest chain")
    return tree.honest.blocks[: sub.fork_position] + sub.blocks[:released]
