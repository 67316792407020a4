"""Complete sets of orders and the subset maps that build them.

A ranking "separates" a subset A of [m] when every element of A is ranked
strictly below every element of the complement.  A set of rankings is
complete when every one of the 2^m subsets is separated by some strict
ranking in the set.  This module constructs a complete set of exactly
C(m, floor(m/2)) rankings — the smallest possible — by peeling subsets
one element at a time with a family of maps F: S(q, m) -> S(q-1, m).
`f_map` computes F by bracket matching, as in Greene and Kleitman's
symmetric chain decomposition; F is injective when C(m, q) <= C(m, q-1),
surjective when C(m, q) >= C(m, q-1) and bijective at m = 2q-1.  A
ranking is the order in which a peel chain, read upward, adds elements:
the paper's sigma~, the step that drops each element, read in reverse.

Subsets of [m] = {1, ..., m} are bitmasks: bit i-1 stands for element i.
A ranking of [m] is a tuple of m ranks, element k's at index k-1; it is
strict when the ranks are a permutation of 1..m.
"""

from __future__ import annotations

from itertools import combinations, pairwise
from math import comb

from .errors import InvariantError


def mask_elements(mask: int) -> list[int]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def f_map(q: int, m: int, mask: int) -> int:
    """F(A) for A in S(q, m): A without one element, found in one pass.

    Strip [m] from the top while q > 1 and m != 2q-1; a stripped element of
    A stays in F(A) and takes q down by one.  If q = 1 now, F(A) drops A's
    one element in [1, m].  Otherwise read 1..m: each element of A opens a
    bracket, each missing one closes the latest open one, and F(A) drops
    the smallest element left open.  The paper's recursion strips the same
    way; at m = 2q-1 it keeps in F(A) a j in A with j+1 missing and recurses
    on the rest.  The pair is matched, so the rest matches as before; the
    interval {q, ..., 2q-1} it ends on drops its minimum, the first open one.
    """
    if m < 1 or not 0 <= q <= m:
        raise ValueError(f"f_map: need 0 <= q <= m with m >= 1, got q={q}, m={m}")
    if mask >> m:
        raise ValueError(f"f_map: mask {mask:#x} has elements above {m}")
    if mask.bit_count() != q:
        raise ValueError(f"f_map: mask has {mask.bit_count()} elements, expected {q}")
    if q < 1:
        raise ValueError("f_map needs a nonempty subset")
    while q > 1 and m != 2 * q - 1:
        m -= 1
        q -= mask >> m & 1
    if q == 1:
        return mask >> m << m
    opened = []
    for i in range(m):  # bit i stands for element i + 1
        if mask >> i & 1:
            opened.append(i)
        elif opened:
            opened.pop()
    return mask & ~(1 << opened[0])


def peel_chain(mask: int, m: int) -> list[int]:
    """The descending chain A, F(A), F(F(A)), ..., empty set."""
    chain = [mask]
    q = mask.bit_count()
    while q > 0:
        mask = f_map(q, m, mask)
        q -= 1
        chain.append(mask)
    return chain


class OrderSet:
    """A collection of rankings of [m]."""

    __slots__ = ("m", "rankings")

    def __init__(self, m: int, rankings: tuple[tuple[int, ...], ...]):
        for r in rankings:
            if len(r) != m:
                raise ValueError(f"ranking {r} does not have length m={m}")
        self.m, self.rankings = m, rankings

    def __eq__(self, other: object) -> bool:
        if type(other) is not OrderSet:
            return NotImplemented
        return self.m == other.m and self.rankings == other.rankings


def is_strict(ranks: tuple[int, ...]) -> bool:
    """Whether the ranks are a permutation of 1..m: no two values tie."""
    return sorted(ranks) == list(range(1, len(ranks) + 1))


def separated_masks(ranking: tuple[int, ...]) -> set[int]:
    """All subsets this ranking places strictly below their complement.

    For a strict ranking these are exactly its m+1 rank prefixes; a
    ranking that is not strict separates only the trivial subsets.
    """
    m = len(ranking)
    at_rank = [0] * m  # at_rank[k - 1]: the bit of the element ranked k
    for i, r in enumerate(ranking):
        if not 0 < r <= m or at_rank[r - 1]:  # a rank outside 1..m, or a tie
            return {0, (1 << m) - 1}
        at_rank[r - 1] = 1 << i
    out, acc = {0}, 0
    for bit in at_rank:
        acc |= bit
        out.add(acc)
    return out


def is_complete(order_set: OrderSet) -> bool:
    """Whether every subset of [m] is separated by some strict ranking.

    The empty set and [m] count as separated by any ranking at all.
    """
    if not order_set.rankings:
        return False
    m = order_set.m
    covered: set[int] = {0, (1 << m) - 1}
    for r in order_set.rankings:
        covered |= separated_masks(r)
    return len(covered) == 1 << m  # rankings have length m: masks < 2^m


def completeness_lower_bound(m: int) -> int:
    """No complete set has fewer than C(m, floor(m/2)) rankings.

    A strict ranking separates exactly one subset of size floor(m/2)
    (its bottom prefix), so the middle layer alone forces this many.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return comb(m, m // 2)


def _ranking_for(chain: list[int], m: int) -> tuple[int, ...]:
    """Strict ranking that separates a subset A and its whole peel chain.

    Read upward (sigma~ reversed), A's peel chain `chain` adds one element
    per step: ranks 1..|A| in that order, so every bottom prefix is a chain
    set.  The complement's chain adds ranks |A|+1..m.  f_map checks its
    input's size on every call, so each step adds one element; one that
    did not would leave an element at rank 0, which `is_strict` refuses.
    """
    comp = ((1 << m) - 1) & ~chain[0]
    added = (
        a & ~b for c in (chain, peel_chain(comp, m)) for b, a in pairwise(reversed(c))
    )
    ranks = [0] * m
    for rank, bit in enumerate(added, 1):
        ranks[bit.bit_length() - 1] = rank
    return tuple(ranks)


def build_complete_orders(m: int) -> OrderSet:
    """A complete set of orders of the minimum size C(m, floor(m/2)).

    Walk the subset layers from size m down to the middle; any subset not
    separated yet gets its own ranking, which also separates the entire
    peel chain hanging below it.  Below the middle layer the chains cover
    everything, because the peeling maps are surjective there.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    rankings: list[tuple[int, ...]] = []
    separated: set[int] = set()
    for size in range(m, (m + 1) // 2 - 1, -1):
        layer = sorted(
            sum(1 << (e - 1) for e in combo)
            for combo in combinations(range(1, m + 1), size)
        )
        for mask in layer:
            if mask in separated:
                continue
            chain = peel_chain(mask, m)
            ranking = _ranking_for(chain, m)
            if not is_strict(ranking):
                raise InvariantError(f"ranking {ranking} is not strict")
            rankings.append(ranking)
            separated.update(chain)
    if len(rankings) != comb(m, m // 2):
        raise InvariantError(f"built {len(rankings)} rankings, not C({m}, {m // 2})")
    return OrderSet(m, tuple(rankings))
