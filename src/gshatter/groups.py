"""Finite groups given by their operations.

Elements are dense indices ``0..n-1``.  A group is its order, its
identity, ``mul``, ``inv`` and a label.  Every group is built from a spec
string such as ``"cyclic:12"``, ``"dihedral:4"`` (order 8) or
``"product:cyclic:2,cyclic:3"``, computes ``mul`` and ``inv`` in closed
form and stores no table.  Its label is that spec in canonical form, so
two groups with one label are one group.  Groups are immutable after
construction.
The only action used anywhere in the package is the left-regular action of
a group on itself, so functions on the acted-on space are simply functions
on the group.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import GroupSpecError, _quoted

# Exhaustive validation is cubic in the group order; above this size we
# fall back to randomized triple sampling.
EXHAUSTIVE_VALIDATION_LIMIT = 128
RANDOM_TRIPLE_SAMPLES = 10_000

# Product specs nest at most this deep.  Each level takes a frame to parse
# and one in every mul and inv call, so this sits far below the recursion limit.
MAX_PRODUCT_DEPTH = 100


class FiniteGroup(NamedTuple):
    """A finite group given by its operations on the indices 0..order-1.

    ``label`` is the canonical spec string the group was built from;
    ``build_group(label)`` builds the same group again.
    """

    order: int
    identity: int
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]
    label: str

    @property
    def mul_table(self) -> tuple[tuple[int, ...], ...]:
        """The n x n multiplication table, computed from ``mul``."""
        mul, n = self.mul, self.order
        return tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    def power(self, g: int, k: int) -> int:
        """g multiplied with itself k times (k may be negative)."""
        if k < 0:
            return self.power(self.inv(g), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, g)
        return acc

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    """The integers mod n under addition."""
    if n < 1:
        raise GroupSpecError(f"cyclic group needs n >= 1, got {n}")
    return FiniteGroup(n, 0, lambda a, b: (a + b) % n, lambda a: -a % n, f"cyclic:{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon; group order 2n.

    Element ``i + n*e`` is the rotation by i steps composed with e
    reflections (e in {0, 1}).  Reflections are their own inverses.
    """
    if n < 1:
        raise GroupSpecError(f"dihedral group needs n >= 1, got {n}")

    def mul(x: int, y: int) -> int:
        # Rotations add, a reflection x reverses y's rotation, and the
        # reflection bits add mod 2: (i1 +- i2) % n + n * (e1 xor e2).
        if x < n:
            return (x + y) % n if y < n else (x + y) % n + n
        return (x - y) % n + n if y < n else (x - y) % n

    def inv(x: int) -> int:
        return x if x >= n else -x % n

    return FiniteGroup(2 * n, 0, mul, inv, f"dihedral:{n}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication.

    The pair (a, b) gets index ``a * g2.order + b``.
    """
    n2 = g2.order
    mul1, mul2, inv1, inv2 = g1.mul, g2.mul, g1.inv, g2.inv

    def mul(x: int, y: int) -> int:
        return mul1(x // n2, y // n2) * n2 + mul2(x % n2, y % n2)

    def inv(x: int) -> int:
        return inv1(x // n2) * n2 + inv2(x % n2)

    return FiniteGroup(
        g1.order * n2, g1.identity * n2 + g2.identity, mul, inv,
        f"product:{g1.label},{g2.label}",
    )


def build_group(spec: str) -> FiniteGroup:
    """Build the group a spec string like ``product:cyclic:2,dihedral:3`` names."""
    if not isinstance(spec, str):
        raise GroupSpecError(f"a group spec must be a string, got {_quoted(spec)}")
    group, pos = _group_at(spec, 0, 0)
    if pos != len(spec):
        raise GroupSpecError(f"trailing characters {_quoted(spec[pos:])} after group spec")
    return group


def _group_at(text: str, pos: int, depth: int) -> tuple[FiniteGroup, int]:
    for kind, factory in (("cyclic", cyclic_group), ("dihedral", dihedral_group)):
        head = kind + ":"
        if text.startswith(head, pos):
            pos += len(head)
            end = pos
            while end < len(text) and text[end] in "0123456789":
                end += 1
            try:
                n = int(text[pos:end])
            except ValueError:  # no digits, or more than int() converts
                raise GroupSpecError(
                    f"expected an integer at position {pos} in {_quoted(text)}"
                ) from None
            return factory(n), end
    if text.startswith("product:", pos):
        if depth == MAX_PRODUCT_DEPTH:
            raise GroupSpecError(f"product specs nest deeper than {MAX_PRODUCT_DEPTH}")
        first, pos = _group_at(text, pos + len("product:"), depth + 1)
        if pos >= len(text) or text[pos] != ",":
            raise GroupSpecError(f"product spec needs ',' at position {pos} in {_quoted(text)}")
        second, pos = _group_at(text, pos + 1, depth + 1)
        return product_group(first, second), pos
    raise GroupSpecError(
        f"unknown group spec at position {pos} in {_quoted(text)}; "
        "expected cyclic:N, dihedral:N or product:<spec>,<spec>"
    )


def find_order_two_element(group: FiniteGroup) -> Optional[int]:
    """Smallest g != e with g*g = e, or None if the group has no involution
    (by Lagrange's theorem none when the order is odd, so no scan then)."""
    if group.order % 2:
        return None
    for g in group.elements():
        if g != group.identity and group.mul(g, g) == group.identity:
            return g
    return None


def find_order_ge3_element(group: FiniteGroup) -> Optional[int]:
    """Smallest g with g != e and g*g != e, or None."""
    for g in group.elements():
        if g != group.identity and group.mul(g, g) != group.identity:
            return g
    return None


class GroupReport(NamedTuple):
    """Validation outcome: one flag per group axiom, under the names
    `gshatter group` prints, and whether every pair of elements commutes."""

    closure: bool
    identity: bool
    inverses: bool
    associativity: bool
    translations_bijective: bool
    exhaustive: bool
    abelian: bool
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_group(group: FiniteGroup, seed: int = 0) -> GroupReport:
    """Check the group axioms through ``mul`` and ``inv``.

    Closure, the bijectivity of left translations and commutativity are
    read from one pass over each element's row of products: a row is closed
    when its set of products is a subset of the n elements, and bijective
    when that set has n members.  Row a is compared with its column from
    a + 1 on, until one row fails to commute.  Associativity is checked on
    every triple for groups of order at most EXHAUSTIVE_VALIDATION_LIMIT
    and on RANDOM_TRIPLE_SAMPLES seeded random triples above that.
    """
    n = group.order
    mul, inv, e = group.mul, group.inv, group.identity
    failures: list[str] = []

    elements = set(range(n))
    closure = translations_bijective = abelian = True
    for a in range(n):
        row = [mul(a, b) for b in range(n)]
        products = set(row)
        closure = closure and products <= elements
        translations_bijective = translations_bijective and len(products) == n
        # Row b < a already compared every pair (b, a).
        abelian = abelian and row[a + 1:] == [mul(b, a) for b in range(a + 1, n)]
    if not closure:
        failures.append("closure: table entry out of range")

    identity = all(mul(e, g) == g and mul(g, e) == g for g in range(n))
    if not identity:
        failures.append("identity: e does not act neutrally")

    inverses = all(mul(g, inv(g)) == e and mul(inv(g), g) == e for g in range(n))
    if not inverses:
        failures.append("inverses: some g lacks a two-sided inverse")

    exhaustive = n <= EXHAUSTIVE_VALIDATION_LIMIT
    if exhaustive:
        triples = product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(RANDOM_TRIPLE_SAMPLES)
        )
    associativity = True
    for a, b, c in triples:
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            associativity = False
            failures.append(f"associativity: fails on triple ({a}, {b}, {c})")
            break

    if not translations_bijective:
        failures.append("translation: left multiplication not bijective")

    return GroupReport(
        closure, identity, inverses, associativity, translations_bijective,
        exhaustive, abelian, failures,
    )
