"""Finite groups with explicit multiplication tables.

Elements are dense indices ``0..n-1``.  Groups are built from spec strings
such as ``"cyclic:12"``, ``"dihedral:4"`` (order 8) or
``"product:cyclic:2,cyclic:3"`` and are immutable after construction.
The only action used anywhere in the package is the left-regular action of
a group on itself, so functions on the acted-on space are simply functions
on the group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import GroupSpecError

# Exhaustive validation is cubic in the group order; above this size we
# fall back to randomized triple sampling.
EXHAUSTIVE_VALIDATION_LIMIT = 512
RANDOM_TRIPLE_SAMPLES = 10_000


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group spec string."""

    kind: str  # "cyclic" | "dihedral" | "product"
    n: Optional[int] = None
    factors: Optional[tuple["GroupSpec", "GroupSpec"]] = None

    def __str__(self) -> str:
        if self.kind == "product":
            assert self.factors is not None
            return f"product:{self.factors[0]},{self.factors[1]}"
        return f"{self.kind}:{self.n}"


class FiniteGroup:
    """A finite group given by its multiplication table.

    The table representation is deliberately plain: every construction in
    this package only ever needs ``mul``, ``inv``, the identity, and
    element enumeration.
    """

    def __init__(self, mul_table: list[list[int]], label: str = ""):
        n = len(mul_table)
        if n == 0:
            raise GroupSpecError("a group must have at least one element")
        for row in mul_table:
            if len(row) != n:
                raise GroupSpecError("multiplication table must be square")
        self.order = n
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.label = label or f"table:{n}"
        self.identity = self._find_identity()
        self.inv_table = tuple(self._find_inverse(g) for g in range(n))

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(
                self.mul_table[e][g] == g and self.mul_table[g][e] == g
                for g in range(self.order)
            ):
                return e
        raise GroupSpecError(f"table for '{self.label}' has no identity element")

    def _find_inverse(self, g: int) -> int:
        for h in range(self.order):
            if self.mul_table[g][h] == self.identity:
                if self.mul_table[h][g] != self.identity:
                    raise GroupSpecError(
                        f"element {h} is only a one-sided inverse of {g}"
                    )
                return h
        raise GroupSpecError(f"element {g} has no inverse in '{self.label}'")

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

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

    def element_order(self, g: int) -> int:
        acc = g
        k = 1
        while acc != self.identity:
            acc = self.mul(acc, g)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(
            self.mul_table[a][b] == self.mul_table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    """The integers mod n under addition."""
    if n < 1:
        raise GroupSpecError(f"cyclic group needs n >= 1, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, label=f"cyclic:{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon; group order 2n.

    Element ``i + n*e`` is the rotation by i steps composed with e
    reflections (e in {0, 1}).
    """
    if n < 1:
        raise GroupSpecError(f"dihedral group needs n >= 1, got {n}")
    order = 2 * n

    def compose(x: int, y: int) -> int:
        i1, e1 = x % n, x // n
        i2, e2 = y % n, y // n
        i = (i1 - i2) % n if e1 else (i1 + i2) % n
        return i + n * ((e1 + e2) % 2)

    table = [[compose(x, y) for y in range(order)] for x in range(order)]
    return FiniteGroup(table, label=f"dihedral:{n}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication.

    The pair (a, b) gets index ``a * g2.order + b``.
    """
    n1, n2 = g1.order, g2.order

    def compose(x: int, y: int) -> int:
        a1, b1 = divmod(x, n2)
        a2, b2 = divmod(y, n2)
        return g1.mul(a1, a2) * n2 + g2.mul(b1, b2)

    table = [[compose(x, y) for y in range(n1 * n2)] for x in range(n1 * n2)]
    return FiniteGroup(table, label=f"product:{g1.label},{g2.label}")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string like ``product:cyclic:2,dihedral:3``."""
    spec, pos = _parse_spec_at(text, 0)
    if pos != len(text):
        raise GroupSpecError(
            f"trailing characters {text[pos:]!r} after group spec"
        )
    return spec


def _parse_spec_at(text: str, pos: int) -> tuple[GroupSpec, int]:
    for kind in ("cyclic", "dihedral"):
        head = kind + ":"
        if text.startswith(head, pos):
            pos += len(head)
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            if end == pos:
                raise GroupSpecError(f"expected an integer at position {pos} in {text!r}")
            n = int(text[pos:end])
            if n < 1:
                raise GroupSpecError(f"{kind} group needs n >= 1, got {n}")
            return GroupSpec(kind, n=n), end
    if text.startswith("product:", pos):
        pos += len("product:")
        first, pos = _parse_spec_at(text, pos)
        if pos >= len(text) or text[pos] != ",":
            raise GroupSpecError(f"product spec needs ',' at position {pos} in {text!r}")
        second, pos = _parse_spec_at(text, pos + 1)
        return GroupSpec("product", factors=(first, second)), pos
    raise GroupSpecError(
        f"unknown group spec at position {pos} in {text!r}; "
        "expected cyclic:N, dihedral:N or product:<spec>,<spec>"
    )


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Build the group a spec describes; identical specs yield identical tables."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    elif not isinstance(spec, GroupSpec):
        raise GroupSpecError(f"a group spec must be a string, got {spec!r}")
    if spec.kind == "cyclic":
        assert spec.n is not None
        return cyclic_group(spec.n)
    if spec.kind == "dihedral":
        assert spec.n is not None
        return dihedral_group(spec.n)
    if spec.kind == "product":
        assert spec.factors is not None
        return product_group(build_group(spec.factors[0]), build_group(spec.factors[1]))
    raise GroupSpecError(f"unknown group kind {spec.kind!r}")


def find_order_two_element(group: FiniteGroup) -> Optional[int]:
    """Smallest g != e with g*g = e, or None if the group has no involution."""
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


@dataclass
class GroupReport:
    """Validation outcome, one flag per group axiom."""

    label: str
    order: int
    exhaustive: bool
    closure_ok: bool
    identity_ok: bool
    inverses_ok: bool
    associativity_ok: bool
    translations_bijective: bool
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_group(group: FiniteGroup, seed: int = 0) -> GroupReport:
    """Check the group axioms on the stored tables.

    Associativity is checked on every triple for groups of order at most
    EXHAUSTIVE_VALIDATION_LIMIT and on RANDOM_TRIPLE_SAMPLES seeded random
    triples above that.
    """
    n = group.order
    failures: list[str] = []

    closure_ok = all(
        0 <= group.mul_table[a][b] < n for a in range(n) for b in range(n)
    )
    if not closure_ok:
        failures.append("closure: table entry out of range")

    e = group.identity
    identity_ok = all(
        group.mul(e, g) == g and group.mul(g, e) == g for g in range(n)
    )
    if not identity_ok:
        failures.append("identity: e does not act neutrally")

    inverses_ok = all(
        group.mul(g, group.inv(g)) == e and group.mul(group.inv(g), g) == e
        for g in range(n)
    )
    if not inverses_ok:
        failures.append("inverses: some g lacks a two-sided inverse")

    exhaustive = n <= EXHAUSTIVE_VALIDATION_LIMIT
    if exhaustive:
        triples = (
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        )
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(RANDOM_TRIPLE_SAMPLES)
        )
    associativity_ok = True
    for a, b, c in triples:
        if group.mul(group.mul(a, b), c) != group.mul(a, group.mul(b, c)):
            associativity_ok = False
            failures.append(f"associativity: fails on triple ({a}, {b}, {c})")
            break

    translations_bijective = all(
        len(set(group.mul_table[g])) == n for g in range(n)
    )
    if not translations_bijective:
        failures.append("translation: left multiplication not bijective")

    return GroupReport(
        label=group.label,
        order=n,
        exhaustive=exhaustive,
        closure_ok=closure_ok,
        identity_ok=identity_ok,
        inverses_ok=inverses_ok,
        associativity_ok=associativity_ok,
        translations_bijective=translations_bijective,
        failures=failures,
    )
