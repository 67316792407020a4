"""Rational-valued functions on a finite group, measures, and convolution.

Everything here is exact: values are `fractions.Fraction` and floats are
rejected outright, because downstream constructions compare quantities
whose gaps shrink super-exponentially and a single rounding step could
flip an order comparison.  The convolution runs on integers over one
denominator (`convolve_ints`); `convolve` gives its values as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational as _RationalABC
from typing import Iterable, Sequence

from .groups import FiniteGroup


def _as_fraction(x: object, what: str) -> Fraction:
    if type(x) is Fraction:  # immutable: no copy needed
        return x
    if isinstance(x, float):
        raise TypeError(f"{what} must be exact rationals, got float {x!r}")
    if isinstance(x, _RationalABC):
        return Fraction(x)
    raise TypeError(f"{what} must be int or Fraction, got {type(x).__name__}")


def _same_group(a: FiniteGroup, b: FiniteGroup, what: str) -> None:
    if a is b or a.key == b.key:
        return
    raise ValueError(
        f"{what}: group mismatch ({a.label!r} vs {b.label!r})"
    )


@dataclass(frozen=True)
class GroupFunction:
    """An exact function G -> Q, stored as one value per element index."""

    group: FiniteGroup
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.group.order:
            raise ValueError(
                f"function has {len(self.values)} values for a group of "
                f"order {self.group.order}"
            )

    @classmethod
    def from_values(
        cls, group: FiniteGroup, values: Iterable[object]
    ) -> "GroupFunction":
        vals = tuple(_as_fraction(v, "function values") for v in values)
        return cls(group, vals)

    def __call__(self, g: int) -> Fraction:
        return self.values[g]

    def support(self) -> list[int]:
        return [g for g in range(self.group.order) if self.values[g] != 0]

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


@dataclass(frozen=True)
class Measure:
    """A finite measure on the group: non-negative weight per element."""

    group: FiniteGroup
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.group.order:
            raise ValueError("measure needs one weight per group element")
        if any(w < 0 for w in self.weights):
            raise ValueError("measure weights must be non-negative")
        # With no weight negative, the total is positive exactly when one is.
        if not any(self.weights):
            raise ValueError("measure must have positive total mass")

    @classmethod
    def from_weights(
        cls, group: FiniteGroup, weights: Iterable[object]
    ) -> "Measure":
        ws = tuple(_as_fraction(w, "measure weights") for w in weights)
        return cls(group, ws)

    def __call__(self, g: int) -> Fraction:
        return self.weights[g]


def counting_measure(group: FiniteGroup) -> Measure:
    """Weight 1 on every element -- the default measure everywhere."""
    return Measure(group, (Fraction(1),) * group.order)


def indicator(group: FiniteGroup, g: int) -> GroupFunction:
    """The function that is 1 at g and 0 elsewhere."""
    if not 0 <= g < group.order:
        raise ValueError(f"element index {g} out of range for {group.label}")
    values = tuple(
        Fraction(1) if h == g else Fraction(0) for h in range(group.order)
    )
    return GroupFunction(group, values)


def constant(group: FiniteGroup, value: object) -> GroupFunction:
    v = _as_fraction(value, "constant value")
    return GroupFunction(group, tuple(v for _ in range(group.order)))


def translate(f: GroupFunction, a: int) -> GroupFunction:
    """The function g -> f(a*g)."""
    group = f.group
    if not 0 <= a < group.order:
        raise ValueError(f"element index {a} out of range for {group.label}")
    values = tuple(f.values[group.mul(a, g)] for g in range(group.order))
    return GroupFunction(group, values)


def as_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den): values[i] = nums[i] / den, den the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def convolve_ints(
    fs: Sequence[GroupFunction], kernel: GroupFunction, mu: Measure
) -> list[tuple[list[int], int]]:
    """(f * K)(g) = sum_h f(g h^-1) K(h) mu(h) as (nums, den) per f in fs.

    Each term f(a) K(h) mu(h) lands at g = a h, so only pairs of a support
    point of f and one of K mu are visited: O(|supp f| * |supp K mu|).
    With K mu made integer once and each f over its own denominator
    every term is an integer; one gcd at the end leaves den the lcm of
    the reduced denominators of the values nums[g] / den.
    """
    mul, n = kernel.group.mul, kernel.group.order
    k_nums, k_den = as_integers(kernel.values)
    weights, w_den = as_integers(mu.weights)
    terms = [(h, k * w) for h, (k, w) in enumerate(zip(k_nums, weights)) if k and w]
    results = []
    for f in fs:
        _same_group(f.group, kernel.group, "convolve")
        _same_group(f.group, mu.group, "convolve")
        f_nums, f_den = as_integers(f.values)
        acc = [0] * n
        for a, fa in enumerate(f_nums):
            if fa:
                for h, kw in terms:
                    acc[mul(a, h)] += fa * kw
        common = gcd(f_den * k_den * w_den, *acc)
        results.append(([x // common for x in acc], f_den * k_den * w_den // common))
    return results


def convolve(f: GroupFunction, kernel: GroupFunction, mu: Measure) -> GroupFunction:
    """Generalized group convolution (f * K)(g) = sum_h f(g h^-1) K(h) mu(h)."""
    [(nums, den)] = convolve_ints([f], kernel, mu)
    return GroupFunction(f.group, tuple(Fraction(x, den) for x in nums))
