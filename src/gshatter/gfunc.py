"""Rational-valued functions on a finite group, the counting measure, and
convolution.

Everything here is exact and floats are rejected outright, because
downstream constructions compare quantities whose gaps shrink
super-exponentially and one rounding step could flip an order
comparison.  A function is integers over one least denominator, and the
convolution runs on them for a whole family, over one common denominator.
`values` forms Fractions on demand, and `ratio_to_str` spells a value at
any length, reduced once; `fraction_to_str` spells a Fraction as it stands.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational as _RationalABC
from typing import Iterable, NamedTuple, Sequence

from .groups import FiniteGroup


def _as_ratio(x: object, what: str) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational; no Fraction is made."""
    if isinstance(x, float):
        raise TypeError(f"{what} must be exact rationals, got float {x!r}")
    if not isinstance(x, _RationalABC):
        raise TypeError(f"{what} must be int or Fraction, got {type(x).__name__}")
    return int(x.numerator), int(x.denominator)


def _long_str(n: int) -> str:
    """str(n) at any length: past the digit limit, n's two halves."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of n's decimal digits
        high, low = divmod(abs(n), 10**k)
        return "-" * (n < 0) + _long_str(high) + _long_str(low).zfill(k)


def _spell(num: int, den: int) -> str:
    """num/den as "p/q", or "p" when den is 1; no reduction."""
    if den == 1:
        return _long_str(num)
    return f"{_long_str(num)}/{_long_str(den)}"


def ratio_to_str(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms as "p/q", or "p" when whole."""
    if not num:  # one shared "0" for the many zero values of a function
        return "0"
    if (d := gcd(num, den)) > 1:
        num, den = num // d, den // d
    return _spell(num, den)


def fraction_to_str(x: Fraction | int) -> str:
    """x as ratio_to_str spells it, with no gcd: a Fraction or an int is
    already in lowest terms, and both have .numerator and .denominator."""
    return _spell(x.numerator, x.denominator)


def _same_group(a: FiniteGroup, b: FiniteGroup, what: str) -> None:
    if a.label != b.label:
        raise ValueError(f"{what}: group mismatch ({a.label!r} vs {b.label!r})")


class GroupFunction:
    """An exact function G -> Q: the value at element g is nums[g] / den,
    with den the least common denominator, which the constructor ensures."""

    __slots__ = ("group", "nums", "den")

    def __init__(self, group: FiniteGroup, nums: Sequence[int], den: int):
        if len(nums) != group.order:
            raise ValueError(
                f"function has {len(nums)} values for a group of order {group.order}"
            )
        if den < 1:
            raise ValueError(f"denominator must be at least 1, got {den}")
        if den > 1 and (d := gcd(den, *nums)) > 1:
            nums, den = [x // d for x in nums], den // d
        self.group, self.nums, self.den = group, tuple(nums), den

    @classmethod
    def from_ratios(
        cls, group: FiniteGroup, ratios: Sequence[tuple[int, int]]
    ) -> "GroupFunction":
        """The function whose value at g is p / q for (p, q) = ratios[g], q > 0."""
        den = lcm(*(q for _, q in ratios))
        return cls(group, [p and p * (den // q) for p, q in ratios], den)

    @classmethod
    def from_values(
        cls, group: FiniteGroup, values: Iterable[object]
    ) -> "GroupFunction":
        return cls.from_ratios(group, [_as_ratio(v, "function values") for v in values])

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions, formed on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def support(self) -> list[int]:
        return [g for g, x in enumerate(self.nums) if x]


class Measure(NamedTuple):
    """The counting (Haar) measure on the group: weight 1 on every element.

    It is the one translation-invariant measure up to a scale, and a scale
    w changes no label pattern: (c1, c2) under w times it labels as
    (c1/w, c2/w^2) does under it.
    """

    group: FiniteGroup


def counting_measure(group: FiniteGroup) -> Measure:
    """Weight 1 on every element -- the one measure there is."""
    return Measure(group)


def indicator(group: FiniteGroup, g: int) -> GroupFunction:
    """The function that is 1 at g and 0 elsewhere."""
    if not 0 <= g < group.order:
        raise ValueError(f"element index {g} out of range for {group.label}")
    return GroupFunction(group, [int(h == g) for h in range(group.order)], 1)


def _convolve(
    fs: Sequence[GroupFunction], kernel: GroupFunction
) -> tuple[list[list[int]], int]:
    """(fs[k] * K)(g) = sum_h fs[k](g h^-1) K(h) as nums[k][g] / den.

    Each term f(a) K(h) lands at g = a h, so only pairs of a support point
    of f and one of K are visited: O(|supp f| * |supp K|).  With each f
    scaled to the family's lcm of denominators every term is an integer,
    so den = lcm(f.den ...) * K.den is a common denominator of the whole
    family, not always the least: nothing that reads it needs it least.
    """
    mul, n = kernel.group.mul, kernel.group.order
    terms = [(h, k) for h, k in enumerate(kernel.nums) if k]
    f_den = lcm(*(f.den for f in fs))
    accs = []
    for f in fs:
        _same_group(f.group, kernel.group, "convolve")
        scale, acc = f_den // f.den, [0] * n
        for a, fa in enumerate(f.nums):
            if fa:
                fa *= scale
                for h, k in terms:
                    acc[mul(a, h)] += fa * k
        accs.append(acc)
    return accs, f_den * kernel.den


def convolve(f: GroupFunction, kernel: GroupFunction, mu: Measure) -> GroupFunction:
    """Group convolution (f * K)(g) = sum_h f(g h^-1) K(h) under mu, the
    counting measure on K's group."""
    _same_group(mu.group, kernel.group, "convolve")
    [nums], den = _convolve([f], kernel)
    return GroupFunction(f.group, nums, den)
