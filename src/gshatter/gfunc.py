"""Rational-valued functions on a finite group, the counting measure, and
convolution.

Everything here is exact: values are `fractions.Fraction` and floats are
rejected outright, because downstream constructions compare quantities
whose gaps shrink super-exponentially and a single rounding step could
flip an order comparison.  The convolution runs on integers over one
denominator for a whole family; `convolve` gives its values as Fractions.
`fraction_to_str` spells a value at any length, for files and messages.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational as _RationalABC
from typing import Iterable, NamedTuple, Sequence

from .groups import FiniteGroup


def _as_fraction(x: object, what: str) -> Fraction:
    if type(x) is Fraction:  # immutable: no copy needed
        return x
    if isinstance(x, float):
        raise TypeError(f"{what} must be exact rationals, got float {x!r}")
    if isinstance(x, _RationalABC):
        return Fraction(x)
    raise TypeError(f"{what} must be int or Fraction, got {type(x).__name__}")


def _long_str(n: int) -> str:
    """str(n) at any length: past the digit limit, n's two halves."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of n's decimal digits
        high, low = divmod(abs(n), 10**k)
        return "-" * (n < 0) + _long_str(high) + _long_str(low).zfill(k)


def fraction_to_str(x: Fraction | int) -> str:
    """x as "p/q", or "p" when whole; ints have .numerator and .denominator too."""
    if x.denominator == 1:
        return _long_str(x.numerator)
    return f"{_long_str(x.numerator)}/{_long_str(x.denominator)}"


def _same_group(a: FiniteGroup, b: FiniteGroup, what: str) -> None:
    if a.label != b.label:
        raise ValueError(f"{what}: group mismatch ({a.label!r} vs {b.label!r})")


class GroupFunction:
    """An exact function G -> Q, stored as one value per element index."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: tuple[Fraction, ...]):
        if len(values) != group.order:
            raise ValueError(
                f"function has {len(values)} values for a group of order {group.order}"
            )
        self.group, self.values = group, values

    @classmethod
    def from_values(
        cls, group: FiniteGroup, values: Iterable[object]
    ) -> "GroupFunction":
        vals = tuple(_as_fraction(v, "function values") for v in values)
        return cls(group, vals)

    def support(self) -> list[int]:
        return [g for g in range(self.group.order) if self.values[g] != 0]


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
    values = tuple(
        Fraction(1) if h == g else Fraction(0) for h in range(group.order)
    )
    return GroupFunction(group, values)


def as_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den): values[i] = nums[i] / den, den the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _convolve(
    fs: Sequence[GroupFunction], kernel: GroupFunction, mu: Measure
) -> tuple[list[list[int]], int]:
    """(fs[k] * K)(g) = sum_h fs[k](g h^-1) K(h) as nums[k][g] / den.

    Each term f(a) K(h) lands at g = a h, so only pairs of a support point
    of f and one of K are visited: O(|supp f| * |supp K|).  With K made
    integer once and the whole family over one denominator every term is
    an integer; one gcd at the end leaves den the lcm of the reduced
    denominators of all the family's values, so the family shares it.
    """
    mul, n = kernel.group.mul, kernel.group.order
    k_nums, k_den = as_integers(kernel.values)
    terms = [(h, k) for h, k in enumerate(k_nums) if k]
    f_nums, f_den = as_integers([v for f in fs for v in f.values])
    accs, common = [], f_den * k_den
    for i, f in enumerate(fs):
        _same_group(f.group, kernel.group, "convolve")
        _same_group(f.group, mu.group, "convolve")
        acc = [0] * n
        for a, fa in enumerate(f_nums[i * n : (i + 1) * n]):
            if fa:
                for h, k in terms:
                    acc[mul(a, h)] += fa * k
        accs.append(acc)
        common = gcd(common, *acc)
    return [[x // common for x in acc] for acc in accs], f_den * k_den // common


def convolve(f: GroupFunction, kernel: GroupFunction, mu: Measure) -> GroupFunction:
    """Group convolution (f * K)(g) = sum_h f(g h^-1) K(h) under mu."""
    [nums], den = _convolve([f], kernel, mu)
    return GroupFunction(f.group, tuple(Fraction(x, den) for x in nums))
