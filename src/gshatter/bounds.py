"""Closed-form capacity bounds and group-size requirements.

Display values are ordinary floats; every assertion-grade comparison has
an exact counterpart: the implicit upper bound compares 2^m against
n(m+1)^3 in integers, and the logarithmic lower bound can be bracketed
between dyadic rationals to arbitrary precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# A rational lower bound for pi, tight enough for the binomial check.
PI_LOWER = Fraction(333, 106)


def upper_bound_implicit(n: int) -> int:
    """Largest m >= 1 with m - 3 log2(m+1) <= log2(n).

    Decided exactly as 2^m <= n (m+1)^3.  The left/right ratio is
    strictly increasing for m >= 3, so the first failure there is final.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    best = 1
    m = 1
    while True:
        if 2**m <= n * (m + 1) ** 3:
            best = m
        elif m >= 3:
            return best
        m += 1


def upper_bound_simple(n: int) -> float:
    """max{30, 2 log2 n}."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return max(30.0, 2 * math.log2(n))


def upper_bound_simple_ceil(n: int) -> int:
    """Exact integer ceiling of max{30, 2 log2 n}: smallest k with 2^k >= n^2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return max(30, (n * n - 1).bit_length())


def upper_bound_refined(n: int) -> float:
    """log2 n + 9 log2 log2 n, defined for n >= 16."""
    if n < 16:
        raise ValueError(f"refined upper bound needs n >= 16, got {n}")
    return math.log2(n) + 9 * math.log2(math.log2(n))


def lower_bound(n: int, has_order_two: bool) -> float:
    """log2 n - 2 log2 log2 n minus 1 (involution available) or 4.

    May be negative for small n; returned as-is (a vacuous bound).
    """
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    penalty = 1 if has_order_two else 4
    return math.log2(n) - 2 * math.log2(math.log2(n)) - penalty


# Most group elements one synthesis centre rules out for the others, per
# synthesis mode; r*m centres fit in any group with this many per centre.
ELEMENTS_PER_CENTRE = {"order_two": 2, "general": 9}


def required_group_size(m: int, mode: str) -> int:
    """2m C(m, floor(m/2)) with an involution, 9m C(m, floor(m/2)) without."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if mode not in ELEMENTS_PER_CENTRE:
        raise ValueError(f"unknown mode {mode!r}")
    return ELEMENTS_PER_CENTRE[mode] * m * math.comb(m, m // 2)


def wallis_check(m: int) -> bool:
    """Integer form of C(2m, m)^2 pi m < 16^m with pi replaced by 333/106."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    c = math.comb(2 * m, m)
    return c * c * PI_LOWER.numerator * m < PI_LOWER.denominator * 16**m


def _round_dyadic(x: Fraction, prec: int, up: bool) -> Fraction:
    scaled = x.numerator * (1 << prec)
    q, rem = divmod(scaled, x.denominator)
    if up and rem:
        q += 1
    return Fraction(q, 1 << prec)


def log2_bounds(x: Fraction, bits: int = 48) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= log2(x) <= hi via interval digit extraction.

    Each channel squares its mantissa, emits a binary digit, and rounds
    outward to a capped denominator, so both endpoints stay valid bounds
    regardless of where the true value falls.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log2 needs a positive argument")
    e = 0
    while x >= 2:
        x /= 2
        e += 1
    while x < 1:
        x *= 2
        e -= 1
    prec = bits + 16
    lo = hi = x
    frac_lo = Fraction(0)
    frac_hi = Fraction(0)
    step = Fraction(1)
    for _ in range(bits + 4):
        step /= 2
        lo = _round_dyadic(lo * lo, prec, up=False)
        hi = _round_dyadic(hi * hi, prec, up=True)
        if lo >= 2:
            frac_lo += step
            lo /= 2
        if hi >= 2:
            frac_hi += step
            hi /= 2
        if hi >= 2:  # rounding may push the upper channel past 4
            frac_hi += step
            hi /= 2
    # log2 of the residual mantissas lies in [0, 2).
    return (e + frac_lo, e + frac_hi + 2 * step)


def lower_bound_brackets(
    n: int, has_order_two: bool, bits: int = 48
) -> tuple[Fraction, Fraction]:
    """Exact dyadic interval around lower_bound(n, has_order_two)."""
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    penalty = 1 if has_order_two else 4
    l_lo, l_hi = log2_bounds(Fraction(n), bits)
    ll_lo = log2_bounds(l_lo, bits)[0] if l_lo > 0 else None
    ll_hi = log2_bounds(l_hi, bits)[1]
    if ll_lo is None:
        raise ValueError("group order too small for the nested logarithm")
    return (l_lo - 2 * ll_hi - penalty, l_hi - 2 * ll_lo - penalty)


def _exact_lower_bound(n: int, has_order_two: bool) -> Optional[Fraction]:
    """Rational value of the lower bound when one exists (n = 2^(2^b))."""
    a = n.bit_length() - 1
    if n != 1 << a or a < 1:
        return None
    b = a.bit_length() - 1
    if a != 1 << b:
        return None
    return Fraction(a - 2 * b - (1 if has_order_two else 4))


def lower_bound_at_most(n: int, has_order_two: bool, m: int) -> bool:
    """Exact decision of lower_bound(n, has_order_two) <= m."""
    exact = _exact_lower_bound(n, has_order_two)
    if exact is not None:
        return exact <= m
    bits = 48
    while bits <= 4096:
        lo, hi = lower_bound_brackets(n, has_order_two, bits)
        if hi <= m:
            return True
        if lo > m:
            return False
        bits *= 2
    raise ArithmeticError(
        f"could not separate the lower bound for n={n} from m={m}"
    )


@dataclass(frozen=True)
class BoundReport:
    """All bounds evaluated at one group order."""

    n: int
    implicit_upper: int
    simple_upper: float
    simple_upper_ceil: int
    refined_upper: Optional[float]
    lower_order_two: Optional[float]
    lower_general: Optional[float]


def build_bound_report(n: int) -> BoundReport:
    return BoundReport(
        n=n,
        implicit_upper=upper_bound_implicit(n),
        simple_upper=upper_bound_simple(n),
        simple_upper_ceil=upper_bound_simple_ceil(n),
        refined_upper=upper_bound_refined(n) if n >= 16 else None,
        lower_order_two=lower_bound(n, True) if n > 1 else None,
        lower_general=lower_bound(n, False) if n > 1 else None,
    )
