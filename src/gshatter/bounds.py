"""Closed-form capacity bounds and group-size requirements.

Display values are ordinary floats; every assertion-grade comparison has
an exact counterpart in integers: the implicit upper bound compares 2^m
against n(m+1)^3, and the logarithmic lower bound is decided by comparing
n / 2^(m+1) (or 2^(m+4)) with integer squares that bracket (log2 n)^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

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


def lower_bound_at_most(n: int, has_order_two: bool, m: int) -> bool:
    """Exact decision of lower_bound(n, has_order_two) <= m, in integers.

    With L = log2 n and shift = m + 1 (or m + 4), L - 2 log2 L <= shift
    exactly when n / 2^shift <= L^2.  Unless n is a power of two, L is
    irrational and the sides differ, so enough binary digits of L decide.
    They come from squaring the mantissa of n as a fixed-width integer,
    rounded down and up, so that lo <= 2^j L <= hi + 1 after j squarings.
    A case that 4096 bits do not separate raises ArithmeticError.
    """
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    shift = m + (1 if has_order_two else 4)
    # For L >= 1, L - 2 log2 L lies in (-1, L], and L < n.bit_length().
    if not 0 <= shift < n.bit_length():
        return shift >= 0
    e = n.bit_length() - 1
    if n == 1 << e:
        return e * e << shift >= n
    for width in (64, 256, 1024, 4096):
        # n / 2^e in [1, 2) scaled by 2^width; a bit past 2^width is a digit.
        down, up, lo, hi = (n << width) >> e, -((-n << width) >> e), e, e
        for j in range(1, width + 1):
            down, up = down * down >> width, -(-up * up >> width)
            d, u = down >> width + 1, up >> width + 1
            down, up, lo, hi = down >> d, -(-up >> u), 2 * lo + d, 2 * hi + u
            # L^2 4^j against n 4^j / 2^shift, cross-multiplied by 2^shift.
            if lo * lo << shift >= n << 2 * j:
                return True
            if (hi + 1) ** 2 << shift <= n << 2 * j:
                return False
    raise ArithmeticError(
        f"could not separate the lower bound for n={n} from m={m}"
    )


class BoundReport(NamedTuple):
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
