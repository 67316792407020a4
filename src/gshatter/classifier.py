"""The two-bias classifier over a fixed kernel, and its exact structure.

For a kernel K and a function f the classifier is

    H_{c1,c2}(K)(f) = sign( sum_g ReLU((f*K)(g) + c1) + c2 )

with sign(0) = -1 and the sum over every element of the group (the
counting measure, the `mu` that `classify` takes).  The inner sum,
as a function of c1, is written ``nu`` here; it is continuous, convex,
non-decreasing and piecewise affine with rational breakpoints, which is
what makes exact enumeration of all realizable label patterns possible
downstream.

Inside, a profile holds f*K as integers over one denominator, which
every profile of a family shares, and one sorted table of its terms that
gives nu at any bias and nu's pieces alike; `nu_values` gives every
profile's nu at one bias over one denominator, from one cut per bias.
Only `classify` forms a Fraction of nu, and no float is used anywhere.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

from .gfunc import GroupFunction, Measure, _convolve, _same_group


class NuProfile:
    """One convolution f*K, as integers, and nu's breakpoint table.

    (f*K)(g) is nums[g] / den, and the profiles of one `build_nu_profiles`
    call share den.  The profile sorts its terms once, by x = (f*K)(g) *
    den, into `xs`, with suffix sums of x (`masses`), so the terms from
    position i on number len(xs) - i and add up to masses[i].
    `nu_values` reads nu at one bias from that table; `pieces`
    streams nu in closed form, piece by piece, from the same table.
    """

    __slots__ = ("nums", "den", "xs", "masses", "__weakref__")

    def __init__(self, nums: tuple[int, ...], den: int):
        self.nums, self.den = nums, den
        self.xs = xs = sorted(nums)
        self.masses = masses = list(accumulate(reversed(xs), initial=0))
        masses.reverse()

    def pieces(self) -> Iterator[tuple[int, int, int]]:
        """nu's breakpoints on t = c * den, ascending, each with the piece
        that starts there.

        Each item (t, slope, offset) gives nu(c) * den = slope * t +
        offset from t up to the next breakpoint, and offset / den sums
        (f*K)(g) over the active terms.  Left of the first breakpoint nu
        is 0, and nu is continuous, so either piece gives the value at a
        breakpoint.  A breakpoint sits at t = -x for each x in `xs`;
        crossing it activates every term with that value, which are the
        terms from the first position i of x on, so the piece is read off
        the table at i.
        """
        xs, masses = self.xs, self.masses
        for i in reversed(range(len(xs))):
            if not i or xs[i - 1] != xs[i]:  # the first position of its value
                yield -xs[i], len(xs) - i, masses[i]


def nu_values(profiles: Sequence[NuProfile], c: Fraction) -> tuple[list[int], int]:
    """(xs, D) with nu_k(c) = xs[k] / D for every profile k, D = den * b.

    The profiles share one den, as those of one `build_nu_profiles` call
    do (`ValueError` otherwise).  With c = a/b the term of x is active
    exactly when x*b > -a*den, that is when x > (-a*den) // b: one cut
    for the family.  Each profile's active terms are one sorted tail,
    found by one bisect, and add up to (mass*b + a*den*count) / (den*b).
    Rankings, spreads, gaps and cuts at one bias compare integers.
    """
    den = profiles[0].den
    if any(p.den != den for p in profiles):
        raise ValueError("profiles over different denominators")
    ad, b = c.numerator * den, c.denominator
    cut = (-ad) // b
    xs = []
    for p in profiles:
        i = bisect_right(p.xs, cut)
        xs.append(p.masses[i] * b + ad * (len(p.xs) - i))
    return xs, den * b


def build_nu_profiles(
    kernel: GroupFunction, fs: Sequence[GroupFunction]
) -> list[NuProfile]:
    """f*K as integers and nu's table for each f in fs, all over
    `_convolve`'s one den."""
    family, den = _convolve(fs, kernel)
    return [NuProfile(tuple(nums), den) for nums in family]


def classify(
    kernel: GroupFunction, f: GroupFunction, mu: Measure, c1: Fraction, c2: Fraction
) -> int:
    """+1 if nu(c1) + c2 > 0, else -1 (zero counts as -1), with mu the
    counting measure on K's group."""
    _same_group(mu.group, kernel.group, "classify")
    [x], d = nu_values(build_nu_profiles(kernel, [f]), c1)
    return 1 if Fraction(x, d) > -c2 else -1


def ranking_of_values(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Ranks of the values, rank(k) = 1 + #{l : value_l < value_k}, read
    off one sorted copy.  Ties share a rank; distinct values get a
    permutation of 1..m."""
    ordered = sorted(values)
    return tuple([1 + bisect_left(ordered, v) for v in values])
