"""The two-bias classifier over a fixed kernel, and its exact structure.

For a kernel K, a function f and a measure mu the classifier is

    H_{c1,c2}(K)(f) = sign( sum_g ReLU((f*K)(g) + c1) * mu(g) + c2 )

with sign(0) = -1.  The inner sum, as a function of c1, is written ``nu``
here; it is continuous, convex, non-decreasing and piecewise affine with
rational breakpoints, which is what makes exact enumeration of all
realizable label patterns possible downstream.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gfunc import GroupFunction, Measure, convolve


def relu_sum(conv: GroupFunction, mu: Measure, c: Fraction) -> Fraction:
    """sum_g max(0, conv(g) + c) * mu(g): the definition of nu, given f*K.

    The terms with conv(g) > -c add up to the sum of their conv(g) mu(g)
    plus c times the sum of their mu(g): the same exact rational, without
    forming conv(g) + c for every g.
    """
    floor = -c
    mass = Fraction(0)
    weight = Fraction(0)
    for v, w in zip(conv.values, mu.weights):
        if w != 0 and v > floor:
            mass += v * w
            weight += w
    return mass + c * weight


def nu(
    kernel: GroupFunction, f: GroupFunction, mu: Measure, c: Fraction
) -> Fraction:
    """sum_g max(0, (f*K)(g) + c) * mu(g), exactly."""
    return relu_sum(convolve(f, kernel, mu), mu, c)


def classify(
    kernel: GroupFunction,
    f: GroupFunction,
    mu: Measure,
    c1: Fraction,
    c2: Fraction,
) -> int:
    """+1 if nu(K, f, mu, c1) + c2 > 0, else -1 (zero counts as -1)."""
    return 1 if nu(kernel, f, mu, c1) + c2 > 0 else -1


@dataclass(frozen=True)
class NuProfile:
    """One convolution conv = f*K under mu, and the exact structure of nu.

    relu_sum(conv, mu, c) is nu(K, f, mu, c) by definition; the other
    fields give the same function in closed form.  Piece i covers c in
    (breakpoints[i-1], breakpoints[i]] going left to right; slopes[i] and
    offsets[i] give the affine map on that piece.  The function is
    continuous, so either convention at the breakpoints evaluates
    identically.  offsets[piece_at(c)] is also the left-continuous step
    function c -> sum of mu(g) (f*K)(g) over the g with (f*K)(g) > -c.
    """

    conv: GroupFunction
    mu: Measure
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    offsets: tuple[Fraction, ...]

    def piece_at(self, c: Fraction) -> int:
        return bisect_left(self.breakpoints, c)

    def evaluate(self, c: Fraction) -> Fraction:
        i = self.piece_at(c)
        return self.slopes[i] * c + self.offsets[i]

    def evaluate_sorted(self, cs: Sequence[Fraction]) -> list[Fraction]:
        """[evaluate(c) for c in cs] for ascending cs, in one forward walk."""
        breakpoints, slopes, offsets = self.breakpoints, self.slopes, self.offsets
        end = len(breakpoints)
        i = 0
        values = []
        for c in cs:
            while i < end and breakpoints[i] < c:
                i += 1
            values.append(slopes[i] * c + offsets[i])
        return values


def build_nu_profile(
    kernel: GroupFunction, f: GroupFunction, mu: Measure
) -> NuProfile:
    """Breakpoints sit at c = -(f*K)(g) for elements with positive weight.

    Crossing a breakpoint from the left activates every ReLU term whose
    convolution value is that breakpoint's negative, so the slope gains
    the total measure weight of those elements and the offset gains their
    weighted convolution mass.
    """
    conv = convolve(f, kernel, mu)
    by_breakpoint: dict[Fraction, tuple[Fraction, Fraction]] = {}
    for v, w in zip(conv.values, mu.weights):
        if w == 0:
            continue
        weight, mass = by_breakpoint.get(-v, (Fraction(0), Fraction(0)))
        by_breakpoint[-v] = (weight + w, mass + w * v)
    breakpoints = sorted(by_breakpoint)
    slopes = [Fraction(0)]
    offsets = [Fraction(0)]
    for bp in breakpoints:
        weight, mass = by_breakpoint[bp]
        slopes.append(slopes[-1] + weight)
        offsets.append(offsets[-1] + mass)
    return NuProfile(conv, mu, tuple(breakpoints), tuple(slopes), tuple(offsets))


@dataclass(frozen=True)
class Ranking:
    """Ranks of m values: rank(k) = 1 + #{l : value_l < value_k}.

    Ties produce equal ranks; when all values are distinct the ranks form
    a permutation of 1..m.
    """

    ranks: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.ranks)

    def is_strict(self) -> bool:
        return sorted(self.ranks) == list(range(1, len(self.ranks) + 1))


def ranking_of_values(values: Sequence[Fraction]) -> Ranking:
    """rank(k) = 1 + #{l : value_l < value_k}, read off one sorted copy."""
    ordered = sorted(values)
    return Ranking(tuple(1 + bisect_left(ordered, v) for v in values))
