"""The two-bias classifier over a fixed kernel, and its exact structure.

For a kernel K, a function f and a measure mu the classifier is

    H_{c1,c2}(K)(f) = sign( sum_g ReLU((f*K)(g) + c1) * mu(g) + c2 )

with sign(0) = -1.  The inner sum, as a function of c1, is written ``nu``
here; it is continuous, convex, non-decreasing and piecewise affine with
rational breakpoints, which is what makes exact enumeration of all
realizable label patterns possible downstream.

Inside, a profile holds f*K and mu as integers over one denominator
each; a Fraction is formed only for the nu that `relu_sum` returns, and
no float is used anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gfunc import GroupFunction, Measure, as_integers, convolve_ints


@dataclass(frozen=True)
class NuProfile:
    """One convolution f*K under mu, and the exact structure of nu.

    (f*K)(g) is nums[g] / den and mu(g) is weights[g] / wden.
    relu_sum(profile, c) is nu(K, f, mu, c) by definition; the other fields
    give it in closed form on the scale t = c * den: piece i covers t in
    (breakpoints[i-1], breakpoints[i]], where nu(c) * den * wden =
    slopes[i] * t + offsets[i], and offsets[i] / (den * wden) sums
    mu(g) (f*K)(g) over the active terms.  nu is continuous, so either
    convention at the breakpoints gives the same value.
    """

    nums: tuple[int, ...]
    den: int
    weights: tuple[int, ...]
    wden: int
    breakpoints: tuple[int, ...]
    slopes: tuple[int, ...]
    offsets: tuple[int, ...]

    def scaled(self, scale: int, wscale: int) -> tuple[list[int], ...]:
        """Breakpoints, slopes and offsets on t = c * scale, where on each
        piece nu(c) * scale * wscale = slope * t + offset; den must divide
        scale and wden divide wscale."""
        k, w = scale // self.den, wscale // self.wden
        return (
            [bp * k for bp in self.breakpoints],
            [s * w for s in self.slopes],
            [o * k * w for o in self.offsets],
        )


def build_nu_profile(
    kernel: GroupFunction, f: GroupFunction, mu: Measure
) -> NuProfile:
    """Breakpoints sit at t = -nums[g] for elements with nonzero weight.

    Crossing a breakpoint from the left activates every ReLU term whose
    convolution value is that breakpoint's negative, so the slope gains
    the total weight of those elements and the offset their weighted
    convolution mass.
    """
    nums, den = convolve_ints(f, kernel, mu)
    weights, wden = as_integers(mu.weights)
    by_breakpoint: dict[int, tuple[int, int]] = {}
    for x, w in zip(nums, weights):
        if w:
            weight, mass = by_breakpoint.get(-x, (0, 0))
            by_breakpoint[-x] = (weight + w, mass + w * x)
    breakpoints = sorted(by_breakpoint)
    slopes = [0]
    offsets = [0]
    for bp in breakpoints:
        weight, mass = by_breakpoint[bp]
        slopes.append(slopes[-1] + weight)
        offsets.append(offsets[-1] + mass)
    return NuProfile(tuple(nums), den, tuple(weights), wden,
                     tuple(breakpoints), tuple(slopes), tuple(offsets))


def relu_sum(profile: NuProfile, c: Fraction) -> Fraction:
    """sum_g max(0, (f*K)(g) + c) * mu(g): the definition of nu, term by term.

    With c = a/b and (f*K)(g) = x/den, the term of g is active exactly
    when x*b > -a*den, that is when x > (-a*den) // b.  The active terms
    add up to (mass*b + a*den*weight) / (den*wden*b), where mass sums
    w*x and weight sums w over them.
    """
    a, b = c.numerator, c.denominator
    den = profile.den
    floor = (-a * den) // b
    mass = weight = 0
    for x, w in zip(profile.nums, profile.weights):
        if w and x > floor:
            mass += w * x
            weight += w
    return Fraction(mass * b + a * den * weight, den * profile.wden * b)


def nu(
    kernel: GroupFunction, f: GroupFunction, mu: Measure, c: Fraction
) -> Fraction:
    """sum_g max(0, (f*K)(g) + c) * mu(g), exactly."""
    return relu_sum(build_nu_profile(kernel, f, mu), c)


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
    return Ranking(tuple([1 + bisect_left(ordered, v) for v in values]))
