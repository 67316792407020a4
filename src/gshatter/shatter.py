"""Exact enumeration of realizable label patterns and shattering proofs.

For a fixed kernel K and functions f_1..f_m, the classifier's label
vector depends on (c1, c2) only through the ranking and values of the
nu functions at c1.  Those are piecewise affine in c1, so probing one
rational point inside every maximal piece — plus every breakpoint and
crossing — visits every realizable label pattern.  Each witnessed
pattern is re-verified against the ReLU-sum definition before it enters
a certificate, not against the piecewise form that found it.

The sweep runs on integers over one common denominator; Fractions
appear only for crossings and for emitted (c1, c2) witnesses, and no
float is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Optional, Sequence

from .classifier import (
    NuProfile,
    Ranking,
    build_nu_profile,
    ranking_of_values,
    relu_sum,
)
from .errors import WitnessVerificationError
from .gfunc import GroupFunction, Measure
from .orders import OrderSet, is_complete


@dataclass(frozen=True)
class Dichotomy:
    """One +-1 label per function."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (-1, 1) for v in self.labels):
            raise ValueError(f"labels must be -1 or +1, got {self.labels}")


@dataclass(frozen=True)
class DichotomyEntry:
    labels: tuple[int, ...]
    status: str  # "witnessed" | "unreachable"
    c1: Optional[Fraction] = None
    c2: Optional[Fraction] = None


@dataclass(frozen=True)
class ShatterCertificate:
    """Witness or absence marker for each of the 2^m label patterns."""

    m: int
    entries: tuple[DichotomyEntry, ...]
    shattered: bool

    def witnessed_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "witnessed")


@dataclass(frozen=True)
class CriticalSet:
    """All bias values where a ranking can change, plus probe points.

    On the scale t = c1 * scale, with scale the lcm of the profiles' den
    and wscale that of their wden, every breakpoint is an integer.  The
    probes t = p / q, held as integer pairs (p, q > 0), are every nu
    breakpoint and every crossing of two nu inside a shared affine piece
    (the critical points), the midpoints between them and one point past
    either end.  Between consecutive points every nu is affine, so the
    ranking is constant there and the probes reach every ranking attained
    on the whole real line.  `values[i][k]` is nu of `profiles[k]` at
    probe i times q * scale * wscale, an integer; every reader of the
    sweep takes its values from here.
    """

    profiles: tuple[NuProfile, ...]
    scale: int
    wscale: int
    probe_ts: tuple[tuple[int, int], ...]
    values: tuple[list[int], ...]

    @property
    def probes(self) -> tuple[Fraction, ...]:
        """The probe bias values c1, in ascending order."""
        return tuple(Fraction(p, q * self.scale) for p, q in self.probe_ts)

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The critical bias values c1: every other probe."""
        return self.probes[1::2]


def _profiles(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> list[NuProfile]:
    if not fs:
        raise ValueError("need at least one function")
    return [build_nu_profile(kernel, f, mu) for f in fs]


def critical_set(profiles: Sequence[NuProfile]) -> CriticalSet:
    """Critical points and probes of the profiles, with nu at every probe.

    One left-to-right walk over the common grid of integer breakpoints.
    Each profile keeps a piece index that only moves forward, at its own
    breakpoints, so on each open piece of the grid its (slope, offset)
    is read once.  Two profiles with different slopes there cross at one
    point num / den, which is critical when lo * den < num < hi * den.
    A pair's crossing is recomputed only when one of the two enters a
    new piece; the strict-interior test runs on every piece.
    """
    m = len(profiles)
    scale = lcm(*(p.den for p in profiles))
    wscale = lcm(*(p.wden for p in profiles))
    lines = [p.scaled(scale, wscale) for p in profiles]
    # The profiles whose piece index advances at each grid point.
    advancing: dict[int, list[int]] = {}
    for k, (breakpoints, _, _) in enumerate(lines):
        for bp in breakpoints:
            advancing.setdefault(bp, []).append(k)
    grid = sorted(advancing)
    criticals: set[int | Fraction] = set(grid)
    pieces = [0] * m
    current = [(slopes[0], offsets[0]) for _, slopes, offsets in lines]
    crossings: dict[tuple[int, int], tuple[int, int]] = {}

    def cross(i: int, j: int) -> None:
        (si, oi), (sj, oj) = current[i], current[j]
        if si == sj:  # parallel or identical on this piece: no crossing
            crossings.pop((i, j), None)
        else:  # at t = (oj - oi) / (si - sj), kept with a positive den
            crossings[i, j] = (oj - oi, si - sj) if si > sj else (oi - oj, sj - si)

    for i, j in combinations(range(m), 2):
        cross(i, j)
    for lo, hi in zip([None, *grid], [*grid, None]):
        if lo is not None:
            moved = advancing[lo]
            for k in moved:
                pieces[k] += 1
                _, slopes, offsets = lines[k]
                current[k] = (slopes[pieces[k]], offsets[pieces[k]])
            for i, j in {(min(k, l), max(k, l)) for k in moved for l in range(m)}:
                if i != j:
                    cross(i, j)
        for num, den in crossings.values():
            if (lo is None or lo * den < num) and (hi is None or num < hi * den):
                criticals.add(Fraction(num, den))
    points = [(t.numerator, t.denominator) for t in sorted(criticals)]
    probes = [(0, 1)]
    if points:
        probes = [(points[0][0] - scale * points[0][1], points[0][1])]
        for (p1, q1), (p2, q2) in zip(points, points[1:]):
            probes += [(p1, q1), (p1 * q2 + p2 * q1, 2 * q1 * q2)]
        probes += [points[-1], (points[-1][0] + scale * points[-1][1], points[-1][1])]
    columns = []
    for breakpoints, slopes, offsets in lines:  # one forward walk each
        i, end, column = 0, len(breakpoints), []
        for p, q in probes:
            while i < end and breakpoints[i] * q < p:
                i += 1
            column.append(slopes[i] * p + offsets[i] * q)
        columns.append(column)
    values = tuple(list(row) for row in zip(*columns))
    return CriticalSet(tuple(profiles), scale, wscale, tuple(probes), values)


def critical_points(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> CriticalSet:
    """Bias values at which the ranking of the nu functions can change."""
    return critical_set(_profiles(kernel, fs, mu))


def _witnesses(
    critical: CriticalSet,
) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
    """First witness (c1, c2) for every realizable label pattern.

    At a fixed c1, sweeping c2 across the distinct nu values produces
    every realizable cut: the pattern labels +1 exactly the functions
    with nu strictly above the cut, so tied values always share a label.
    Values are compared as the sweep's integers; only an emitted witness
    becomes a pair of Fractions.
    """
    found: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    scale, wscale = critical.scale, critical.wscale
    patterns = 2 ** len(critical.profiles)
    for (p, q), values in zip(critical.probe_ts, critical.values):
        if len(found) == patterns:  # every pattern has its first witness
            break
        # The distinct values from the top, and the index of each value's
        # own cut: a value lies above cut j exactly when that index is < j.
        cuts: list[int] = []
        places = [0] * len(values)
        for k in sorted(range(len(values)), key=values.__getitem__, reverse=True):
            if not cuts or values[k] != cuts[-1]:
                cuts.append(values[k])
            places[k] = len(cuts) - 1
        # One threshold per distinct value (that value lands on -1), plus
        # a cut one unit of nu below the minimum that labels everything +1.
        unit = q * scale * wscale
        for j in range(len(cuts) + 1):
            labels = tuple(1 if i < j else -1 for i in places)
            if labels not in found:
                threshold = cuts[j] if j < len(cuts) else cuts[-1] - unit
                found[labels] = (Fraction(p, q * scale), Fraction(-threshold, unit))
    return found


def enumerate_dichotomies(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> set[Dichotomy]:
    """The exact set of label patterns realizable by any rational (c1, c2)."""
    found = _witnesses(critical_set(_profiles(kernel, fs, mu)))
    m = len(fs)
    n = fs[0].group.order
    bound = (m + m * (m - 1) // 2) * (m * n + 1)
    if len(found) > bound:
        raise WitnessVerificationError(
            f"{len(found)} label patterns exceed the counting bound {bound}"
        )
    return {Dichotomy(labels) for labels in found}


def certificate(critical: CriticalSet) -> ShatterCertificate:
    """Certificate covering all 2^m label patterns of a critical set.

    Every witness is re-verified by classify's rule through the ReLU-sum
    definition on each profile's stored convolution, not the sweep's
    values; a witness that failed re-verification would mean an internal
    inconsistency, so it raises WitnessVerificationError instead of
    being silently dropped.
    """
    profiles = critical.profiles
    m = len(profiles)
    found = _witnesses(critical)
    entries: list[DichotomyEntry] = []
    for labels in product((-1, 1), repeat=m):
        if labels in found:
            c1, c2 = found[labels]
            for k, p in enumerate(profiles):
                got = 1 if relu_sum(p, c1) + c2 > 0 else -1
                if got != labels[k]:
                    raise WitnessVerificationError(
                        f"witness ({c1}, {c2}) for {labels} fails on "
                        f"function {k}: the classifier gives {got}"
                    )
            entries.append(DichotomyEntry(labels, "witnessed", c1, c2))
        else:
            entries.append(DichotomyEntry(labels, "unreachable"))
    shattered = all(e.status == "witnessed" for e in entries)
    return ShatterCertificate(m=m, entries=tuple(entries), shattered=shattered)


def attained_orders(critical: CriticalSet) -> OrderSet:
    """Every ranking the nu values of a critical set attain, in probe order."""
    seen: dict[Ranking, None] = {}
    for values in critical.values:
        seen.setdefault(ranking_of_values(values))
    return OrderSet(len(critical.profiles), tuple(seen))


def is_shattered(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> ShatterCertificate:
    """Certificate covering all 2^m label patterns; see `certificate`."""
    return certificate(critical_set(_profiles(kernel, fs, mu)))


def order_set(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> OrderSet:
    """Every ranking the nu values attain over all bias values."""
    return attained_orders(critical_set(_profiles(kernel, fs, mu)))


def check_order_criterion(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> bool:
    """Whether the attained rankings contain a complete set of orders.

    Equivalent to is_shattered(...).shattered.
    """
    return is_complete(order_set(kernel, fs, mu))
