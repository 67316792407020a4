"""Exact enumeration of realizable label patterns and shattering proofs.

For a fixed kernel K and functions f_1..f_m, the classifier's label
vector depends on (c1, c2) only through the ranking and values of the
nu functions at c1.  Those are piecewise affine in c1, so probing one
rational point inside every maximal piece — plus every breakpoint and
crossing — visits every realizable label pattern.  Each witnessed
pattern is re-verified against the ReLU-sum definition before it enters
a certificate, not against the piecewise form that found it.

The sweep runs on integers over one common denominator: Fractions
appear only in emitted (c1, c2) witnesses, and floats nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations, product
from math import gcd, lcm
from typing import Optional, Sequence

from .classifier import (
    NuProfile,
    Ranking,
    ReluIndex,
    build_nu_profiles,
    ranking_of_values,
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
    """All bias values where a ranking can change, and each ranking's row.

    On the scale t = c1 * scale, with scale the lcm of the profiles' den
    and wscale that of their wden, every breakpoint is an integer.  The
    critical points t = p / q, held as integer pairs (p, q > 0) in
    ascending order, are every nu breakpoint and every crossing of two nu
    inside a shared affine piece.  Between consecutive points every nu is
    affine, so the ranking is constant there, and the probes (each point,
    the midpoints between them and one unit of c1 past either end) reach
    every ranking attained on the whole real line.  `rows` maps each
    attained ranking, in probe order, to its first probe (p, q) and its
    values: `values[k]` is nu of `profiles[k]` there times q*scale*wscale.
    """

    profiles: tuple[NuProfile, ...]
    scale: int
    wscale: int
    point_ts: tuple[tuple[int, int], ...]
    rows: dict[Ranking, tuple[tuple[int, int], list[int]]]

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The critical bias values c1, in ascending order."""
        return tuple(Fraction(p, q * self.scale) for p, q in self.point_ts)

    @property
    def probes(self) -> tuple[Fraction, ...]:
        """The probe bias values c1, in ascending order."""
        pts = self.points
        mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        return (pts[0] - 1, *chain.from_iterable(zip(pts, mids)), pts[-1], pts[-1] + 1)


# Orders pairs (p, q > 0) by the value p / q, without building Fractions.
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def critical_set(profiles: Sequence[NuProfile]) -> CriticalSet:
    """Critical points, and the first row of every ranking.

    One left-to-right walk over the grid of every profile's integer
    breakpoints, reading each profile's pieces in order, so on each open
    piece of the grid every nu is affine, read once as (slope, offset).
    The walk computes the m values at each grid point, and two affine
    functions cross strictly inside a piece exactly when their strict
    order differs at its two ends (a tie at either end is no flip).  Left
    of the grid every nu is 0, so the walk starts from zeros and the
    first piece has no crossing.  Past the last grid point the slopes
    stand in for the right end: far enough right, two lines are in the
    order of their slopes.  A piece's crossings and its right end are
    probed before the walk moves on.  No ranking changes across a point
    where no two nu tie: only the first probe, tied points and the
    probes after them are ranked.
    """
    if not profiles:  # each has a breakpoint, its measure a positive mass
        raise ValueError("need at least one function")
    m = len(profiles)
    scale = lcm(*(p.den for p in profiles))
    wscale = lcm(*(p.wden for p in profiles))
    lines = [p.scaled(scale, wscale) for p in profiles]
    # The profiles that enter their next piece at each grid point.
    advancing: dict[int, list[int]] = {}
    for k, (breakpoints, _, _) in enumerate(lines):
        for bp in breakpoints:
            advancing.setdefault(bp, []).append(k)
    pieces = [zip(slopes, offsets) for _, slopes, offsets in lines]
    current = [next(piece) for piece in pieces]
    pairs = list(combinations(range(m), 2))
    points: list[tuple[int, int]] = []
    rows: dict[Ranking, tuple[tuple[int, int], list[int]]] = {}
    tied = True  # whether the last point tied; the first probe is ranked

    def probe(p: int, q: int, point: bool, values: Optional[list[int]] = None) -> None:
        nonlocal tied
        if point or tied:  # not a probe just after a point without a tie
            if values is None:
                values = [s * p + o * q for s, o in current]
            tied = not point or len(set(values)) < m  # a midpoint keeps it
            if tied:
                rows.setdefault(ranking_of_values(values), ((p, q), values))

    def visit(p: int, q: int, values: Optional[list[int]] = None) -> None:
        if not points:  # one unit of c1 before the first point
            probe(p - scale * q, q, False)
        else:  # the midpoint after the previous point
            lp, lq = points[-1]
            probe(lp * q + p * lq, 2 * lq * q, False)
        probe(p, q, True, values)
        points.append((p, q))

    left = [0] * m  # left of the grid every nu is 0
    for t in [*sorted(advancing), None]:
        # Past the last grid point, the slopes order the lines at +inf.
        right = [s * t + o for s, o in current] if t is not None else [s for s, _ in current]
        inside = set()  # the piece's interior crossings, gcd-reduced
        for i, j in pairs:
            li, lj, ri, rj = left[i], left[j], right[i], right[j]
            if li < lj and ri > rj or li > lj and ri < rj:  # a strict flip
                (si, oi), (sj, oj) = current[i], current[j]
                num, den = (oj - oi, si - sj) if si > sj else (oi - oj, sj - si)
                g = gcd(num, den)
                inside.add((num // g, den // g))
        for p, q in sorted(inside, key=_by_value):
            visit(p, q)
        if t is not None:  # nu is continuous: one value at t from either side
            visit(t, 1, right)
            for k in advancing[t]:
                current[k] = next(pieces[k])
            left = right
    p, q = points[-1]
    probe(p + scale * q, q, False)  # one unit of c1 past the last point
    return CriticalSet(tuple(profiles), scale, wscale, tuple(points), rows)


def critical_points(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> CriticalSet:
    """Bias values at which the ranking of the nu functions can change."""
    return critical_set(build_nu_profiles(kernel, fs, mu))


def _witnesses(
    critical: CriticalSet,
) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
    """First witness (c1, c2) for every realizable label pattern.

    At a fixed c1, sweeping c2 across the distinct nu values produces
    every realizable cut: the pattern labels +1 exactly the functions
    with nu strictly above the cut: tied values share a label, and the
    patterns depend only on the ranking, so the first row of each ranking
    gives every first witness.  Only a witness becomes a Fraction pair.
    """
    found: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    scale, wscale = critical.scale, critical.wscale
    patterns = 2 ** len(critical.profiles)
    for (p, q), values in critical.rows.values():
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
    found = _witnesses(critical_set(build_nu_profiles(kernel, fs, mu)))
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
    definition on each profile's stored convolution (one ReluIndex per
    profile), not the sweep's values; a witness that failed
    re-verification would mean an internal inconsistency, so it raises
    WitnessVerificationError instead of being silently dropped.
    """
    m = len(critical.profiles)
    found = _witnesses(critical)
    indexes = [ReluIndex(p) for p in critical.profiles]
    entries: list[DichotomyEntry] = []
    for labels in product((-1, 1), repeat=m):
        if labels in found:
            c1, c2 = found[labels]
            for k, index in enumerate(indexes):
                got = 1 if index.exceeds(c1, -c2) else -1
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
    return OrderSet(len(critical.profiles), tuple(critical.rows))


def is_shattered(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> ShatterCertificate:
    """Certificate covering all 2^m label patterns; see `certificate`."""
    return certificate(critical_set(build_nu_profiles(kernel, fs, mu)))


def order_set(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> OrderSet:
    """Every ranking the nu values attain over all bias values."""
    return attained_orders(critical_set(build_nu_profiles(kernel, fs, mu)))


def check_order_criterion(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> bool:
    """Whether the attained rankings contain a complete set of orders.

    Equivalent to is_shattered(...).shattered.
    """
    return is_complete(order_set(kernel, fs, mu))
