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
from heapq import merge
from itertools import chain, combinations, groupby, product, repeat
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

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
    """The first row of each ranking over the points where one can change.

    On the scale t = c1 * scale, with scale the lcm of the profiles' den
    and wscale that of their wden, every breakpoint is an integer.  The
    critical points t = p / q (integers, q > 0) are every nu breakpoint
    and every crossing of two nu inside a shared affine piece.  Between
    consecutive points every nu is affine, so the ranking is constant
    there, and the probes (each point, the midpoints between them and one
    unit of c1 past either end) reach every ranking attained on the whole
    real line.  `rows` maps each attained ranking, in probe order, to its
    first probe (p, q) and its values: `values[k]` is nu of `profiles[k]`
    there times q*scale*wscale.  No point is kept: `points` walks again.
    """

    profiles: tuple[NuProfile, ...]
    scale: int
    wscale: int
    rows: dict[Ranking, tuple[tuple[int, int], list[int]]]

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The critical bias values c1, in ascending order."""
        walk = _walk(self.profiles, self.scale, self.wscale)
        return tuple(Fraction(p, q * self.scale) for p, q, _, _ in walk)

    @property
    def probes(self) -> tuple[Fraction, ...]:
        """The probe bias values c1, in ascending order."""
        pts = self.points
        mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        return (pts[0] - 1, *chain.from_iterable(zip(pts, mids)), pts[-1], pts[-1] + 1)


# Orders pairs (p, q > 0) by the value p / q, without building Fractions.
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _walk(profiles: Sequence[NuProfile], scale: int, wscale: int) -> Iterator[tuple]:
    """The critical points t = p / q, ascending, as (p, q, pieces, values).

    The profiles' piece streams merge by t into one grid, so on each open
    piece of it nu_k * scale * wscale = s * t + o with (s, o) = pieces[k].
    Two affine functions cross strictly inside a piece exactly when their
    strict order differs at its two ends (a tie at either end is no flip).
    Left of the grid every nu is 0; past it the slopes stand in for the
    right end, since far enough right two lines are in the order of their
    slopes.  A piece's crossings come first, with values None, then its
    right end with its m values.  `pieces` is one list, moved on when the
    walk resumes past a grid point, so a consumer reads it before asking
    for the next point; at the end it holds the pieces past the last one.
    """
    m = len(profiles)
    streams = [zip(p.pieces(scale, wscale), repeat(k)) for k, p in enumerate(profiles)]
    pieces, left = [(0, 0)] * m, [0] * m  # left of the grid every nu is 0
    pairs = list(combinations(range(m), 2))
    grid = groupby(merge(*streams), key=lambda item: item[0][0])
    for t, entering in chain(grid, [(None, ())]):
        # Past the last grid point, the slopes order the lines at +inf.
        right = [s * t + o for s, o in pieces] if t is not None else [s for s, _ in pieces]
        inside = set()  # the piece's interior crossings, gcd-reduced
        for i, j in pairs:
            li, lj, ri, rj = left[i], left[j], right[i], right[j]
            if li < lj and ri > rj or li > lj and ri < rj:  # a strict flip
                (si, oi), (sj, oj) = pieces[i], pieces[j]
                num, den = (oj - oi, si - sj) if si > sj else (oi - oj, sj - si)
                g = gcd(num, den)
                inside.add((num // g, den // g))
        for p, q in sorted(inside, key=_by_value):
            yield p, q, pieces, None
        if t is not None:  # nu is continuous: one value at t from either side
            yield t, 1, pieces, right
            for (_, slope, offset), k in entering:
                pieces[k] = (slope, offset)
            left = right


def critical_set(profiles: Sequence[NuProfile]) -> CriticalSet:
    """The first row of every ranking, from one `_walk` over the profiles.

    Before each point the midpoint after the previous one is probed (one
    unit of c1 before the first point, and past the last point at the
    end), from the walk's pieces; only the previous point is kept.  No
    ranking changes across a point where no two nu tie: only the first
    probe, tied points and the probes after them are ranked.
    """
    if not profiles:  # each has a breakpoint, its measure a positive mass
        raise ValueError("need at least one function")
    scale = lcm(*(p.den for p in profiles))
    wscale = lcm(*(p.wden for p in profiles))
    rows: dict[Ranking, tuple[tuple[int, int], list[int]]] = {}
    tied = True  # whether the last point tied; the first probe is ranked

    def probe(p: int, q: int, point: bool, values: Optional[list[int]] = None) -> None:
        nonlocal tied
        if point or tied:  # not a probe just after a point without a tie
            if values is None:
                values = [s * p + o * q for s, o in pieces]
            tied = not point or len(set(values)) < len(values)  # a midpoint keeps it
            if tied:
                rows.setdefault(ranking_of_values(values), ((p, q), values))

    last = None
    for p, q, pieces, values in _walk(profiles, scale, wscale):
        if last is None:  # one unit of c1 before the first point
            probe(p - scale * q, q, False)
        else:  # the midpoint after the previous point
            lp, lq = last
            probe(lp * q + p * lq, 2 * lq * q, False)
        probe(p, q, True, values)
        last = p, q
    p, q = last
    probe(p + scale * q, q, False)  # one unit of c1 past the last point
    return CriticalSet(tuple(profiles), scale, wscale, rows)


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


def certificate(
    critical: CriticalSet, indexes: Optional[Sequence[ReluIndex]] = None
) -> ShatterCertificate:
    """Certificate covering all 2^m label patterns of a critical set.

    Every witness is re-verified by classify's rule through the ReLU-sum
    definition on each profile's stored convolution (one ReluIndex per
    profile: `indexes` when the caller holds them, else built here), not
    the sweep's values; a witness that failed re-verification would mean
    an internal inconsistency, so it raises WitnessVerificationError
    instead of being silently dropped.
    """
    m = len(critical.profiles)
    found = _witnesses(critical)
    if indexes is None:
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
