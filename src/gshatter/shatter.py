"""Exact enumeration of realizable label patterns and shattering proofs.

For a fixed kernel K and functions f_1..f_m, the classifier's label
vector depends on (c1, c2) only through the ranking and values of the
nu functions at c1.  Those are piecewise affine in c1, so probing one
rational point inside every maximal piece — plus every breakpoint and
crossing — visits every realizable label pattern.  Each witnessed
pattern is re-verified before it enters a certificate: nu is evaluated
at the witness from each profile's breakpoint table (`nu_values`), not
read off the sweep's pieces, crossings, probes or cuts that found it.
A row synth cut from its levels holds the very `nu_values` read, at the
same c1, that the re-check repeats, so there it checks the cuts and
each c2, not the values; re-deriving those is the independent checker
of ROADMAP item 4.

The sweep runs on integers over the family's one denominator: Fractions
appear only in emitted (c1, c2) witnesses, and floats nowhere.  It ends
once the strict rankings it has seen form a complete set of orders,
which decides both the certificate and the order criterion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from heapq import merge
from itertools import chain, combinations, groupby, product, repeat
from math import gcd
from typing import Iterator, NamedTuple, Optional, Sequence

from .classifier import NuProfile, build_nu_profiles, nu_values, ranking_of_values
from .errors import InvariantError, WitnessVerificationError
from .gfunc import GroupFunction, Measure, _same_group
from .orders import OrderSet, is_complete, separated_masks


class DichotomyEntry(NamedTuple):
    labels: tuple[int, ...]
    status: str  # "witnessed" | "unreachable"
    c1: Optional[Fraction] = None
    c2: Optional[Fraction] = None


class ShatterCertificate(NamedTuple):
    """Witness or absence marker for each of the 2^m label patterns."""

    m: int
    entries: tuple[DichotomyEntry, ...]
    shattered: bool

    def witnessed_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "witnessed")


class CriticalSet(NamedTuple):
    """The first row of each ranking over the points where one can change.

    On the scale t = c1 * den, with den the one denominator the profiles
    share, every breakpoint is an integer.  The critical points t = p / q
    (integers, q > 0) are every nu breakpoint and every crossing of two
    nu inside a shared affine piece.  Between consecutive points every nu
    is affine, so the ranking is constant there, and the probes (each
    point, the midpoints between them and one unit of c1 past either end)
    reach every ranking attained on the whole real line.  `rows` maps
    each attained ranking, in probe order, to its first probe (p, q) and
    its values: `values[k]` is nu of `profiles[k]` there times q*den.
    When `stopped`, the walk ended at the row whose strict rankings
    became a complete set, and `rows` holds the rankings up to it only.
    `verify_synth` builds its rows from level probes (c1 = -c_l) instead.
    No point is kept: `points` and `probes` walk the profiles' line again.
    """

    profiles: tuple[NuProfile, ...]
    rows: dict[tuple[int, ...], tuple[tuple[int, int], list[int]]]
    stopped: bool

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The critical bias values c1, in ascending order."""
        den = self.profiles[0].den
        return tuple(Fraction(p, q * den) for p, q, _, _ in _walk(self.profiles))

    @property
    def probes(self) -> tuple[Fraction, ...]:
        """The probe bias values c1, in ascending order."""
        pts = self.points
        mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        return (pts[0] - 1, *chain.from_iterable(zip(pts, mids)), pts[-1], pts[-1] + 1)


# Orders pairs (p, q > 0) by the value p / q, without building Fractions.
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _walk(profiles: Sequence[NuProfile]) -> Iterator[tuple]:
    """The critical points t = p / q, ascending, as (p, q, pieces, values).

    The profiles' piece streams merge by t into one grid, so on each open
    piece of it nu_k * den = s * t + o with (s, o) = pieces[k].  Two
    affine functions cross strictly inside a piece exactly when their
    strict order differs at its two ends (a tie at either end is no flip).
    Left of the grid every nu is 0; past it every term is active, so
    every nu has slope n, the group order, and no two cross there.  A
    piece's crossings come first, with values None, then its right end
    with its m values.  `pieces` is one list, moved on when the walk
    resumes past a grid point, so a consumer reads it before asking for
    the next point.
    """
    m = len(profiles)
    streams = [zip(p.pieces(), repeat(k)) for k, p in enumerate(profiles)]
    pieces, left = [(0, 0)] * m, [0] * m  # left of the grid every nu is 0
    pairs = list(combinations(range(m), 2))
    for t, entering in groupby(merge(*streams), key=lambda item: item[0][0]):
        right = [s * t + o for s, o in pieces]
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
        yield t, 1, pieces, right  # nu is continuous: one value from either side
        for (_, slope, offset), k in entering:
            pieces[k] = (slope, offset)
        left = right


def critical_set(profiles: Sequence[NuProfile]) -> CriticalSet:
    """The first row of every ranking, from one `_walk` over the profiles.

    Before each point the midpoint after the previous one is probed (one
    unit of c1 before the first point), from the walk's pieces; only the
    previous point is kept.  No ranking changes across a point where no
    two nu tie: only the first probe, tied points and the probes after
    them are ranked.  Past the last point every nu has the same slope, so
    the ranking there is that of the last point.  `ValueError` refuses
    profiles of groups of different orders, whose slopes differ past the
    last point, and profiles over different dens, which share no grid.

    The walk stops at the first row after which the recorded strict
    rankings separate all 2^m subsets.  Such a set is complete, so every
    label pattern is a cut of some row already kept, and no later row
    can change a first witness or the order criterion.  A family that
    never gets there is walked to the end.
    """
    if not profiles:  # each has a breakpoint, its group an element
        raise ValueError("need at least one function")
    if len({len(p.nums) for p in profiles}) > 1:
        raise ValueError("profiles of groups of different orders")
    if len({p.den for p in profiles}) > 1:
        raise ValueError("profiles over different denominators")
    den = profiles[0].den
    rows: dict[tuple[int, ...], tuple[tuple[int, int], list[int]]] = {}
    tied = True  # whether the last point tied; the first probe is ranked
    separated: set[int] = set()  # the subsets the strict rows separate
    everything = 1 << len(profiles)

    def probe(p: int, q: int, point: bool, values: Optional[list[int]] = None) -> bool:
        """Rank one probe; whether the strict rows kept are now complete."""
        nonlocal tied
        if point or tied:  # not a probe just after a point without a tie
            if values is None:
                values = [s * p + o * q for s, o in pieces]
            tied = not point or len(set(values)) < len(values)  # a midpoint keeps it
            if tied:
                ranking = ranking_of_values(values)
                if ranking not in rows:
                    rows[ranking] = (p, q), values
                    separated.update(separated_masks(ranking))
                    return len(separated) == everything
        return False

    last, stopped = None, False
    for p, q, pieces, values in _walk(profiles):
        if last is None:  # one unit of c1 before the first point
            bp, bq = p - den * q, q
        else:  # the midpoint after the previous point
            lp, lq = last
            bp, bq = lp * q + p * lq, 2 * lq * q
        if probe(bp, bq, False) or probe(p, q, True, values):
            stopped = True
            break
        last = p, q
    return CriticalSet(tuple(profiles), rows, stopped)


def critical_points(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> CriticalSet:
    """Bias values at which the ranking of the nu functions can change,
    with mu the counting measure on K's group."""
    _same_group(mu.group, kernel.group, "critical_points")
    return critical_set(build_nu_profiles(kernel, fs))


def _witnesses(critical: CriticalSet) -> dict[int, tuple[Fraction, Fraction]]:
    """First witness (c1, c2) for every realizable label pattern, by mask.

    Function k's +1 sits on bit m-1-k, so ascending masks run in
    `product((-1, 1), repeat=m)` order.  They never meet `separated_masks`'
    masks: the certificate and the order criterion stay independent.  At a
    fixed c1, the cuts of c2 at the distinct nu values give every pattern
    realizable there (+1 exactly above the cut), and the patterns depend
    only on the ranking, so the first row of each ranking gives every first
    witness.  A row's cuts are prefix ORs over its indices sorted by value,
    descending, then one a unit of nu below the minimum that labels all +1.
    A row forms its c1 once, at its first new pattern, and its entries
    share it; a row that cuts no new pattern forms none.
    """
    found: dict[int, tuple[Fraction, Fraction]] = {}
    den = critical.profiles[0].den
    m = len(critical.profiles)
    bits = [1 << (m - 1 - k) for k in range(m)]
    for (p, q), values in critical.rows.values():
        if len(found) == 1 << m:  # every pattern has its first witness
            break
        unit, mask, c1 = q * den, 0, None
        top_down = sorted(range(m), key=values.__getitem__, reverse=True)
        for value, group in groupby(top_down, key=values.__getitem__):
            if mask not in found:
                if c1 is None:  # the row's first new pattern
                    c1 = Fraction(p, unit)
                found[mask] = (c1, Fraction(-value, unit))
            for k in group:
                mask |= bits[k]
        if mask not in found:
            c1 = Fraction(p, unit) if c1 is None else c1
            found[mask] = (c1, Fraction(unit - value, unit))
    return found


def certificate(critical: CriticalSet) -> ShatterCertificate:
    """Certificate covering all 2^m label patterns of a critical set.

    Every witness is re-verified by classify's rule, with nu evaluated at
    the witness from each of `critical.profiles`' breakpoint tables
    (`nu_values`), not taken from the sweep's pieces or values.  A row that
    synth cut from its levels was made by this very read, at the same c1, so
    there the cuts and each c2 are re-checked, not the values (ROADMAP item
    4 is the checker that re-derives them).  A row's witnesses are
    contiguous in discovery order and share its c1, so nu is read once per
    distinct c1.  Each witness is then decided by two products: the smallest
    nu on its mask's +1 bits and the largest on its -1 bits against its cut.
    A witness that failed re-verification would mean an internal
    inconsistency, so the first such one in discovery order raises
    WitnessVerificationError, naming its first failing function, instead of
    being silently dropped.  A sweep that stopped early claims a complete
    set of rankings, so a pattern left without a witness there raises
    InvariantError: a stop rule that fired too early never passes as a
    negative verdict.  Entry i is mask i; a label tuple is formed only for
    an entry or an error message.
    """
    m = len(critical.profiles)
    bits = [1 << (m - 1 - k) for k in range(m)]
    found = _witnesses(critical)
    if critical.stopped and len(found) < 2 ** m:
        raise InvariantError(
            "the sweep stopped at a complete set of rankings, yet "
            f"{2 ** m - len(found)} of {2 ** m} label patterns have no witness"
        )
    read = None
    for mask, (c1, c2) in found.items():
        if read != c1:
            read, (xs, scale) = c1, nu_values(critical.profiles, c1)
        # nu_k(c1) + c2 > 0 exactly when xs[k] * c2.den > -c2.num * scale,
        # so the smallest +1 value and the largest -1 value decide them all.
        cut, den = -c2.numerator * scale, c2.denominator
        low = high = None
        for x, bit in zip(xs, bits):
            if mask & bit:
                if low is None or x < low:
                    low = x
            elif high is None or x > high:
                high = x
        if low is not None and low * den <= cut or high is not None and high * den > cut:
            labels = tuple(1 if mask & bit else -1 for bit in bits)
            for k, x in enumerate(xs):
                got = 1 if x * den > cut else -1
                if got != labels[k]:
                    raise WitnessVerificationError(
                        f"witness ({c1}, {c2}) for {labels} fails on "
                        f"function {k}: the classifier gives {got}"
                    )
    entries = tuple(
        DichotomyEntry(labels, "witnessed", *found[mask])
        if mask in found
        else DichotomyEntry(labels, "unreachable")
        for mask, labels in enumerate(product((-1, 1), repeat=m))
    )
    shattered = len(found) == 2 ** m
    return ShatterCertificate(m=m, entries=entries, shattered=shattered)


def attained_orders(critical: CriticalSet) -> OrderSet:
    """The rankings of a critical set's rows, in probe order: every one
    the nu values attain, or those up to the first complete set when the
    sweep stopped there."""
    return OrderSet(len(critical.profiles), tuple(critical.rows))


def is_shattered(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> ShatterCertificate:
    """Certificate covering all 2^m label patterns; see `certificate`."""
    return certificate(critical_points(kernel, fs, mu))


def check_order_criterion(
    kernel: GroupFunction, fs: Sequence[GroupFunction], mu: Measure
) -> bool:
    """Whether the attained rankings contain a complete set of orders.

    Equivalent to is_shattered(...).shattered.
    """
    return is_complete(attained_orders(critical_points(kernel, fs, mu)))
