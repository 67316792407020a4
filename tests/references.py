"""Slow reference implementations that the package's fast paths must match.

Each function here is the straightforward form of something the package
computes faster: the dense convolution loop, the sparse convolution,
nu profile, ReLU sum and forward-walk sweep in Fractions (the package
runs them on integers over one denominator), the bisect-based crossing
search over every pair on every grid piece, the ReLU sum term by term
(in Fractions and on a profile's integers), the witness table by
comparing every value with every cut, ranks by counting, the u-tower
functions by their dense formula, synth_kernel's construction in
Fractions with each k-vector scaled from its unit point
(`solve_k_vector`), the k-vector solved and checked on every tower level
for each target, verify_synth's level and value checks in Fractions,
the certificate's witness re-check one (witness, profile) pair at a
time, the peeling map F by its recursive definition, which
`orders.f_map` computes in one scan, and each ranking of the complete
order set from sigma~, the peel step that drops each element, which
`orders._ranking_for` reads off the chains upward.  The differential
tests assert identical results.  `translate`, the left translation g -> f(a g), is
what the translation-invariance tests apply, and `edited` is how tests
change fields of a SynthResult: through its constructor, so its shape
check runs again.  The witness references key patterns by label tuple;
`labelled` and `masked` convert to and from `shatter`'s masks.  `nu` and
`table_value` read one nu value through the package's `nu_values`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from gshatter.classifier import build_nu_profiles, nu_values
from gshatter.errors import (
    InvariantError,
    SynthesisVerificationError,
    WitnessVerificationError,
)
from gshatter.gfunc import GroupFunction, indicator
from gshatter.groups import find_order_ge3_element, find_order_two_element
from gshatter.orders import build_complete_orders, mask_elements, peel_chain
from gshatter.synth import (
    LAYOUTS,
    LEVEL_INTERVAL,
    SynthResult,
    build_u_tower,
    choose_subsets,
    synth_epsilon,
)


def translate(f: GroupFunction, a: int) -> GroupFunction:
    """The function g -> f(a*g)."""
    group = f.group
    return GroupFunction.from_values(
        group, [f.values[group.mul(a, g)] for g in range(group.order)]
    )


def edited(result: SynthResult, **changes) -> SynthResult:
    """result with the fields in `changes` replaced, built anew, with no report."""
    fields = {
        name: getattr(result, name) for name in SynthResult.__slots__ if name != "report"
    }
    return SynthResult(**(fields | changes))


def dense_convolve(f: GroupFunction, kernel: GroupFunction) -> tuple[Fraction, ...]:
    """(f * K)(g) = sum_h f(g h^-1) K(h), every g against supp(K)."""
    group = f.group
    terms = [(h, k) for h, k in enumerate(kernel.values) if k != 0]
    values = []
    for g in range(group.order):
        acc = Fraction(0)
        for h, k in terms:
            acc += f.values[group.mul(g, group.inv(h))] * k
        values.append(acc)
    return tuple(values)


def fraction_convolve(f: GroupFunction, kernel: GroupFunction) -> tuple[Fraction, ...]:
    """(f * K)(g) over pairs of a support point of f and one of K, in Fractions."""
    group = f.group
    terms = [(h, k) for h, k in enumerate(kernel.values) if k != 0]
    values = [Fraction(0)] * group.order
    for a, fa in enumerate(f.values):
        if fa != 0:
            for h, k in terms:
                values[group.mul(a, h)] += fa * k
    return tuple(values)


@dataclass(frozen=True)
class FractionProfile:
    """nu of one convolution in Fractions: piece i covers c in
    (breakpoints[i-1], breakpoints[i]], where nu(c) = slopes[i] c + offsets[i]."""

    conv: GroupFunction
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


def fraction_build_nu_profile(kernel: GroupFunction, f: GroupFunction) -> FractionProfile:
    """Breakpoints at c = -(f*K)(g); slopes (term counts) and offsets summed."""
    conv = GroupFunction.from_values(f.group, fraction_convolve(f, kernel))
    by_breakpoint: dict[Fraction, tuple[int, Fraction]] = {}
    for v in conv.values:
        count, mass = by_breakpoint.get(-v, (0, Fraction(0)))
        by_breakpoint[-v] = (count + 1, mass + v)
    breakpoints = sorted(by_breakpoint)
    slopes = [Fraction(0)]
    offsets = [Fraction(0)]
    for bp in breakpoints:
        count, mass = by_breakpoint[bp]
        slopes.append(slopes[-1] + count)
        offsets.append(offsets[-1] + mass)
    return FractionProfile(conv, tuple(breakpoints), tuple(slopes), tuple(offsets))


def fraction_relu_sum(conv: GroupFunction, c: Fraction) -> Fraction:
    """sum over conv(g) > -c of conv(g), plus c times the number of such g."""
    floor = -c
    mass = Fraction(0)
    count = 0
    for v in conv.values:
        if v > floor:
            mass += v
            count += 1
    return mass + c * count


def fraction_critical_set(profiles: Sequence[FractionProfile]):
    """(points, probes, values) of one forward walk over the grid, in Fractions.

    Each profile's piece index only moves forward; a pair's crossing is
    recomputed when one of the two enters a new piece and kept when it
    lies strictly inside the grid piece.
    """
    m = len(profiles)
    advancing: dict[Fraction, list[int]] = {}
    for k, p in enumerate(profiles):
        for bp in p.breakpoints:
            advancing.setdefault(bp, []).append(k)
    grid = sorted(advancing)
    criticals = set(grid)
    pieces = [0] * m
    lines = [(p.slopes[0], p.offsets[0]) for p in profiles]
    crossings: dict[tuple[int, int], Fraction] = {}

    def cross(i: int, j: int) -> None:
        (si, oi), (sj, oj) = lines[i], lines[j]
        if si == sj:
            crossings.pop((i, j), None)
        else:
            crossings[i, j] = (oj - oi) / (si - sj)

    for i, j in combinations(range(m), 2):
        cross(i, j)
    for lo, hi in zip([None, *grid], [*grid, None]):
        if lo is not None:
            moved = advancing[lo]
            for k in moved:
                pieces[k] += 1
                p = profiles[k]
                lines[k] = (p.slopes[pieces[k]], p.offsets[pieces[k]])
            for i, j in {(min(k, l), max(k, l)) for k in moved for l in range(m)}:
                if i != j:
                    cross(i, j)
        for c in crossings.values():
            if (lo is None or lo < c) and (hi is None or c < hi):
                criticals.add(c)
    points = tuple(sorted(criticals))
    probes = [points[0] - 1] if points else [Fraction(0)]
    for lo, hi in zip(points, points[1:]):
        probes += [lo, (lo + hi) / 2]
    if points:
        probes += [points[-1], points[-1] + 1]
    columns = [p.evaluate_sorted(probes) for p in profiles]
    values = tuple(list(row) for row in zip(*columns))
    return points, tuple(probes), values


def piece_lists(profile, scale: int) -> tuple[list[int], ...]:
    """profile.pieces collected as breakpoints, slopes and offsets on
    t = c * scale, a multiple of profile.den: slopes and offsets start with
    the zero piece left of the first breakpoint, so piece i covers t in
    (breakpoints[i-1], breakpoints[i]]."""
    k = scale // profile.den
    breakpoints, slopes, offsets = [], [0], [0]
    for t, slope, offset in profile.pieces():
        breakpoints.append(t * k)
        slopes.append(slope)
        offsets.append(offset * k)
    return breakpoints, slopes, offsets


def profile_value(profile, c: Fraction) -> Fraction:
    """nu(c) from an integer NuProfile's piece stream, by bisect."""
    t = c * profile.den
    breakpoints, slopes, offsets = piece_lists(profile, profile.den)
    i = bisect_left(breakpoints, t)
    return (slopes[i] * t + offsets[i]) / profile.den


def table_value(profile, c: Fraction) -> Fraction:
    """nu(c) from a profile's breakpoint table, read by `nu_values`."""
    [x], d = nu_values([profile], c)
    return Fraction(x, d)


def nu(kernel: GroupFunction, f: GroupFunction, c: Fraction) -> Fraction:
    """nu(c) = sum_g max(0, (f*K)(g) + c), from f's own profile."""
    return table_value(build_nu_profiles(kernel, [f])[0], c)


def dense_u_tower_functions(group, g: int, coeffs) -> tuple[GroupFunction, ...]:
    """u_i = a1 1_e + a2 1_g, formed at every element."""
    one_e = indicator(group, group.identity)
    one_g = indicator(group, g)
    return tuple(
        GroupFunction.from_values(
            group,
            [a1 * one_e.values[x] + a2 * one_g.values[x] for x in range(group.order)],
        )
        for a1, a2 in coeffs
    )


def bisect_critical_set(profiles):
    """(points, probes, values) of FractionProfiles: every pair tested on
    every grid piece.

    Each profile's piece on a grid piece is found by bisecting at a
    representative point inside it, and every probe is evaluated with
    its own bisect.
    """
    criticals: set[Fraction] = set()
    for p in profiles:
        criticals.update(p.breakpoints)
    grid = sorted(criticals)
    reps: list[Fraction] = []
    if grid:
        reps.append(grid[0] - 1)
        for lo, hi in zip(grid, grid[1:]):
            reps.append((lo + hi) / 2)
        reps.append(grid[-1] + 1)
    for rep_index, rep in enumerate(reps):
        lo = grid[rep_index - 1] if rep_index > 0 else None
        hi = grid[rep_index] if rep_index < len(grid) else None
        for i, j in combinations(range(len(profiles)), 2):
            pi, pj = profiles[i], profiles[j]
            si = pi.slopes[pi.piece_at(rep)]
            oi = pi.offsets[pi.piece_at(rep)]
            sj = pj.slopes[pj.piece_at(rep)]
            oj = pj.offsets[pj.piece_at(rep)]
            if si == sj:
                continue
            c = (oj - oi) / (si - sj)
            if (lo is None or lo < c) and (hi is None or c < hi):
                criticals.add(c)
    points = tuple(sorted(criticals))
    probes = [points[0] - 1] if points else [Fraction(0)]
    for lo, hi in zip(points, points[1:]):
        probes += [lo, (lo + hi) / 2]
    if points:
        probes += [points[-1], points[-1] + 1]
    values = tuple([[p.evaluate(c) for p in profiles] for c in probes])
    return points, tuple(probes), values


def termwise_relu_sum(conv: GroupFunction, c: Fraction) -> Fraction:
    """sum_g max(0, conv(g) + c), one term at a time."""
    total = Fraction(0)
    for v in conv.values:
        if v + c > 0:
            total += v + c
    return total


def loop_relu_sum(profile, c: Fraction) -> Fraction:
    """nu of a NuProfile at c, walking every term of `nums`.

    With c = a/b and (f*K)(g) = x/den, the term of g is active exactly
    when x > (-a*den) // b; the active terms add up to
    (mass*b + a*den*count) / (den*b).
    """
    a, b = c.numerator, c.denominator
    den = profile.den
    floor = (-a * den) // b
    mass = count = 0
    for x in profile.nums:
        if x > floor:
            mass += x
            count += 1
    return Fraction(mass * b + a * den * count, den * b)


def solve_k_vector(tower, i: int, A: Fraction) -> tuple[Fraction, Fraction]:
    """The plane point k with u~_i(k) = A and u~_l(k) < B for every l != i.

    k is A times the tower's unit point for i, whose u~_i is 1, so
    u~_l(k) = A u~_l(unit point) and the post-condition is that A times
    the largest of those over l != i is below B.
    """
    if i % 2 != 0 or not 2 <= i <= 2 * tower.p:
        raise ValueError(f"index must be even in [2, 2p], got {i}")
    A = Fraction(A)
    if not tower.B < A < tower.C:
        raise ValueError(f"target {A} outside the open interval ({tower.B}, {tower.C})")
    (k0, k1), top = tower.unit_points[i // 2 - 1]
    if not A * top < tower.B:
        raise SynthesisVerificationError(
            f"max over l != {i} of u~_l(k) = {A * top} is not below B = {tower.B}"
        )
    return (A * k0, A * k1)


def fraction_synth_kernel(group, m: int, mode: str):
    """synth_kernel's construction in Fractions: (kernel, ms, thresholds).

    Each round's targets, the running totals and their spread are
    Fractions, and each spike is solve_k_vector's point for its target.
    """
    B, C = LEVEL_INTERVAL
    find = find_order_two_element if mode == "order_two" else find_order_ge3_element
    g = find(group)
    orders = build_complete_orders(m).rankings
    layout = LAYOUTS[mode]
    tower = build_u_tower(B, C, p=m)
    subsets = choose_subsets(group, g, len(orders), m, mode)
    epsilon = synth_epsilon(B, C, m)

    def translates(h, offsets):
        return [group.mul(group.power(g, j), h) for j in offsets]

    values: dict[int, Fraction] = {}
    totals = [Fraction(0)] * m
    ms, thresholds = [], []
    m_prev, big_m_prev = C, Fraction(0)
    for order, subset in zip(orders, subsets):
        targets = [m_prev - (m - i) * (big_m_prev + epsilon) for i in range(m)]
        assert B < targets[0]
        for i, h in enumerate(subset):
            k = order.index(i + 1)
            point = solve_k_vector(tower, 2 * (k + 1), targets[i])
            values.update(zip(translates(h, layout.spikes), point))
            totals[k] += targets[i]
        ms.append(targets[0])
        thresholds.append(targets[0] - epsilon / 2)
        m_prev, big_m_prev = targets[0], max(totals) - min(totals)
    even = [tower.coeffs[2 * q][j] for q in range(1, m + 1) for j in (0, 1)]
    guard = -max(abs(v) for v in values.values()) * max(even) / min(even)
    for h in (h for sub in subsets for h in sub):
        values.update(dict.fromkeys(translates(h, layout.guards), guard))
    kernel = GroupFunction.from_values(
        group, [values.get(x, Fraction(0)) for x in range(group.order)]
    )
    return kernel, tuple(ms), tuple(thresholds)


def full_solve_k_vector(tower, i: int, A: Fraction) -> tuple[Fraction, Fraction]:
    """solve_k_vector with the 2x2 system solved for this A, and the
    post-conditions checked on every tower level."""
    if i % 2 != 0 or not 2 <= i <= 2 * tower.p:
        raise ValueError(f"index must be even in [2, 2p], got {i}")
    A = Fraction(A)
    if not tower.B < A < tower.C:
        raise ValueError(f"target {A} outside ({tower.B}, {tower.C})")
    r0, r1 = tower.coeffs[i - 2], tower.coeffs[i - 1]
    rhs0, rhs1 = 2 * A / tower.epsilons[i // 2 - 1], -A
    det = r0[0] * r1[1] - r0[1] * r1[0]
    if det == 0:
        raise SynthesisVerificationError(f"singular system for u~_{i}")
    k = (
        (rhs0 * r1[1] - r0[1] * rhs1) / det,
        (r0[0] * rhs1 - rhs0 * r1[0]) / det,
    )
    for l in range(2 * tower.p + 2):
        a1, a2 = tower.coeffs[l]
        value = a1 * k[0] + a2 * k[1]
        if l == i:
            if value != A:
                raise SynthesisVerificationError(f"u~_{i}(k) = {value}, expected {A}")
        elif not value < tower.B:
            raise SynthesisVerificationError(f"u~_{l}(k) = {value} is not below B")
    return k


def cut_witnesses(probes, values):
    """First (c1, c2) per label pattern, comparing each value with each cut."""
    found: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    for c1, row in zip(probes, values):
        cuts = sorted(set(row), reverse=True)
        cuts.append(cuts[-1] - 1)
        for threshold in cuts:
            labels = tuple(1 if v > threshold else -1 for v in row)
            found.setdefault(labels, (c1, -threshold))
    return found


def exceeds_recheck(profiles, found) -> None:
    """certificate's witness re-check, one (witness, profile) pair at a time.

    Walks the patterns in product order and reads nu(c1) + c2 > 0 on each
    profile, with nu summed term by term (`loop_relu_sum`); the first
    failure raises WitnessVerificationError with certificate's text.
    """
    for labels in product((-1, 1), repeat=len(profiles)):
        if labels not in found:
            continue
        c1, c2 = found[labels]
        for k, profile in enumerate(profiles):
            got = 1 if loop_relu_sum(profile, c1) + c2 > 0 else -1
            if got != labels[k]:
                raise WitnessVerificationError(
                    f"witness ({c1}, {c2}) for {labels} fails on "
                    f"function {k}: the classifier gives {got}"
                )


def labelled(found, m: int) -> dict:
    """Mask-keyed patterns as label tuples, in the same order: function k
    is +1 exactly where bit m-1-k of the mask is set.  `masked` inverts it."""
    return {
        tuple(1 if mask >> (m - 1 - k) & 1 else -1 for k in range(m)): witness
        for mask, witness in found.items()
    }


def masked(found) -> dict:
    """Label-tuple-keyed patterns as masks, in the same order."""
    return {
        sum(1 << (len(labels) - 1 - k) for k, x in enumerate(labels) if x > 0): witness
        for labels, witness in found.items()
    }


def counted_ranks(values) -> tuple[int, ...]:
    """rank(k) = 1 + #{l : value_l < value_k}, counted pair by pair."""
    return tuple(1 + sum(1 for other in values if other < v) for v in values)


def fraction_value_checks(result) -> dict[str, tuple[bool, str]]:
    """verify_synth's forbidden-band, kernel-minimum-level and
    guard-translates checks, comparing Fraction convolution values."""
    group = result.group
    convs = [fraction_convolve(f, result.kernel) for f in result.family()]
    epsilon = result.epsilon
    checks: dict[str, tuple[bool, str]] = {}
    band_ok = True
    detail = ""
    for l in range(len(result.ms)):
        lo, hi = result.ms[l] - epsilon, result.ms[l]
        for conv in convs:
            for v in conv:
                if lo < v < hi:
                    band_ok = False
                    detail = f"value {v} inside the band around m_{l + 1}"
    checks["forbidden-band"] = (band_ok, detail or "no convolution value in any band")
    min_over_b = min(
        (v for conv in convs for v in conv if v > result.B), default=None
    )
    checks["kernel-minimum-level"] = (
        min_over_b == result.ms[-1],
        f"smallest convolution value above B is {min_over_b}",
    )
    if result.mode == "general":
        translate_ok = True
        for h in (h for sub in result.subsets for h in sub):
            for shift in (-2, -1, 1, 2):
                x = group.mul(group.power(result.g, shift), h)
                if any(conv[x] > 0 for conv in convs):
                    translate_ok = False
        checks["guard-translates"] = (
            translate_ok, "convolutions are <= 0 on every guarded translate"
        )
    return checks


def fraction_level_checks(result) -> dict[str, tuple[bool, str]]:
    """verify_synth's level-recursion, level-condition, spread-bound,
    thresholds, orders-realized and pairwise-gaps checks, with each nu a
    termwise ReLU sum over Fraction convolution values, ranks counted and
    every pair of values tested for the eps gap."""
    convs = [
        GroupFunction.from_values(result.group, fraction_convolve(f, result.kernel))
        for f in result.family()
    ]

    def nus(c: Fraction) -> list[Fraction]:
        return [termwise_relu_sum(conv, c) for conv in convs]

    m, epsilon, ms = result.m, result.epsilon, result.ms
    checks: dict[str, tuple[bool, str]] = {}
    m_prev, big_m, big_ms = result.C, Fraction(0), []
    detail = ""
    for l in range(1, len(ms) + 1):
        m_cur = m_prev - m * (big_m + epsilon)
        if ms[l - 1] != m_cur:
            detail = f"round {l}: recorded m_l disagrees with recursion"
            break
        values = nus(-m_cur + epsilon)
        big_m = max(values) - min(values)
        big_ms.append(big_m)
        m_prev = m_cur
    checks["level-recursion"] = (
        not detail, detail or f"m_l chain of length {len(ms)} reproduced"
    )
    if detail:
        skipped = (False, "skipped: level recursion broken")
        checks["level-condition"] = checks["spread-bound"] = skipped
    else:
        checks["level-condition"] = (
            all(result.B < ms[l] - m * (big_ms[l] + epsilon) for l in range(len(ms))),
            "B < m_l - m(M_l + eps) at every level",
        )
        checks["spread-bound"] = (
            all(big_ms[l - 1] <= epsilon * (m**l - 1) for l in range(1, len(ms) + 1)),
            "M_l <= eps (m^l - 1) at every level",
        )
    checks["thresholds"] = (
        all(c == ml - epsilon / 2 for c, ml in zip(result.thresholds, ms)),
        "c_l = m_l - eps/2 for every level",
    )
    level_nus = [nus(-c) for c in result.thresholds]
    targets = build_complete_orders(m).rankings
    detail = ""
    for l, values in enumerate(level_nus):
        got = counted_ranks(values)
        if got != targets[l]:
            detail = f"level {l + 1}: ranking {got} != target {targets[l]}"
            break
    checks["orders-realized"] = (
        not detail, detail or f"all {len(targets)} target orders hit"
    )
    detail = ""
    for l, values in enumerate(level_nus):
        if any(abs(a - b) < epsilon for a, b in combinations(values, 2)):
            detail = f"level {l + 1}: gap below eps"
    checks["pairwise-gaps"] = (
        not detail, detail or "all nu gaps >= eps at each -c_l"
    )
    return checks


def _check_subset(mask: int, q: int, m: int, where: str) -> None:
    if m < 1 or not 0 <= q <= m:
        raise ValueError(f"{where}: need 0 <= q <= m with m >= 1, got q={q}, m={m}")
    if mask >> m:
        raise ValueError(f"{where}: mask {mask:#x} has elements above {m}")
    if mask.bit_count() != q:
        raise ValueError(
            f"{where}: mask has {mask.bit_count()} elements, expected {q}"
        )


def recursive_f_map_base(q: int, mask: int) -> int:
    """The peeling map S(q, 2q-1) -> S(q-1, 2q-1); a bijection.

    Removes j, the largest element of A whose successor (within the
    universe) is missing from A, then recurses on the gap-closed copy of
    the remainder.  The one set with no such j is the suffix interval
    {q, ..., 2q-1}, which loses its minimum.
    """
    m = 2 * q - 1
    _check_subset(mask, q, m, "f_map_base")
    if q == 1:
        return 0
    j = None
    for a in range(m - 1, 0, -1):  # a+1 must stay inside the universe
        if mask & (1 << (a - 1)) and not mask & (1 << a):
            j = a
            break
    if j is None:
        # mask is {q, ..., 2q-1}: drop its minimum.
        return mask & ~(1 << (q - 1))
    # Close the two-slot gap {j, j+1} and recurse one size down.
    inner = 0
    rest = mask & ~(1 << (j - 1))
    for a in mask_elements(rest):
        inner |= 1 << ((a - 1) if a < j else (a - 3))
    image = recursive_f_map_base(q - 1, inner)
    lifted = 0
    for b in mask_elements(image):
        lifted |= 1 << ((b - 1) if b < j else (b + 1))
    return lifted | (1 << (j - 1))


def recursive_f_map(q: int, m: int, mask: int) -> int:
    """The general peeling map S(q, m) -> S(q-1, m) with F(A) a subset of A.

    Injective when C(m, q) <= C(m, q-1), surjective when C(m, q) >=
    C(m, q-1), bijective at m = 2q-1.
    """
    _check_subset(mask, q, m, "f_map")
    if q < 1:
        raise ValueError("f_map needs a nonempty subset")
    if q == 1:
        return 0
    if m == 2 * q - 1:
        return recursive_f_map_base(q, mask)
    top = 1 << (m - 1)
    if mask & top:
        return recursive_f_map(q - 1, m - 1, mask & ~top) | top
    return recursive_f_map(q, m - 1, mask)


def chain_ranks(chain: list[int]) -> dict[int, int]:
    """sigma~: rank each element of A = chain[0] by the peel step that drops it.

    The element dropped first gets rank 1, so survivors of k peels rank
    above everything already dropped.  Each step must drop one element.
    """
    ranks: dict[int, int] = {}
    for k, (cur, nxt) in enumerate(zip(chain, chain[1:]), 1):
        dropped = cur & ~nxt
        if dropped.bit_count() != 1 or nxt & ~cur:
            raise InvariantError(
                f"peeling map broke the chain at step {k} for mask {chain[0]:#x}"
            )
        ranks[dropped.bit_length()] = k
    return ranks


def sigma_ranking_for(chain: list[int], m: int) -> tuple[int, ...]:
    """Strict ranking that separates a subset A and its whole peel chain.

    `chain` is A's peel chain.  Elements of A occupy ranks 1..|A| in
    reverse peel order (the longest survivor ranks lowest), so every
    bottom prefix of the ranking is a chain set.  The complement occupies
    the top ranks, mirrored the same way.
    """
    mask = chain[0]
    s = mask.bit_count()
    ranks = [0] * m
    for a, k in chain_ranks(chain).items():
        ranks[a - 1] = s + 1 - k
    comp = ((1 << m) - 1) & ~mask
    csize = comp.bit_count()
    for b, k in chain_ranks(peel_chain(comp, m)).items():
        ranks[b - 1] = s + (csize + 1 - k)
    return tuple(ranks)
