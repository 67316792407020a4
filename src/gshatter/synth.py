"""Kernel synthesis: build a kernel whose classifier realizes target orders.

The construction works round by round.  Round l plants, for each of the m
tower functions, one "spike" pair of kernel values at fresh group
elements, sized so that at the bias -c_l exactly the spikes of rounds up
to l are active and the ranking of the nu values equals the l-th target
order.  Spikes of later rounds are too small to matter at -c_l, and an
open value band below each level stays empty so the levels never blur.

A synthesis is named by its group, m and mode; they fix the tower
element g and the C(m, floor(m/2)) target orders.  The levels lie in
the interval (B, C) = LEVEL_INTERVAL.  The construction checks only
what its next step needs (the group order before g).  A SynthResult
checks its own shape, and `verify_synth` checks every claim about the
output once, re-deriving the target orders from m and the rest from
the kernel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, pairwise
from math import ceil, floor, lcm
from typing import Iterator, NamedTuple, Optional, Sequence

from .bounds import ELEMENTS_PER_CENTRE, required_group_size
from .classifier import NuProfile, build_nu_profiles, nu_values, ranking_of_values
from .errors import GroupTooSmallError, ModeElementError, SynthesisVerificationError, _quoted
from .gfunc import GroupFunction, fraction_to_str, ratio_to_str
from .groups import FiniteGroup, find_order_ge3_element, find_order_two_element
from .orders import OrderSet, build_complete_orders, completeness_lower_bound
from .shatter import CriticalSet, ShatterCertificate, certificate, critical_set

MODES = tuple(ELEMENTS_PER_CENTRE)
# The open interval (B, C) that holds every level; any 0 < B < C works.
LEVEL_INTERVAL = (Fraction(1), Fraction(2))


class Layout(NamedTuple):
    """Where a centre h puts kernel values, as the offsets j of g^j h.

    Spikes carry a solved plane point, k1 on h and k2 on g^-1 h; guards
    carry the guard value.  No two centres' windows meet; general mode's
    window adds g^2 h, which guard-translates reads.
    """

    spikes: tuple[int, ...]
    guards: tuple[int, ...]
    window: range


LAYOUTS = {
    "order_two": Layout(spikes=(0, -1), guards=(), window=range(-1, 1)),
    "general": Layout(spikes=(0, -1), guards=(-2, 1), window=range(-2, 3)),
}


def _translates(
    group: FiniteGroup, g: int, h: int, offsets: Sequence[int]
) -> list[int]:
    """The elements g^j h for j in offsets."""
    return [group.mul(group.power(g, j), h) for j in offsets]


class UTower(NamedTuple):
    """The coefficient pairs u_i = a_{i,1} 1_e + a_{i,2} 1_g of the tower
    u_0 = 1_e, u_1 = 1_g and its alternating recursion

        u_{2q}   = eps_q * u_{2q-2} + u_{2q-1}
        u_{2q+1} = u_{2q-2} + eps_q * u_{2q-1}

    as points of the plane; they do not depend on the group or on g.
    unit_points[q - 1] is the plane point k^ with u~_{2q}(k^) = 1 that
    synth_kernel scales, and the largest u~_l(k^) over l != 2q.
    """

    B: Fraction
    C: Fraction
    p: int
    coeffs: tuple[tuple[Fraction, Fraction], ...]
    epsilons: tuple[Fraction, ...]
    unit_points: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...]


def build_u_tower(B: Fraction, C: Fraction, p: int) -> UTower:
    """Tower u_0 .. u_{2p+1} with eps_q = 4C/B + 1 + (p-q)(B/C + 1)."""
    if not 0 < B < C:
        raise ValueError(f"need C > B > 0, got B={B}, C={C}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    B, C = Fraction(B), Fraction(C)
    epsilons = tuple(
        4 * C / B + 1 + (p - q) * (B / C + 1) for q in range(1, p + 1)
    )
    for q, (a, b) in enumerate(zip(epsilons, epsilons[1:]), 1):
        if not b < a - B / C:
            raise SynthesisVerificationError(f"eps_{q + 1} is not below eps_{q} - B/C")
    coeffs: list[tuple[Fraction, Fraction]] = [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    for eq in epsilons:  # u_{2q-2} and u_{2q-1} give u_{2q} and u_{2q+1}
        (e1, e2), (o1, o2) = coeffs[-2:]
        coeffs += [(eq * e1 + o1, eq * e2 + o2), (e1 + eq * o1, e2 + eq * o2)]
    for q in range(1, p + 1):
        a1, a2 = coeffs[2 * q]
        if not (a1 > 0 and a2 > 0):
            raise SynthesisVerificationError(f"u_{2 * q} has a coefficient <= 0")
    # The system for u~_i(k) = A has rows a_{i-2}, a_{i-1} and right side
    # A (2/eps_{i/2}, -1), so k is A times its solution at A = 1.
    unit_points = []
    for q in range(1, p + 1):
        i = 2 * q
        (r00, r01), (r10, r11) = coeffs[i - 2], coeffs[i - 1]
        rhs0, rhs1 = 2 / epsilons[q - 1], Fraction(-1)
        det = r00 * r11 - r01 * r10
        if det == 0:
            raise SynthesisVerificationError(f"singular system for u~_{i}")
        k = ((rhs0 * r11 - r01 * rhs1) / det, (r00 * rhs1 - rhs0 * r10) / det)
        values = [a1 * k[0] + a2 * k[1] for a1, a2 in coeffs]
        if values[i] != 1:
            raise SynthesisVerificationError(f"u~_{i}(k) = {values[i]}, expected 1")
        unit_points.append((k, max(values[:i] + values[i + 1:])))
    return UTower(B, C, p, tuple(coeffs), epsilons, tuple(unit_points))


def choose_subsets(
    group: FiniteGroup, g: int, r: int, m: int, mode: str
) -> tuple[tuple[int, ...], ...]:
    """Greedily pick r m-tuples of spike centres with disjoint windows.

    The window of centre h is {g^j h : j in LAYOUTS[mode].window}.
    Smallest usable element index wins, so the choice is deterministic.
    synth_kernel has checked that the group has room for every pick.
    The windows' disjointness is checked once, by verify_synth.
    """
    # Windows of two centres are disjoint exactly when no power of g in
    # the pairwise differences of the window offsets joins them.
    window = LAYOUTS[mode].window
    shifts = {a - b for a in window for b in window}
    blocked: set[int] = set()
    chosen: list[int] = []
    pick = -1  # each pick blocks itself, so the next one lies above it
    for _ in range(r * m):
        pick = next(
            (x for x in range(pick + 1, group.order) if x not in blocked), None
        )
        if pick is None:
            raise SynthesisVerificationError("greedy selection ran out of elements")
        chosen.append(pick)
        blocked.update(_translates(group, g, pick, shifts))
    return tuple(tuple(chosen[l * m : (l + 1) * m]) for l in range(r))


def _check_subsets(
    group: FiniteGroup,
    g: int,
    subsets: Sequence[Sequence[int]],
    mode: str,
) -> Optional[str]:
    """None when the windows of all centres are pairwise disjoint, else
    the finding.

    Sets are pairwise disjoint exactly when their union is as large as
    their sizes added up; a repeated centre repeats its window.  The rule
    needs no window size: when g has order 3 or 4, a general-mode window
    holds fewer than five elements.
    """
    window = LAYOUTS[mode].window
    windows = [set(_translates(group, g, h, window)) for sub in subsets for h in sub]
    if len(set().union(*windows)) != sum(len(w) for w in windows):
        return f"the windows of the {len(windows)} centres are not pairwise disjoint"
    return None


class SynthResult:
    # report is verify_synth's report, which synth_kernel attaches; None otherwise.
    __slots__ = ("kernel", "u", "subsets", "epsilon", "thresholds", "ms", "g", "mode",
                 "B", "C", "report")

    def __init__(
        self,
        kernel: GroupFunction,
        u: tuple[GroupFunction, ...],
        subsets: tuple[tuple[int, ...], ...],
        epsilon: Fraction,
        thresholds: tuple[Fraction, ...],
        ms: tuple[Fraction, ...],
        g: int,
        mode: str,
        B: Fraction,
        C: Fraction,
    ):
        """The shape every reader may rely on; the values are verify_synth's."""
        self.kernel, self.u, self.subsets, self.epsilon = kernel, u, subsets, epsilon
        self.thresholds, self.ms, self.g, self.mode = thresholds, ms, g, mode
        self.B, self.C, self.report = B, C, None
        if len(self.u) % 2 or len(self.u) < 4:
            raise ValueError(f"need 2m + 2 >= 4 tower functions, got {len(self.u)}")
        m, order = self.m, self.group.order
        r = completeness_lower_bound(m)  # one level, threshold and subset per target order
        lengths = {len(self.ms), len(self.thresholds), len(self.subsets)}
        if lengths != {r} or any(len(sub) != m for sub in self.subsets):
            raise ValueError(f"m = {m} needs {r} levels, thresholds and subsets of m centres")
        if not all(0 <= x < order for x in (self.g, *(h for sub in self.subsets for h in sub))):
            raise ValueError(f"g and every centre must lie in [0, {order})")
        if self.g == self.group.identity:
            raise ValueError("tower element g must differ from the identity")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.B < self.C:
            B, C = _quoted(self.B, fraction_to_str), _quoted(self.C, fraction_to_str)
            raise ValueError(f"need C > B > 0, got B={B}, C={C}")

    @property
    def group(self) -> FiniteGroup:
        return self.kernel.group

    @property
    def m(self) -> int:
        return (len(self.u) - 2) // 2

    def family(self) -> tuple[GroupFunction, ...]:
        """The classified functions u_2, u_4, ..., u_{2m}."""
        return tuple(self.u[2 * k] for k in range(1, self.m + 1))


def synth_epsilon(B: Fraction, C: Fraction, m: int) -> Fraction:
    """The level-separation constant (C-B)(m-1) / (2m(m-1+m^{r+1}-1)),
    with r = C(m, floor(m/2)) the number of target orders.

    The formula vanishes at m = 1 where no separation between functions
    is needed; any positive value below C - B keeps the single spike
    target inside (B, C), so we use (C-B)/4 there.
    """
    r = completeness_lower_bound(m)  # refuses m < 1
    if m == 1:
        return (C - B) / 4
    return (C - B) * (m - 1) / (2 * m * (m - 1 + m ** (r + 1) - 1))


def _guard_ratio(tower: UTower) -> Fraction:
    """s_max / s_min over the coefficients s of u_2, u_4, ..., u_2p: a
    guard is -K_max times it, with K_max the largest spike."""
    even_entries = [
        tower.coeffs[2 * q][j] for q in range(1, tower.p + 1) for j in (0, 1)
    ]
    return max(even_entries) / min(even_entries)


def synth_kernel(group: FiniteGroup, m: int, mode: str = "order_two") -> SynthResult:
    """Build a kernel realizing each target order o_l at bias -c_l.

    Checks m and the mode (ValueError), then |G| (GroupTooSmallError),
    then finds g (ModeElementError).  The one SynthResult built goes
    through verify_synth once and then carries that report.  Raises
    SynthesisVerificationError if any check other than shattering fails;
    a failed shattering check is a verdict on the kernel, left to the
    caller to read from the report.
    """
    B, C = LEVEL_INTERVAL
    # Every required size is at least 2m C(m, m // 2) >= 2^m.  Past m = 64
    # a group below 2^m is refused from bit lengths, before a binomial of
    # about m bits is computed, and the message names 2^m.
    if m > 64 and mode in MODES and group.order.bit_length() <= m:
        raise GroupTooSmallError(group.order, f"2^{m}", mode)
    required = required_group_size(m, mode)
    if group.order < required:
        raise GroupTooSmallError(group.order, required, mode)
    find = find_order_two_element if mode == "order_two" else find_order_ge3_element
    if (g := find(group)) is None:
        raise ModeElementError(
            f"group {group.label} has no suitable element for mode '{mode}'"
        )
    orders = build_complete_orders(m).rankings
    r = len(orders)

    layout = LAYOUTS[mode]
    tower = build_u_tower(B, C, p=m)
    subsets = choose_subsets(group, g, r, m, mode)
    epsilon = synth_epsilon(B, C, m)

    # Targets, totals and levels are integers over D.  A spike of target t / D
    # is t (k^ L) / (D L), with L clearing the unit points' and the guard
    # ratio's denominators, so the guard -K_max s_max / s_min is one too.
    D = lcm(B.denominator, C.denominator, epsilon.denominator)
    lo, hi, e = int(B * D), int(C * D), int(epsilon * D)
    ratio = _guard_ratio(tower)
    L = lcm(ratio.denominator, *(x.denominator for k, _ in tower.unit_points for x in k))
    units = [((int(k0 * L), int(k1 * L)), top) for (k0, k1), top in tower.unit_points]
    # choose_subsets keeps the windows apart; subset-disjointness checks it.
    nums = [0] * group.order
    # totals[k] = sum of function k+1's spike targets over the rounds so far.
    totals = [0] * m
    ms: list[Fraction] = []
    thresholds: list[Fraction] = []
    m_prev, big_m_prev = hi, 0
    for l, (order, subset) in enumerate(zip(orders, subsets), 1):
        targets = [m_prev - (m - i) * (big_m_prev + e) for i in range(m)]
        # For l > 1 this is round l-1's level condition B < m - m(M + eps).
        if not lo < targets[0]:
            raise SynthesisVerificationError(
                f"round {l}: smallest spike target {ratio_to_str(targets[0], D)} fell below B"
            )
        for k, rank in enumerate(order):  # function k+1 takes the rank-th target
            h, t, (point, top) = subset[rank - 1], targets[rank - 1], units[k]
            # t / D lies in (B, C), and k^ scaled to it keeps the other levels below B.
            if not (lo < t < hi and t * top.numerator < lo * top.denominator):
                raise SynthesisVerificationError(
                    f"round {l}: spike target {ratio_to_str(t, D)} of "
                    f"u_{2 * (k + 1)} leaves (B, C) or lifts another level to B"
                )
            for x, k_x in zip(_translates(group, g, h, layout.spikes), point):
                nums[x] = t * k_x
            totals[k] += t
        # Every target so far is >= m_l, so at the probe -m_l + eps each nu
        # is its total plus the common l(-m_l + eps): M_l is the totals' spread.
        big_m_cur = max(totals) - min(totals)
        if l == 1 and big_m_cur != (m - 1) * e:
            raise SynthesisVerificationError(
                "round 1 spread must equal (m-1) * eps exactly"
            )
        ms.append(Fraction(targets[0], D))
        thresholds.append(Fraction(2 * targets[0] - e, 2 * D))
        m_prev, big_m_prev = targets[0], big_m_cur

    guard = -(max(map(abs, nums)) // ratio.denominator) * ratio.numerator
    for h in chain.from_iterable(subsets):
        for x in _translates(group, g, h, layout.guards):
            nums[x] = guard
    kernel = GroupFunction(group, nums, D * L)
    # u_i = a1 1_e + a2 1_g is a1 at e, a2 at g and zero elsewhere.
    u = []
    for a1, a2 in tower.coeffs:
        den = lcm(a1.denominator, a2.denominator)
        values = [0] * group.order
        values[group.identity], values[g] = int(a1 * den), int(a2 * den)
        u.append(GroupFunction(group, values, den))
    result = SynthResult(
        kernel, tuple(u), subsets, epsilon, tuple(thresholds), tuple(ms), g, mode, B, C
    )
    report = verify_synth(result)
    failed = [
        c.name for c in report.checks if not c.passed and c.name != "shattering"
    ]
    if failed:
        raise SynthesisVerificationError(
            f"synthesized kernel failed self-checks: {', '.join(failed)}"
        )
    result.report = report
    return result


class SynthCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class SynthReport(NamedTuple):
    checks: tuple[SynthCheck, ...]
    # The target orders checked, and the "shattering" check's certificate.
    orders: OrderSet
    certificate: ShatterCertificate

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}"
            for c in self.checks
        ]


def verify_synth(result: SynthResult) -> SynthReport:
    """Re-derive every claim about a synthesized kernel from scratch.

    Only the finished kernel, the tower functions and the group are
    consulted; the target orders, the level values m_l, the spreads M_l
    and the thresholds are recomputed rather than trusted.  Each function
    is convolved with the kernel once, and each check group reads the
    result and the tables built here, nothing of another group.
    SynthResult has checked the shape: one level, threshold and subset of
    m centres per target order.  `shattering` cuts the patterns from the
    levels, one CriticalSet row per -c_l; only levels that witness fewer
    than 2^m, so missed a target order, fall back to the full sweep.
    """
    m, B, C = result.m, result.B, result.C
    orders = build_complete_orders(m)
    # Under the counting measure every weight is 1, so each profile's xs
    # holds every convolution value, in ascending order.
    profiles = build_nu_profiles(result.kernel, result.family())
    tower = build_u_tower(B, C, p=m)
    levels = [nu_values(profiles, -c) for c in result.thresholds]
    eps_ok = result.epsilon == synth_epsilon(B, C, m)
    checks = [
        SynthCheck("epsilon-formula", eps_ok, f"epsilon = {fraction_to_str(result.epsilon)}"),
        *_layout_checks(result, tower),
        *_recursion_checks(result, profiles),
        *_level_checks(result, orders, levels),
        *_value_checks(result, profiles, tower),
    ]
    # Level l's xs are nu * D at c1 = -c_l = -a/b, with D = b * den.
    den, rows = profiles[0].den, {}
    for c, (xs, _) in zip(result.thresholds, levels):
        rows.setdefault(ranking_of_values(xs), ((-c.numerator * den, c.denominator), xs))
    cert = certificate(CriticalSet(tuple(profiles), rows, stopped=False))
    if not cert.shattered:
        cert = certificate(critical_set(profiles))
    detail = f"{cert.witnessed_count()} of {2 ** m} label patterns witnessed"
    checks.append(SynthCheck("shattering", cert.shattered, detail))
    return SynthReport(tuple(checks), orders, cert)


def _layout_checks(result: SynthResult, tower: UTower) -> Iterator[SynthCheck]:
    """u-tower-structure, mode-element and subset-disjointness."""
    group, g, m = result.group, result.g, result.m
    # u_i = a1 1_e + a2 1_g: a1 at e, a2 at g, and no other non-zero value.
    tower_ok = all(
        [Fraction(u.nums[x], u.den) for x in (group.identity, g)] == [a1, a2]
        and sum(map(bool, u.nums)) == bool(a1) + bool(a2)
        for u, (a1, a2) in zip(result.u, tower.coeffs)
    )
    yield SynthCheck("u-tower-structure", tower_ok, f"{2 * m + 2} tower functions")
    # order_two needs g^2 = e, general g^2 != e, and neither g = e.
    squares_to_e = group.mul(g, g) == group.identity
    mode_ok = g != group.identity and squares_to_e == (result.mode == "order_two")
    yield SynthCheck("mode-element", mode_ok, f"g = {g} suits mode {result.mode}")
    finding = _check_subsets(group, g, result.subsets, result.mode)
    detail = finding or f"{len(result.subsets)} rounds x {m} centres"
    yield SynthCheck("subset-disjointness", finding is None, detail)


def _recursion_checks(
    result: SynthResult, profiles: Sequence[NuProfile]
) -> Iterator[SynthCheck]:
    """level-recursion, then level-condition and spread-bound on its spreads.

    m_l = m_{l-1} - m (M_{l-1} + eps), with the spread M_l read off the
    finished kernel at the probe -m_l + eps.  Spikes of rounds above l
    sit below m_l - eps, so they are invisible there and the recursion is
    well-defined on the final kernel.  The other two checks read the
    spreads, so a broken recursion skips them.
    """
    m, epsilon = result.m, result.epsilon
    m_prev, big_m, big_ms = result.C, Fraction(0), []
    for l, m_l in enumerate(result.ms, 1):
        if m_l != m_prev - m * (big_m + epsilon):
            yield SynthCheck("level-recursion", False, f"round {l}: recorded m_l disagrees with recursion")
            yield SynthCheck("level-condition", False, "skipped: level recursion broken")
            yield SynthCheck("spread-bound", False, "skipped: level recursion broken")
            return
        xs, scale = nu_values(profiles, -m_l + epsilon)
        big_m = Fraction(max(xs) - min(xs), scale)
        big_ms.append(big_m)
        m_prev = m_l
    yield SynthCheck("level-recursion", True, f"m_l chain of length {len(big_ms)} reproduced")
    cond_ok = all(result.B < m_l - m * (M + epsilon) for m_l, M in zip(result.ms, big_ms))
    yield SynthCheck("level-condition", cond_ok, "B < m_l - m(M_l + eps) at every level")
    spread_ok = all(M <= epsilon * (m**l - 1) for l, M in enumerate(big_ms, 1))
    yield SynthCheck("spread-bound", spread_ok, "M_l <= eps (m^l - 1) at every level")


def _level_checks(
    result: SynthResult, orders: OrderSet, levels: Sequence[tuple[list[int], int]]
) -> Iterator[SynthCheck]:
    """thresholds, then the target order and the eps gaps at each -c_l."""
    epsilon = result.epsilon
    thresholds_ok = all(
        c == m_l - epsilon / 2 for c, m_l in zip(result.thresholds, result.ms)
    )
    yield SynthCheck("thresholds", thresholds_ok, "c_l = m_l - eps/2 for every level")
    misses = (
        f"level {l}: ranking {got} != target {want}"
        for l, ((xs, _), want) in enumerate(zip(levels, orders.rankings), 1)
        if (got := ranking_of_values(xs)) != want
    )
    detail = next(misses, None)
    yield SynthCheck("orders-realized", detail is None, detail or f"all {len(levels)} target orders hit")
    # Two of m values are closer than eps exactly when two neighbours in
    # their sorted order are; for xs / D that is (b - a) eps.den < eps.num D.
    narrow = [
        l for l, (xs, scale) in enumerate(levels, 1)
        if any((b - a) * epsilon.denominator < epsilon.numerator * scale
               for a, b in pairwise(sorted(xs)))
    ]
    detail = f"level {narrow[-1]}: gap below eps" if narrow else "all nu gaps >= eps at each -c_l"
    yield SynthCheck("pairwise-gaps", not narrow, detail)


def _value_checks(
    result: SynthResult, profiles: Sequence[NuProfile], tower: UTower
) -> Iterator[SynthCheck]:
    """forbidden-band, kernel-minimum-level, support-structure, and in
    general mode guard-translates, on each profile's sorted integers.

    For an integer x = v * den, v > lo exactly when x > floor(lo * den),
    and v < hi exactly when x < ceil(hi * den): each level's band ends are
    found once, on the family's one den, and one pair of bisects per
    profile finds the values inside.  The band's detail names its last
    value in element order, at the last level and profile that have one.
    """
    den, last = profiles[0].den, None
    for l, hi in enumerate(result.ms):
        x_lo, x_hi = floor((hi - result.epsilon) * den), ceil(hi * den)
        for p in profiles:
            if bisect_right(p.xs, x_lo) < bisect_left(p.xs, x_hi):
                last = (l, p, x_lo, x_hi)
    detail = "no convolution value in any band"
    if last is not None:
        l, p, x_lo, x_hi = last
        x = next(x for x in reversed(p.nums) if x_lo < x < x_hi)
        detail = f"value {ratio_to_str(x, den)} inside the band around m_{l + 1}"
    yield SynthCheck("forbidden-band", last is None, detail)

    above_b, x_b = [], floor(result.B * den)
    for p in profiles:
        i = bisect_right(p.xs, x_b)
        if i < len(p.xs):
            above_b.append(p.xs[i])
    min_over_b = Fraction(min(above_b), den) if above_b else None
    value = "None" if min_over_b is None else fraction_to_str(min_over_b)
    detail = f"smallest convolution value above B is {value}"
    yield SynthCheck("kernel-minimum-level", min_over_b == result.ms[-1], detail)

    group, kernel, layout = result.group, result.kernel, LAYOUTS[result.mode]
    centres = [h for sub in result.subsets for h in sub]

    def positions(offsets: Sequence[int]) -> set[int]:
        return {x for h in centres for x in _translates(group, result.g, h, offsets)}

    spikes, guards = positions(layout.spikes), positions(layout.guards)
    # Each guard's num is -k_max s_max / s_min, with k_max the largest spike num.
    k_max = max((abs(kernel.nums[x]) for x in spikes), default=0)
    ratio = _guard_ratio(tower)
    support = spikes | guards
    support_ok = all(
        kernel.nums[x] * ratio.denominator == -k_max * ratio.numerator for x in guards
    ) and all(not kernel.nums[x] for x in range(group.order) if x not in support)
    detail = ("spikes, exact guard values, zero elsewhere" if layout.guards
              else "kernel vanishes outside the centres and their g-translates")
    yield SynthCheck("support-structure", support_ok, detail)
    if layout.guards:
        translate_ok = all(
            p.nums[x] <= 0
            for h in centres
            for x in _translates(group, result.g, h, layout.window)
            if x != h
            for p in profiles
        )
        detail = "convolutions are <= 0 on every guarded translate"
        yield SynthCheck("guard-translates", translate_ok, detail)
