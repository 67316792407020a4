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
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple, Optional, Sequence

from .bounds import ELEMENTS_PER_CENTRE, required_group_size
from .classifier import ReluIndex, build_nu_profiles, ranking_of_values
from .errors import GroupTooSmallError, ModeElementError, SynthesisVerificationError
from .gfunc import GroupFunction, counting_measure
from .groups import FiniteGroup, find_order_ge3_element, find_order_two_element
from .orders import OrderSet, build_complete_orders, completeness_lower_bound
from .shatter import ShatterCertificate, certificate, critical_set

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


@dataclass(frozen=True)
class UTower:
    """The functions u_0 = 1_e, u_1 = 1_g, and their alternating recursion

        u_{2q}   = eps_q * u_{2q-2} + u_{2q-1}
        u_{2q+1} = u_{2q-2} + eps_q * u_{2q-1}

    together with the exact coefficient pairs u_i = a_{i,1} 1_e + a_{i,2} 1_g.
    unit_points[q - 1] is the plane point k^ with u~_{2q}(k^) = 1 that
    solve_k_vector scales, and the largest u~_l(k^) over l != 2q.
    """

    group: FiniteGroup
    g: int
    B: Fraction
    C: Fraction
    p: int
    functions: tuple[GroupFunction, ...]
    coeffs: tuple[tuple[Fraction, Fraction], ...]
    epsilons: tuple[Fraction, ...]
    unit_points: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...]

    def u_tilde(self, index: int, k: tuple[Fraction, Fraction]) -> Fraction:
        """Value of u_index's coefficient form on the plane point k."""
        a1, a2 = self.coeffs[index]
        return a1 * k[0] + a2 * k[1]


def build_u_tower(
    group: FiniteGroup, g: int, B: Fraction, C: Fraction, p: int
) -> UTower:
    """Tower u_0 .. u_{2p+1} with eps_q = 4C/B + 1 + (p-q)(B/C + 1)."""
    if g == group.identity:
        raise ValueError("tower element g must differ from the identity")
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
    for q in range(1, p + 1):
        eq = epsilons[q - 1]
        prev_even, prev_odd = coeffs[2 * q - 2], coeffs[2 * q - 1]
        coeffs.append(
            (
                eq * prev_even[0] + prev_odd[0],
                eq * prev_even[1] + prev_odd[1],
            )
        )
        coeffs.append(
            (
                prev_even[0] + eq * prev_odd[0],
                prev_even[1] + eq * prev_odd[1],
            )
        )
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
    # u_i = a1 1_e + a2 1_g is a1 at e, a2 at g and zero elsewhere.
    zeros = [Fraction(0)] * group.order
    functions = []
    for a1, a2 in coeffs:
        values = zeros.copy()
        values[group.identity], values[g] = a1, a2
        functions.append(GroupFunction(group, tuple(values)))
    return UTower(
        group=group,
        g=g,
        B=B,
        C=C,
        p=p,
        functions=tuple(functions),
        coeffs=tuple(coeffs),
        epsilons=epsilons,
        unit_points=tuple(unit_points),
    )


def solve_k_vector(
    tower: UTower, i: int, A: Fraction
) -> tuple[Fraction, Fraction]:
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
) -> None:
    """Raise unless the windows of all centres are pairwise disjoint.

    Sets are pairwise disjoint exactly when their union is as large as
    their sizes added up; a repeated centre repeats its window.  The rule
    needs no window size: when g has order 3 or 4, a general-mode window
    holds fewer than five elements.
    """
    window = LAYOUTS[mode].window
    windows = [set(_translates(group, g, h, window)) for sub in subsets for h in sub]
    if len(set().union(*windows)) != sum(len(w) for w in windows):
        raise SynthesisVerificationError(
            f"the windows of the {len(windows)} centres are not pairwise disjoint"
        )


@dataclass(frozen=True)
class SynthResult:
    kernel: GroupFunction
    u: tuple[GroupFunction, ...]
    subsets: tuple[tuple[int, ...], ...]
    epsilon: Fraction
    thresholds: tuple[Fraction, ...]
    ms: tuple[Fraction, ...]
    g: int
    mode: str
    B: Fraction
    C: Fraction
    # verify_synth's report on the kernel; None when read back from JSON.
    report: Optional[SynthReport]

    def __post_init__(self):
        """The shape every reader may rely on; the values are verify_synth's."""
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
            raise ValueError(f"need C > B > 0, got B={self.B}, C={self.C}")

    @property
    def group(self) -> FiniteGroup:
        return self.kernel.group

    @property
    def m(self) -> int:
        return (len(self.u) - 2) // 2

    def family(self) -> tuple[GroupFunction, ...]:
        """The classified functions u_2, u_4, ..., u_{2m}."""
        return tuple(self.u[2 * k] for k in range(1, self.m + 1))


def synth_epsilon(B: Fraction, C: Fraction, m: int, r: int) -> Fraction:
    """The level-separation constant (C-B)(m-1) / (2m(m-1+m^{r+1}-1)).

    The formula vanishes at m = 1 where no separation between functions
    is needed; any positive value below C - B keeps the single spike
    target inside (B, C), so we use (C-B)/4 there.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    if m == 1:
        return (C - B) / 4
    return (C - B) * (m - 1) / (2 * m * (m - 1 + m ** (r + 1) - 1))


def _guard_value(tower: UTower, k_max: Fraction) -> Fraction:
    """The guard value -K_max s_max / s_min, where s ranges over the
    coefficients of u_2, u_4, ..., u_2p and K_max is the largest spike."""
    even_entries = [
        tower.coeffs[2 * q][j] for q in range(1, tower.p + 1) for j in (0, 1)
    ]
    return -k_max * max(even_entries) / min(even_entries)


def _mode_element_ok(group: FiniteGroup, g: int, mode: str) -> bool:
    if g == group.identity:
        return False
    if mode == "order_two":
        return group.mul(g, g) == group.identity
    return group.mul(g, g) != group.identity


def synth_kernel(group: FiniteGroup, m: int, mode: str = "order_two") -> SynthResult:
    """Build a kernel realizing each target order o_l at bias -c_l.

    Checks m and the mode (ValueError), then |G| (GroupTooSmallError),
    then finds g (ModeElementError).  The finished kernel goes through
    verify_synth once, and the result carries that report.  Raises SynthesisVerificationError if any check other
    than shattering fails; a failed shattering check is a verdict on the
    kernel, left to the caller to read from the report.
    """
    B, C = LEVEL_INTERVAL
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
    tower = build_u_tower(group, g, B, C, p=m)
    subsets = choose_subsets(group, g, r, m, mode)
    epsilon = synth_epsilon(B, C, m, r)

    kernel_values: dict[int, Fraction] = {}

    def assign(position: int, value: Fraction, kind: str) -> None:
        old = kernel_values.get(position)
        if old is None:
            kernel_values[position] = value
        elif old != value:
            raise SynthesisVerificationError(
                f"{kind} position {position} already carries {old}, "
                f"cannot assign {value}"
            )

    # totals[k] = sum of function k+1's spike targets over the rounds so far.
    totals = [Fraction(0)] * m
    ms: list[Fraction] = []
    thresholds: list[Fraction] = []
    m_prev, big_m_prev = C, Fraction(0)
    for l in range(1, r + 1):
        o_inv = {rank: k for k, rank in enumerate(orders[l - 1].ranks)}
        targets = [m_prev - (m - i) * (big_m_prev + epsilon) for i in range(m)]
        # For l > 1 this is round l-1's level condition B < m - m(M + eps).
        if not B < targets[0]:
            raise SynthesisVerificationError(
                f"round {l}: smallest spike target {targets[0]} fell below B"
            )
        for i in range(m):
            k = o_inv[i + 1]
            point = solve_k_vector(tower, 2 * (k + 1), targets[i])
            spikes = _translates(group, g, subsets[l - 1][i], layout.spikes)
            for x, value in zip(spikes, point):
                assign(x, value, "spike")
            totals[k] += targets[i]
        m_cur = targets[0]
        # Every target so far is >= m_l, so at the probe -m_l + eps each nu
        # is its total plus the common l(-m_l + eps): M_l is the totals' spread.
        big_m_cur = max(totals) - min(totals)
        if l == 1 and big_m_cur != (m - 1) * epsilon:
            raise SynthesisVerificationError(
                "round 1 spread must equal (m-1) * eps exactly"
            )
        ms.append(m_cur)
        thresholds.append(m_cur - epsilon / 2)
        m_prev, big_m_prev = m_cur, big_m_cur

    guard = _guard_value(tower, max(abs(v) for v in kernel_values.values()))
    for sub in subsets:
        for h in sub:
            for x in _translates(group, g, h, layout.guards):
                assign(x, guard, "guard")

    kernel = GroupFunction(
        group,
        tuple(
            kernel_values.get(x, Fraction(0)) for x in range(group.order)
        ),
    )
    result = SynthResult(
        kernel=kernel,
        u=tower.functions,
        subsets=subsets,
        epsilon=epsilon,
        thresholds=tuple(thresholds),
        ms=tuple(ms),
        g=g,
        mode=mode,
        B=B,
        C=C,
        report=None,
    )
    report = verify_synth(result)
    failed = [
        c.name for c in report.checks if not c.passed and c.name != "shattering"
    ]
    if failed:
        raise SynthesisVerificationError(
            f"synthesized kernel failed self-checks: {', '.join(failed)}"
        )
    return replace(result, report=report)


@dataclass(frozen=True)
class SynthCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SynthReport:
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
    is convolved with the kernel once, and every nu value a check reads
    is taken from the ReLU-sum definition on that convolution, through
    one ReluIndex per profile; the shattering certificate's witnesses are
    re-checked against the same definition, through the same indexes.
    SynthResult has checked the shape: one level, threshold and subset of
    m centres per target order.
    """
    checks: list[SynthCheck] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(SynthCheck(name, bool(passed), detail))

    group = result.group
    m = result.m
    orders = build_complete_orders(m)
    r = len(orders.rankings)
    mu = counting_measure(group)
    kernel = result.kernel
    profiles = build_nu_profiles(kernel, result.family(), mu)
    # The sweep first, so no index is alive at its peak.  Under the
    # counting measure every weight is 1, so each index holds every
    # convolution value, in ascending order as index.xs.
    critical = critical_set(profiles)
    indexes = [ReluIndex(p) for p in profiles]
    epsilon = result.epsilon
    B, C = result.B, result.C

    add("epsilon-formula", epsilon == synth_epsilon(B, C, m, r), f"epsilon = {epsilon}")

    # u_i = a1 1_e + a2 1_g: a1 at e, a2 at g, and no other non-zero value.
    e, g = group.identity, result.g
    tower = build_u_tower(group, g, B, C, p=m)
    tower_ok = all(
        (u.values[e], u.values[g]) == (a1, a2)
        and sum(map(bool, u.values)) == bool(a1) + bool(a2)
        for u, (a1, a2) in zip(result.u, tower.coeffs)
    )
    add("u-tower-structure", tower_ok, f"{2 * m + 2} tower functions")

    mode_ok = _mode_element_ok(group, result.g, result.mode)
    add("mode-element", mode_ok, f"g = {result.g} suits mode {result.mode}")
    try:
        _check_subsets(group, result.g, result.subsets, result.mode)
        add("subset-disjointness", True, f"{r} rounds x {m} centres")
    except SynthesisVerificationError as exc:
        add("subset-disjointness", False, str(exc))

    # Level recursion: m_l = m_{l-1} - m (M_{l-1} + eps), with the spread
    # M_l read off the finished kernel at the probe -m_l + eps.  Spikes of
    # rounds above l sit below m_l - eps, so they are invisible there and
    # the recursion is well-defined on the final kernel.
    recursion_ok = True
    detail = ""
    m_prev, big_m_prev = C, Fraction(0)
    big_ms: list[Fraction] = []
    for l in range(1, r + 1):
        m_cur = m_prev - m * (big_m_prev + epsilon)
        if result.ms[l - 1] != m_cur:
            recursion_ok = False
            detail = f"round {l}: recorded m_l disagrees with recursion"
            break
        values = [index.at(-m_cur + epsilon) for index in indexes]
        big_m_cur = max(values) - min(values)
        big_ms.append(big_m_cur)
        m_prev, big_m_prev = m_cur, big_m_cur
    add("level-recursion", recursion_ok, detail or f"m_l chain of length {r} reproduced")

    if recursion_ok:
        cond_ok = all(B < result.ms[l] - m * (big_ms[l] + epsilon) for l in range(r))
        add("level-condition", cond_ok, "B < m_l - m(M_l + eps) at every level")
        spread_ok = all(big_ms[l] <= epsilon * (m ** (l + 1) - 1) for l in range(r))
        add("spread-bound", spread_ok, "M_l <= eps (m^l - 1) at every level")
    else:
        add("level-condition", False, "skipped: level recursion broken")
        add("spread-bound", False, "skipped: level recursion broken")

    thresholds_ok = all(
        c == ml - epsilon / 2 for c, ml in zip(result.thresholds, result.ms)
    )
    add("thresholds", thresholds_ok, "c_l = m_l - eps/2 for every level")

    level_nus = [[index.at(-c) for index in indexes] for c in result.thresholds]
    orders_ok = True
    detail = ""
    for l, values in enumerate(level_nus):
        got = ranking_of_values(values)
        if got.ranks != orders.rankings[l].ranks:
            orders_ok = False
            detail = (
                f"level {l + 1}: ranking {got.ranks} != target "
                f"{orders.rankings[l].ranks}"
            )
            break
    add("orders-realized", orders_ok, detail or f"all {r} target orders hit")

    # Two of m values are closer than eps exactly when two neighbours in
    # their sorted order are.
    gaps_ok = True
    detail = ""
    for l, values in enumerate(level_nus):
        ordered = sorted(values)
        if any(b - a < epsilon for a, b in zip(ordered, ordered[1:])):
            gaps_ok = False
            detail = f"level {l + 1}: gap below eps"
    add("pairwise-gaps", gaps_ok, detail or "all nu gaps >= eps at each -c_l")

    # Value checks on each index's sorted integers x = v * den: for an
    # integer x, v > lo exactly when x > floor(lo * den), and v < hi
    # exactly when x < ceil(hi * den), so one pair of bisects finds the
    # values inside a band.  The detail names the band's last value in
    # element order, at the last level and profile that have one.
    last = None
    for l, hi in enumerate(result.ms):
        lo = hi - epsilon
        for p, index in zip(profiles, indexes):
            x_lo, x_hi = floor(lo * p.den), ceil(hi * p.den)
            if bisect_right(index.xs, x_lo) < bisect_left(index.xs, x_hi):
                last = (l, p, x_lo, x_hi)
    detail = "no convolution value in any band"
    if last is not None:
        l, p, x_lo, x_hi = last
        x = next(x for x in reversed(p.nums) if x_lo < x < x_hi)
        detail = f"value {Fraction(x, p.den)} inside the band around m_{l + 1}"
    add("forbidden-band", last is None, detail)

    above_b = []
    for index in indexes:
        i = bisect_right(index.xs, floor(B * index.den))
        if i < len(index.xs):
            above_b.append(Fraction(index.xs[i], index.den))
    min_over_b = min(above_b, default=None)
    add(
        "kernel-minimum-level",
        min_over_b == result.ms[-1],
        f"smallest convolution value above B is {min_over_b}",
    )

    layout = LAYOUTS[result.mode]
    centres = [h for sub in result.subsets for h in sub]

    def positions(offsets: Sequence[int]) -> set[int]:
        return {
            x for h in centres for x in _translates(group, result.g, h, offsets)
        }

    spikes, guards = positions(layout.spikes), positions(layout.guards)
    guard = _guard_value(
        tower, max((abs(kernel.values[x]) for x in spikes), default=Fraction(0))
    )
    support = spikes | guards
    support_ok = all(kernel.values[x] == guard for x in guards) and all(
        kernel.values[x] == 0 for x in range(group.order) if x not in support
    )
    add(
        "support-structure",
        support_ok,
        "kernel vanishes outside the centres and their g-translates"
        if result.mode == "order_two"
        else "spikes, exact guard values, zero elsewhere",
    )
    if layout.guards:
        translate_ok = all(
            p.nums[x] <= 0
            for h in centres
            for x in _translates(group, result.g, h, layout.window)
            if x != h
            for p in profiles
        )
        add(
            "guard-translates",
            translate_ok,
            "convolutions are <= 0 on every guarded translate",
        )

    cert = certificate(critical, indexes)
    detail = f"{cert.witnessed_count()} of {2 ** m} label patterns witnessed"
    add("shattering", cert.shattered, detail)
    return SynthReport(tuple(checks), orders, cert)
