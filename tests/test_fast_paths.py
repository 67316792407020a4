"""Differential tests: every fast path against its slow reference.

The references live in `references.py`.  The package computes on
integers over one denominator and the references in Fractions; both are
exact, so the fast paths must give identical values, not merely close
ones.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gshatter.shatter
import gshatter.synth
from gshatter.classifier import (
    build_nu_profiles,
    nu_values,
    ranking_of_values,
)
from gshatter.gfunc import (
    GroupFunction,
    convolve,
    counting_measure,
    indicator,
)
from gshatter.bounds import required_group_size
from gshatter.errors import SynthesisVerificationError, WitnessVerificationError
from gshatter.groups import build_group
from gshatter.orders import OrderSet, is_complete, is_strict
from gshatter.shatter import _witnesses, attained_orders, certificate, critical_set
from gshatter.synth import MODES, build_u_tower, synth_kernel, verify_synth

from references import (
    bisect_critical_set,
    counted_ranks,
    cut_witnesses,
    dense_convolve,
    dense_u_tower_functions,
    edited,
    exceeds_recheck,
    fraction_build_nu_profile,
    fraction_convolve,
    fraction_critical_set,
    fraction_level_checks,
    fraction_relu_sum,
    fraction_synth_kernel,
    fraction_value_checks,
    full_solve_k_vector,
    labelled,
    loop_relu_sum,
    masked,
    piece_lists,
    solve_k_vector,
    table_value,
    termwise_relu_sum,
)

# Cyclic, dihedral and product groups of order <= 12.
SPECS = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:5",
    "cyclic:8",
    "cyclic:12",
    "dihedral:3",
    "dihedral:4",
    "dihedral:6",
    "product:cyclic:2,cyclic:2",
    "product:cyclic:2,cyclic:3",
    "product:cyclic:3,cyclic:3",
    "product:cyclic:2,cyclic:6",
)
GROUPS = {spec: build_group(spec) for spec in SPECS}

nonzero_rationals = st.builds(
    Fraction,
    st.integers(min_value=-16, max_value=16).filter(bool),
    st.integers(min_value=1, max_value=8),
)

# Denominators up to 2^40, so that a common denominator is a large integer.
wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**40), max_value=2**40).filter(bool),
    st.integers(min_value=1, max_value=2**40),
)

@st.composite
def group_values(draw, n: int) -> list[Fraction]:
    """Values on n elements with a drawn support, from empty to full."""
    support = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    values = st.one_of(nonzero_rationals, wide_rationals)
    return [draw(values) if g in support else Fraction(0) for g in range(n)]


@st.composite
def instances(draw):
    """(kernel, functions, counting measure); zeros in the kernel and the
    functions are common, and values may carry large or non-unit
    denominators."""
    group = GROUPS[draw(st.sampled_from(SPECS))]
    n = group.order
    kernel = GroupFunction.from_values(group, draw(group_values(n)))
    m = draw(st.integers(min_value=1, max_value=4))
    fs = [GroupFunction.from_values(group, draw(group_values(n))) for _ in range(m)]
    return kernel, fs, counting_measure(group)


def assert_sweep_matches(crit, points, probes, values) -> None:
    """The sweep against a reference's (points, probes, values).

    The sweep keeps the row of the first probe of each ranking only, and
    stops at the first row that makes its strict rankings a complete set.
    So the kept rankings must be the distinct counted rankings in probe
    order, cut at the first prefix that `is_complete` finds complete (the
    cut is found from the reference's rankings, not the sweep's), and
    each kept row must carry the first probe with that counted ranking
    and, divided back into nu units, be the reference row there.  The
    witnesses are compared with cut_witnesses over every reference probe,
    so a row the sweep drops cannot have held a first witness.
    """
    assert (crit.points, crit.probes) == (points, probes)
    m = len(crit.profiles)
    first: dict[tuple[int, ...], int] = {}
    complete = False
    for i, row in enumerate(values):
        ranks = counted_ranks(row)
        if ranks not in first:
            first[ranks] = i
            complete = is_complete(OrderSet(m, tuple(first)))
            if complete:
                break
    assert crit.stopped == complete
    assert list(crit.rows) == list(first)
    for ((p, q), row), i in zip(crit.rows.values(), first.values()):
        unit = q * crit.profiles[0].den
        assert Fraction(p, unit) == probes[i]
        assert [Fraction(v, unit) for v in row] == values[i]
    rankings = attained_orders(crit).rankings
    assert rankings == tuple(first)
    assert labelled(_witnesses(crit), m) == cut_witnesses(probes, values)


def assert_table_matches(profile, conv: GroupFunction) -> None:
    """A profile's breakpoint table (`nu_values`) against the term-by-term sums
    at and around every floor threshold.

    c = -x/den sits exactly on a breakpoint; c = (-7x -+ 1)/(7 den) has a
    denominator that does not divide den and puts -c*den just above or
    below x, on either side of the integer threshold.  Around the
    largest and smallest x every term is active or none is.
    """
    den = profile.den
    for x in profile.nums:
        for c in (
            Fraction(-x, den),
            Fraction(-7 * x - 1, 7 * den),
            Fraction(-7 * x + 1, 7 * den),
        ):
            assert table_value(profile, c) == termwise_relu_sum(conv, c)


def assert_matches_references(kernel, fs, mu) -> None:
    # The family's convolutions, made together, are each one's alone.
    profiles = build_nu_profiles(kernel, fs)
    for f, p in zip(fs, profiles):
        values = convolve(f, kernel, mu).values
        assert values == dense_convolve(f, kernel)
        assert values == fraction_convolve(f, kernel)
        assert values == tuple(Fraction(x, p.den) for x in p.nums)
        alone = build_nu_profiles(kernel, [f])[0]
        assert values == tuple(Fraction(x, alone.den) for x in alone.nums)
        assert alone.den == f.den * kernel.den
    # One common denominator for the family: its functions' lcm times K's.
    assert {p.den for p in profiles} == {lcm(*(f.den for f in fs)) * kernel.den}
    refs = [fraction_build_nu_profile(kernel, f) for f in fs]
    for p, ref in zip(profiles, refs):
        assert_table_matches(p, ref.conv)
        breakpoints, slopes, offsets = piece_lists(p, p.den)
        assert tuple(Fraction(bp, p.den) for bp in breakpoints) == ref.breakpoints
        assert tuple(slopes) == ref.slopes
        assert tuple(Fraction(o, p.den) for o in offsets) == ref.offsets
    crit = critical_set(profiles)
    points, probes, values = bisect_critical_set(refs)
    assert fraction_critical_set(refs) == (points, probes, values)
    assert_sweep_matches(crit, points, probes, values)


def recheck_accepts(recheck, *args) -> bool:
    """Whether a witness re-check passes rather than raising."""
    try:
        recheck(*args)
    except WitnessVerificationError:
        return False
    return True


def assert_recheck_matches(crit) -> bool:
    """certificate accepts a critical set's witnesses exactly when the
    per-(witness, profile) reference does; returns whether both accept."""
    found = labelled(_witnesses(crit), len(crit.profiles))
    accepted = recheck_accepts(exceeds_recheck, crit.profiles, found)
    assert recheck_accepts(certificate, crit) == accepted
    return accepted


# Ways to make a row's values wrong: xs are nu times the row's unit u.
ROW_TAMPERS = (
    lambda xs, u: [x + u for x in xs],  # as shift_level_values does
    lambda xs, u: [x - u for x in xs],
    lambda xs, u: [x + 1 for x in xs],
    lambda xs, u: [x - 1 for x in xs],
    lambda xs, u: [xs[0] - 1, *xs[1:]],
    lambda xs, u: [*xs[:-1], xs[-1] + u],
)


def tampered_rows(crit, rows, tamper):
    """crit with the values of the rows at the positions in `rows` passed
    through tamper.  It claims no stop: a tampered ranking may leave a
    pattern without a witness, which is then no InvariantError."""
    kept = {
        ranking: ((p, q), tamper(values, q * crit.profiles[0].den) if i in rows else values)
        for i, (ranking, ((p, q), values)) in enumerate(crit.rows.items())
    }
    return crit._replace(rows=kept, stopped=False)


def level_rows(result, monkeypatch):
    """The rows verify_synth cuts its certificate from, one per level -c_l."""
    made = []
    monkeypatch.setattr(
        gshatter.synth, "certificate", lambda crit: made.append(crit) or certificate(crit)
    )
    verify_synth(result)
    return made[0]


def assert_pieces_match_reference(p, ref) -> None:
    """p.pieces, on t = c * p.den, against the Fraction pieces.

    The reference starts from the zero piece left of the first breakpoint;
    the stream yields each breakpoint with the piece that starts there.
    """
    assert (ref.slopes[0], ref.offsets[0]) == (0, 0)
    assert list(p.pieces()) == [
        (bp * p.den, s, o * p.den)
        for bp, s, o in zip(ref.breakpoints, ref.slopes[1:], ref.offsets[1:])
    ]


class TestAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_random_instances(self, instance):
        assert_matches_references(*instance)

    @settings(max_examples=100, deadline=None)
    @given(instances(), nonzero_rationals)
    def test_relu_sum(self, instance, shift):
        kernel, fs, mu = instance
        for f in fs:
            conv = convolve(f, kernel, mu)
            profile = build_nu_profiles(kernel, [f])[0]
            for c in {-v + shift for v in conv.values} | {-v for v in conv.values}:
                want = termwise_relu_sum(conv, c)
                assert table_value(profile, c) == want
                assert loop_relu_sum(profile, c) == want
                assert fraction_relu_sum(conv, c) == want

    @settings(max_examples=100, deadline=None)
    @given(instances())
    def test_relu_sum_at_and_around_the_floor_threshold(self, instance):
        kernel, fs, mu = instance
        for f in fs:
            profile = build_nu_profiles(kernel, [f])[0]
            assert_table_matches(profile, convolve(f, kernel, mu))

    @settings(max_examples=100, deadline=None)
    @given(instances())
    def test_scaled_above_the_profiles_own_scale(self, instance):
        # A family's profiles share one den, lcm(f.den ...) * K.den, and
        # adding f / 21 to the family usually lifts it above f's; the sweep
        # reads the pieces on that one scale.
        kernel, fs, _ = instance
        fs = [*fs, GroupFunction.from_values(kernel.group, [v / 21 for v in fs[0].values])]
        for f, p in zip(fs, build_nu_profiles(kernel, fs)):
            assert_pieces_match_reference(p, fraction_build_nu_profile(kernel, f))

    def test_three_nu_crossing_at_one_point(self):
        # f_w holds w copies of (2 - w) / (3 w) and -10 elsewhere, so on
        # (1/9, 10] nu_w = w ((2 - w) / (3 w) + c) = 2/3 at c = 1/3 for
        # w = 1, 2, 3: three pairs cross there, each crossing formed from
        # different slopes and offsets, and the point must appear once.
        group = build_group("cyclic:3")
        kernel = indicator(group, group.identity)
        mu = counting_measure(group)
        fs = [
            GroupFunction.from_values(
                group, [Fraction(2 - w, 3 * w)] * w + [Fraction(-10)] * (3 - w)
            )
            for w in (1, 2, 3)
        ]
        crit = critical_set(build_nu_profiles(kernel, fs))
        assert crit.points == (Fraction(-1, 3), 0, Fraction(1, 9), Fraction(1, 3), 10)
        assert_matches_references(kernel, fs, mu)

    def test_profiles_of_groups_of_different_orders_are_refused(self):
        # nu_1 = (3 + c)^+ on cyclic:1 and nu_2 = 2 (1/2 + c)^+ on cyclic:2
        # would cross at c = 2, past every breakpoint: the sweep assumes
        # one slope for every nu there, so it refuses the family.
        profiles = []
        for spec, value in (("cyclic:1", Fraction(3)), ("cyclic:2", Fraction(1, 2))):
            group = GROUPS[spec]
            f = GroupFunction.from_values(group, [value] * group.order)
            profiles.append(build_nu_profiles(indicator(group, 0), [f])[0])
        with pytest.raises(ValueError, match="different orders"):
            critical_set(profiles)

    def test_profiles_over_different_denominators_are_refused(self):
        # f_1 = (1, 0) and f_2 = (1/2, 0) built one at a time are over 1
        # and 2; built together they share 2, and only then do they sweep.
        group = GROUPS["cyclic:2"]
        kernel, mu = indicator(group, 0), counting_measure(group)
        fs = [GroupFunction.from_values(group, row) for row in ([1, 0], [Fraction(1, 2), 0])]
        apart = [build_nu_profiles(kernel, [f])[0] for f in fs]
        assert [p.den for p in apart] == [1, 2]
        with pytest.raises(ValueError, match="different denominators"):
            critical_set(apart)
        with pytest.raises(ValueError, match="different denominators"):
            nu_values(apart, Fraction(0))
        together = build_nu_profiles(kernel, fs)
        assert [p.den for p in together] == [2, 2]
        assert critical_set(together).points == (-1, Fraction(-1, 2), 0)
        assert_matches_references(kernel, fs, mu)

    def test_crossing_on_a_grid_point(self):
        # nu_1 = (4+c)^+ + c^+ and nu_2 = 2(3+c)^+ cross at c = -2 on both
        # of their shared pieces (-3, -2] and (-2, 0], and -2 is the
        # breakpoint of nu_3 = 2(2+c)^+: the crossing is a grid point, so
        # it is not an interior crossing and appears once.
        group = GROUPS["cyclic:2"]
        fs = [
            GroupFunction.from_values(group, row)
            for row in ([4, 0], [3, 3], [2, 2])
        ]
        kernel = indicator(group, group.identity)
        mu = counting_measure(group)
        crit = critical_set(build_nu_profiles(kernel, fs))
        assert crit.points == (-4, -3, -2, 0)
        assert Fraction(-2) in crit.probes
        assert_matches_references(kernel, fs, mu)
        # Scaled by a common denominator the crossing still lands on the grid.
        thirds = [
            GroupFunction.from_values(group, [v / 3 for v in f.values]) for f in fs
        ]
        crit = critical_set(build_nu_profiles(kernel, thirds))
        assert crit.points == tuple(Fraction(c, 3) for c in (-4, -3, -2, 0))
        assert_matches_references(kernel, thirds, mu)

    def test_breakpoint_shared_by_two_profiles(self):
        # nu_1 = (2+c)^+ + c^+ and nu_2 = (2+c)^+ + (1+c)^+ both enter a
        # new piece at c = -2, where the grid has one point: a walk that
        # took each profile's breakpoints in turn would list it twice.
        group = GROUPS["cyclic:2"]
        fs = [GroupFunction.from_values(group, row) for row in ([2, 0], [2, 1])]
        kernel = indicator(group, group.identity)
        mu = counting_measure(group)
        crit = critical_set(build_nu_profiles(kernel, fs))
        assert crit.points == (-2, -1, 0)
        assert_matches_references(kernel, fs, mu)

    def test_a_family_that_is_not_shattered_keeps_every_reference_row(self):
        # Its rankings include 3 strict ones, which separate too few
        # subsets to be complete, so the sweep never stops: it keeps the
        # first row of all 8 rankings the reference attains, and 6 of the
        # 8 label patterns get a witness.
        group = build_group("cyclic:3")
        fs = [
            GroupFunction.from_values(group, row)
            for row in ([4, 0, 0], [3, 3, -1], [2, 1, 2])
        ]
        kernel = indicator(group, group.identity)
        mu = counting_measure(group)
        crit = critical_set(build_nu_profiles(kernel, fs))
        refs = [fraction_build_nu_profile(kernel, f) for f in fs]
        _, _, values = bisect_critical_set(refs)
        every = list(dict.fromkeys(map(counted_ranks, values)))
        assert not crit.stopped
        assert list(crit.rows) == every
        assert (len(every), sum(map(is_strict, every))) == (8, 3)
        assert len(labelled(_witnesses(crit), 3)) == 6
        assert_matches_references(kernel, fs, mu)

    @pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6"])
    def test_sparse_function_against_dense_kernel(self, spec):
        # Two nonzero values in f, as in the tower functions.
        group = GROUPS[spec]
        kernel = GroupFunction.from_values(
            group, [Fraction(g + 1, 3) for g in range(group.order)]
        )
        f = GroupFunction.from_values(
            group, [Fraction(2) if g in (1, 4) else 0 for g in range(group.order)]
        )
        mu = counting_measure(group)
        assert_matches_references(kernel, [f, indicator(group, 3)], mu)

    @pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6"])
    def test_dense_function_against_sparse_kernel(self, spec):
        group = GROUPS[spec]
        f = GroupFunction.from_values(
            group, [Fraction(5 - g, 2) for g in range(group.order)]
        )
        kernel = GroupFunction.from_values(
            group, [Fraction(-1) if g == 7 else 0 for g in range(group.order)]
        )
        mu = counting_measure(group)
        assert_matches_references(kernel, [f, f, indicator(group, 0)], mu)


class TestRanking:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)]),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_counted_ranks_with_ties(self, values):
        assert ranking_of_values(values) == counted_ranks(values)


class TestUTower:
    @pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6"])
    def test_sparse_functions_match_the_dense_formula(self, spec):
        group = GROUPS[spec]
        result = synth_kernel(group, 2)
        tower = build_u_tower(Fraction(1), Fraction(2), p=2)
        dense = dense_u_tower_functions(group, result.g, tower.coeffs)
        assert [f.values for f in result.u] == [f.values for f in dense]


def solve_outcome(solve, tower, i, A):
    """solve(tower, i, A), or the type of the error it raises."""
    try:
        return solve(tower, i, A)
    except (ValueError, SynthesisVerificationError) as exc:
        return type(exc)


class TestKVector:
    """The scaled unit solution against a fresh solve checked on every level."""

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=5),
        i=st.integers(min_value=0, max_value=11),
        B=nonzero_rationals.map(abs),
        width=nonzero_rationals.map(abs),
        t=st.fractions(min_value=-1, max_value=2),
    )
    def test_drawn_towers_and_targets(self, p, i, B, width, t):
        tower = build_u_tower(B, B + width, p=p)
        A = B + t * width  # inside (B, C) for 0 < t < 1
        # With B lowered after the build, the post-condition can fail.
        for checked in (tower, tower._replace(B=B / 1000)):
            want = solve_outcome(full_solve_k_vector, checked, i, A)
            assert solve_outcome(solve_k_vector, checked, i, A) == want

    def test_post_condition_failure(self):
        tower = build_u_tower(Fraction(1), Fraction(2), p=2)
        low = tower._replace(B=Fraction(1, 1000))
        for solve in (solve_k_vector, full_solve_k_vector):
            outcome = solve_outcome(solve, low, 2, Fraction(3, 2))
            assert outcome is SynthesisVerificationError


class TestIntegerConstruction:
    """synth_kernel's rounds on integers against the Fraction construction."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("m", range(2, 9))
    def test_kernel_levels_and_thresholds_match(self, m, mode):
        group = build_group(f"cyclic:{required_group_size(m, mode)}")
        result = synth_kernel(group, m, mode)
        kernel, ms, thresholds = fraction_synth_kernel(group, m, mode)
        assert (result.kernel.nums, result.kernel.den) == (kernel.nums, kernel.den)
        assert (result.ms, result.thresholds) == (ms, thresholds)


def assert_value_checks_match(result) -> dict[str, tuple[bool, str]]:
    """verify_synth's integer value checks equal their Fraction forms."""
    want = fraction_value_checks(result)
    got = {
        c.name: (c.passed, c.detail)
        for c in verify_synth(result).checks
        if c.name in want
    }
    assert got == want
    return got


class TestVerifySynthValueChecks:
    """The integer band, minimum-level and guard checks against Fractions."""

    @pytest.mark.parametrize(
        "spec, g, mode", [("cyclic:18", 9, "order_two"), ("cyclic:81", 1, "general")]
    )
    def test_checks_match_on_perturbed_kernels(self, spec, g, mode):
        group = build_group(spec)
        result = synth_kernel(group, 3, mode=mode)
        eps = result.epsilon
        centres = [h for sub in result.subsets for h in sub]
        # Each kernel is the synthesized one with one entry moved: spikes by
        # fractions of eps (into and out of the level bands), the zero
        # entries next to a centre, and every guard made positive.
        kernels = [list(result.kernel.values)]
        for position in (centres[0], centres[1], group.mul(g, centres[1])):
            for delta in (eps / 4, -eps / 3, -eps / 12, -eps / 42, Fraction(-1, 7)):
                values = list(result.kernel.values)
                values[position] += delta
                kernels.append(values)
        kernels.append([abs(v) for v in result.kernel.values])
        failed = set()
        for values in kernels:
            broken = edited(result, kernel=GroupFunction.from_values(group, values))
            got = assert_value_checks_match(broken)
            failed |= {name for name, (passed, _) in got.items() if not passed}
        assert failed == set(got)  # every check is seen failing

    @pytest.mark.parametrize(
        "spec, g, mode", [("cyclic:18", 9, "order_two"), ("cyclic:81", 1, "general")]
    )
    def test_checks_match_at_their_boundaries(self, spec, g, mode):
        # With every tower function 1_e the convolutions are the kernel
        # itself.  1/D pins the denominator to D, and lo * D, hi * D are
        # not integers, so ceil(lo D)/D and floor(hi D)/D are the values
        # nearest the band's ends; lo, hi and B themselves are outside.
        # In general mode 1/D sits on a guarded translate, the smallest
        # positive value there.
        group = build_group(spec)
        result = synth_kernel(group, 3, mode=mode)
        delta = indicator(group, group.identity)
        result = edited(result, u=(delta,) * len(result.u))
        D = 10007
        lo, hi = result.ms[0] - result.epsilon, result.ms[0]
        assert (lo * D).denominator != 1 and (hi * D).denominator != 1
        pin, spot = group.mul(g, result.subsets[0][0]), group.identity
        assert pin != spot
        for value in (Fraction(ceil(lo * D), D), Fraction(floor(hi * D), D),
                      lo, hi, result.B):
            values = [Fraction(0)] * group.order
            values[pin], values[spot] = Fraction(1, D), value
            broken = edited(result, kernel=GroupFunction.from_values(group, values))
            assert_value_checks_match(broken)


def rechained(result, epsilon):
    """result with eps replaced and m_l, c_l rebuilt by the level recursion
    on its own kernel, so the recursion holds and the spreads may not."""
    convs = [
        GroupFunction.from_values(result.group, fraction_convolve(f, result.kernel))
        for f in result.family()
    ]
    ms, big_m = [result.C], Fraction(0)
    for _ in result.ms:
        ms.append(ms[-1] - result.m * (big_m + epsilon))
        values = [termwise_relu_sum(conv, -ms[-1] + epsilon) for conv in convs]
        big_m = max(values) - min(values)
    ms = tuple(ms[1:])
    thresholds = tuple(ml - epsilon / 2 for ml in ms)
    return edited(result, epsilon=epsilon, ms=ms, thresholds=thresholds)


def tampered_results(spec, m, mode):
    """A synthesized result and copies with eps halved (alone, and at 3/4
    with the levels rebuilt to match), one m_l or c_l moved, B raised to
    the last level, a spike of the first and of the last round bumped up
    and down (the first moves every later level, the last only its own),
    and the kernel zeroed."""
    group = build_group(spec)
    result = synth_kernel(group, m, mode=mode)
    eps, ms, cs = result.epsilon, result.ms, result.thresholds

    def moved(values, l, delta):
        return tuple(v + delta if i == l else v for i, v in enumerate(values))

    def with_kernel(values):
        return edited(result, kernel=GroupFunction.from_values(group, values))

    def bumped(position, delta):
        values = list(result.kernel.values)
        values[position] += delta
        return with_kernel(values)

    spikes = (result.subsets[0][0], result.subsets[-1][1])
    deltas = (eps / 10, -eps / 10, eps / 3, -eps / 3, Fraction(1, 2), -1)
    return [
        result,
        edited(result, epsilon=eps / 2),
        rechained(result, eps * 3 / 4),
        edited(result, B=ms[-1]),
        edited(result, ms=moved(ms, len(ms) - 1, eps / 3)),
        edited(result, ms=moved(ms, 0, -eps)),
        edited(result, thresholds=moved(cs, 0, eps / 4)),
        edited(result, thresholds=moved(cs, len(cs) - 1, -eps)),
        *(bumped(x, d) for x in spikes for d in deltas),
        with_kernel([Fraction(0)] * group.order),
    ]


def assert_level_checks_match(result) -> set[str]:
    """verify_synth's integer level checks equal their Fraction forms;
    returns the names of those that fail on their own test, not skipped."""
    want = fraction_level_checks(result)
    got = {
        c.name: (c.passed, c.detail)
        for c in verify_synth(result).checks
        if c.name in want
    }
    assert got == want
    return {
        name for name, (passed, detail) in got.items()
        if not passed and not detail.startswith("skipped")
    }


class TestVerifySynthLevelChecks:
    """The integer recursion and level checks against Fraction nu values."""

    def test_checks_match_on_real_and_tampered_results(self):
        failed = set()
        for case in (("cyclic:8", 2, "order_two"), ("cyclic:18", 3, "order_two"),
                     ("cyclic:81", 3, "general")):
            result, *tampered = tampered_results(*case)
            assert assert_level_checks_match(result) == set()
            for broken in tampered:
                failed |= assert_level_checks_match(broken)
        assert failed == {  # each check is seen failing on its own test
            "level-recursion", "level-condition", "spread-bound",
            "thresholds", "orders-realized", "pairwise-gaps",
        }


class TestWitnessRecheck:
    """certificate's re-check, one nu read per c1, against the reference
    that reads nu once per (witness, profile)."""

    def test_matches_on_real_and_tampered_level_rows(self, monkeypatch):
        outcomes = set()
        for spec, m, mode in (("cyclic:8", 2, "order_two"), ("cyclic:48", 4, "order_two"),
                              ("cyclic:81", 3, "general")):
            crit = level_rows(synth_kernel(build_group(spec), m, mode=mode), monkeypatch)
            assert assert_recheck_matches(crit)
            every = range(len(crit.rows))
            # Every level off by D, as shift_level_values makes it, fails.
            assert not assert_recheck_matches(tampered_rows(crit, every, ROW_TAMPERS[0]))
            for tamper in ROW_TAMPERS:
                for rows in (every, *({i} for i in every)):
                    outcomes.add(assert_recheck_matches(tampered_rows(crit, rows, tamper)))
        assert outcomes == {True, False}

    def test_names_the_reference_function_when_a_plus_and_a_minus_fail(self, monkeypatch):
        """Move a witness to the pattern that flips one of its -1 functions i
        and one of its +1 functions j, so that both fail there; certificate
        must name the function the per-(witness, profile) loop names."""
        named = set()
        for spec, m in (("cyclic:18", 3), ("cyclic:48", 4)):
            crit = level_rows(synth_kernel(build_group(spec), m), monkeypatch)
            found = labelled(_witnesses(crit), m)
            for labels, witness in found.items():
                for i, j in product(range(m), repeat=2):
                    if labels[i] > 0 or labels[j] < 0:
                        continue
                    moved = tuple(-x if k in (i, j) else x for k, x in enumerate(labels))
                    tampered = {**found, moved: witness}
                    with pytest.raises(WitnessVerificationError) as want:
                        exceeds_recheck(crit.profiles, tampered)
                    with monkeypatch.context() as patch:
                        patch.setattr(
                            gshatter.shatter, "_witnesses", lambda _: masked(tampered)
                        )
                        with pytest.raises(WitnessVerificationError) as got:
                            certificate(crit)
                    assert str(got.value) == str(want.value)
                    assert f"fails on function {min(i, j)}:" in str(want.value)
                    named.add(i < j)
        assert named == {True, False}  # named: a claimed +1 function, and a claimed -1 one
