"""Kernel synthesis: the two-coefficient tower, spike placement, verification."""

from __future__ import annotations

import inspect
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gshatter.shatter
import gshatter.synth
from gshatter.bounds import required_group_size
from gshatter.classifier import build_nu_profiles
from gshatter.errors import GroupTooSmallError, ModeElementError
from gshatter.gfunc import GroupFunction
from gshatter.groups import build_group
from gshatter.orders import build_complete_orders
from gshatter.shatter import certificate, critical_set
from gshatter.synth import (
    LEVEL_INTERVAL,
    _check_subsets,
    build_u_tower,
    choose_subsets,
    synth_epsilon,
    synth_kernel,
    verify_synth,
)

from references import edited, solve_k_vector

HALF = Fraction(1, 2)


def u_tilde(tower, index, k):
    """u~_index(k): u_index's coefficient pair dotted with the plane point k."""
    a1, a2 = tower.coeffs[index]
    return a1 * k[0] + a2 * k[1]


class TestUTower:
    def test_epsilon_values(self):
        tower = build_u_tower(Fraction(1), Fraction(2), p=2)
        assert tower.epsilons == (Fraction(21, 2), Fraction(9))
        tower1 = build_u_tower(Fraction(1), Fraction(2), p=1)
        assert tower1.epsilons == (Fraction(9),)

    def test_first_levels(self):
        tower = build_u_tower(Fraction(1), Fraction(2), p=1)
        assert tower.coeffs[0] == (1, 0)
        assert tower.coeffs[1] == (0, 1)
        assert tower.coeffs[2] == (9, 1)  # u_2 = 9*1_e + 1_g
        assert tower.coeffs[3] == (1, 9)
        # synth_kernel writes u_2 onto the group: 9 at e, 1 at g = 4.
        result = synth_kernel(build_group("cyclic:8"), 1)
        assert result.g == 4
        assert result.u[2].values == (9, 0, 0, 0, 1, 0, 0, 0)

    def test_epsilons_strictly_separated(self):
        tower = build_u_tower(Fraction(1), Fraction(3), p=5)
        for a, b in zip(tower.epsilons, tower.epsilons[1:]):
            assert b < a - tower.B / tower.C

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            build_u_tower(Fraction(2), Fraction(1), p=1)


class TestKVector:
    def test_hand_solution(self):
        tower = build_u_tower(Fraction(1), Fraction(2), p=1)
        k = solve_k_vector(tower, 2, Fraction(3, 2))
        assert k == (Fraction(1, 3), Fraction(-3, 2))
        assert u_tilde(tower, 2, k) == Fraction(3, 2)
        assert u_tilde(tower, 0, k) < 1 and u_tilde(tower, 1, k) < 1

    def test_target_must_be_strictly_inside(self):
        tower = build_u_tower(Fraction(1), Fraction(2), p=1)
        for bad in (Fraction(1), Fraction(2), Fraction(5)):
            with pytest.raises(ValueError):
                solve_k_vector(tower, 2, bad)

    def test_index_must_be_even_in_range(self):
        tower = build_u_tower(Fraction(1), Fraction(2), p=2)
        for bad in (0, 1, 3, 6):
            with pytest.raises(ValueError):
                solve_k_vector(tower, bad, Fraction(3, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=4),
        num=st.integers(min_value=1, max_value=8),
        den=st.integers(min_value=9, max_value=17),
        half_i=st.integers(min_value=1, max_value=4),
    )
    def test_every_even_level_is_solvable(self, p, num, den, half_i):
        tower = build_u_tower(Fraction(1), Fraction(2), p=p)
        i = 2 * min(half_i, p)
        target = 1 + Fraction(num, den)  # strictly inside (1, 2)
        k = solve_k_vector(tower, i, target)
        assert u_tilde(tower, i, k) == target


class TestEpsilon:
    def test_formula(self):
        # (C-B)(m-1) / (2m(m-1+m^{r+1}-1)) at r = C(m, floor(m/2)).
        assert synth_epsilon(Fraction(1), Fraction(2), 2) == Fraction(1, 32)  # r = 2
        assert synth_epsilon(Fraction(1), Fraction(2), 3) == Fraction(
            2, 2 * 3 * (2 + 3**4 - 1)  # r = 3
        )
        assert synth_epsilon(Fraction(1), Fraction(2), 4) == Fraction(
            3, 2 * 4 * (3 + 4**7 - 1)  # r = 6
        )

    def test_m1_uses_quarter_width(self):
        assert synth_epsilon(Fraction(1), Fraction(2), 1) == Fraction(1, 4)

    def test_positive_and_below_width(self):
        for m in range(1, 9):
            eps = synth_epsilon(Fraction(1), Fraction(2), m)
            assert 0 < eps < 1

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            synth_epsilon(Fraction(1), Fraction(2), 0)


class TestSubsets:
    def test_greedy_choice_on_cyclic_8(self):
        g = build_group("cyclic:8")
        subsets = choose_subsets(g, 4, r=2, m=2, mode="order_two")
        assert subsets == ((0, 1), (2, 3))

    # choose_subsets relies on synth_kernel's size check, made first.
    def test_too_small_group(self):
        with pytest.raises(GroupTooSmallError) as err:
            synth_kernel(build_group("cyclic:6"), 2)
        assert err.value.required == 8

    @pytest.mark.parametrize("mode", ["order_two", "general"])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_too_small_agrees_with_required_group_size(self, m, mode):
        required = required_group_size(m, mode)
        g = build_group(f"cyclic:{required - 1}")
        with pytest.raises(GroupTooSmallError) as err:
            synth_kernel(g, m, mode=mode)
        assert err.value.required == required

    @pytest.mark.parametrize("mode", ["order_two", "general"])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_required_group_size_leaves_room_for_every_pick(self, m, mode):
        required = required_group_size(m, mode)
        g = required // 2 if mode == "order_two" else 1
        r = comb(m, m // 2)
        subsets = choose_subsets(build_group(f"cyclic:{required}"), g, r, m, mode)
        assert len(subsets) == r and all(len(sub) == m for sub in subsets)

    def test_general_windows_disjoint(self):
        g = build_group("cyclic:81")
        subsets = choose_subsets(g, 1, r=3, m=3, mode="general")
        assert _check_subsets(g, 1, subsets, "general") is None
        flat = [h for sub in subsets for h in sub]
        windows = [
            {(h + shift) % 81 for shift in range(-2, 3)} for h in flat
        ]
        seen: set[int] = set()
        for w in windows:
            assert not (w & seen)
            seen |= w

    def test_duplicate_centre_rejected(self):
        g = build_group("cyclic:8")
        assert _check_subsets(g, 4, ((0, 0),), "order_two") == (
            "the windows of the 2 centres are not pairwise disjoint"
        )

    def test_translate_collision_rejected(self):
        g = build_group("cyclic:8")
        # 4 is the g-translate of 0, so the pair is not usable.
        assert _check_subsets(g, 4, ((0, 4),), "order_two") == (
            "the windows of the 2 centres are not pairwise disjoint"
        )

    def test_general_window_overlap_rejected(self):
        g = build_group("cyclic:81")
        # The windows {79, .., 2} and {1, .., 5} share 1 and 2.
        assert _check_subsets(g, 1, ((0, 3),), "general") == (
            "the windows of the 2 centres are not pairwise disjoint"
        )
        assert _check_subsets(g, 1, ((0, 5),), "general") is None

    @pytest.mark.parametrize(
        "spec, mode", [("cyclic:18", "order_two"), ("cyclic:81", "general")]
    )
    def test_checked_once_per_synthesis(self, monkeypatch, spec, mode):
        calls = []
        original = gshatter.synth._check_subsets

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gshatter.synth, "_check_subsets", counting)
        synth_kernel(build_group(spec), 3, mode=mode)
        assert len(calls) == 1


class TestConfigValidation:
    def test_rejects_inconsistencies(self):
        group = build_group("cyclic:8")
        with pytest.raises(ValueError, match="need m >= 1"):
            synth_kernel(group, 0)
        with pytest.raises(ValueError, match="unknown mode"):
            synth_kernel(group, 2, mode="sideways")

    def test_names_only_what_the_construction_cannot_derive(self):
        assert list(inspect.signature(synth_kernel).parameters) == ["group", "m", "mode"]
        result = synth_kernel(build_group("cyclic:8"), 2)
        assert (result.B, result.C) == LEVEL_INTERVAL == (1, 2)


class TestSynthesis:
    def _build(self, spec: str, m: int, mode: str = "order_two"):
        group = build_group(spec)
        result = synth_kernel(group, m, mode=mode)
        return group, result.report.orders, result

    @pytest.mark.parametrize(
        "spec, mode", [("cyclic:18", "order_two"), ("cyclic:81", "general")]
    )
    def test_one_result_per_synthesis(self, monkeypatch, spec, mode):
        """The result verify_synth checked is the one returned, with its report."""
        calls = []
        original = gshatter.synth.SynthResult.__init__

        def counting(self, *args, **kwargs):
            calls.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(gshatter.synth.SynthResult, "__init__", counting)
        result = synth_kernel(build_group(spec), 3, mode=mode)
        assert calls == [result]
        assert result.report is not None and result.report.passed

    def test_m2_on_cyclic_8(self):
        group, orders, result = self._build("cyclic:8", 2)
        assert result.g == 4  # the only involution
        assert orders == build_complete_orders(2)
        assert result.m == 2
        assert len(result.family()) == 2
        assert len(result.ms) == len(orders.rankings) == 2
        assert all(a > b for a, b in zip(result.ms, result.ms[1:]))
        assert result.B < result.ms[-1]
        assert result.thresholds == tuple(
            ml - result.epsilon / 2 for ml in result.ms
        )
        report = verify_synth(result)
        assert report.passed, report.lines()

    def test_m2_on_dihedral_6(self):
        group, orders, result = self._build("dihedral:6", 2)
        report = verify_synth(result)
        assert report.passed, report.lines()

    def test_m1_general_mode(self):
        group, orders, result = self._build("cyclic:9", 1, mode="general")
        assert result.mode == "general"
        report = verify_synth(result)
        assert report.passed, report.lines()

    def test_deterministic(self):
        _, _, first = self._build("cyclic:8", 2)
        _, _, second = self._build("cyclic:8", 2)
        assert first.kernel.values == second.kernel.values
        assert first.subsets == second.subsets
        assert first.ms == second.ms

    def test_general_mode_uses_the_smallest_element_of_order_3_or_more(self):
        _, _, result = self._build("dihedral:9", 1, mode="general")
        assert result.g == 1

    def test_wrong_mode_element(self):
        # An odd group has no involution; (Z/2)^4 has no element of order 3+.
        with pytest.raises(ModeElementError, match="order_two"):
            synth_kernel(build_group("cyclic:81"), 3)
        klein = "product:cyclic:2,product:cyclic:2,product:cyclic:2,cyclic:2"
        with pytest.raises(ModeElementError, match="general"):
            synth_kernel(build_group(klein), 1, mode="general")

    def test_group_too_small(self):
        group = build_group("cyclic:10")
        with pytest.raises(GroupTooSmallError) as err:
            synth_kernel(group, 4)
        assert err.value.required == 48

    def test_size_checked_before_the_mode_element(self):
        # cyclic:81 has no involution, and m = 5 needs |G| >= 100.
        with pytest.raises(GroupTooSmallError) as err:
            synth_kernel(build_group("cyclic:81"), 5)
        assert err.value.required == 100

    def test_orders_built_only_after_both_checks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gshatter.synth, "build_complete_orders", calls.append)
        for m in (5, 3):  # too small, then no involution
            with pytest.raises((GroupTooSmallError, ModeElementError)):
                synth_kernel(build_group("cyclic:81"), m)
        assert calls == []

    def test_huge_group_rejected_before_any_scan(self, monkeypatch):
        # m = 22 needs |G| >= 31039008; the involution of cyclic:20000000
        # is element 10000000, so a scan would take seconds.
        def no_scan(group):
            raise AssertionError("the mode element was looked for")

        monkeypatch.setattr(gshatter.synth, "find_order_two_element", no_scan)
        group = build_group("cyclic:20000000")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(GroupTooSmallError) as err:
                synth_kernel(group, 22)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.required == 31039008
        assert elapsed < 0.1
        assert peak < 1_000_000


def _replace_centre(subsets, centre):
    return ((centre,) + subsets[0][1:],) + subsets[1:]


# Each edit breaks one rule of a SynthResult's shape.
MALFORMED = {
    "short-ms": lambda r: {"ms": r.ms[:-1]},
    "no-ms": lambda r: {"ms": ()},
    "short-thresholds": lambda r: {"thresholds": r.thresholds[:-1]},
    "no-subsets": lambda r: {"subsets": ()},
    "short-subset": lambda r: {"subsets": (r.subsets[0][:-1],) + r.subsets[1:]},
    "g-is-the-order": lambda r: {"g": r.group.order},
    "g-is-identity": lambda r: {"g": r.group.identity},
    "negative-centre": lambda r: {"subsets": _replace_centre(r.subsets, -1)},
    "centre-is-the-order": lambda r: {"subsets": _replace_centre(r.subsets, r.group.order)},
    "odd-u": lambda r: {"u": r.u[:-1]},
    "u-of-two": lambda r: {"u": r.u[:2]},
    "bogus-mode": lambda r: {"mode": "bogus"},
    "B-is-C": lambda r: {"B": r.C},
    "B-above-C": lambda r: {"B": r.C + 1},
}


@pytest.fixture(scope="module")
def results():
    """Real results at m = 2 and m = 3, keyed by their group."""
    return {
        "cyclic:8": synth_kernel(build_group("cyclic:8"), 2),
        "cyclic:18": synth_kernel(build_group("cyclic:18"), 3),
        "cyclic:81": synth_kernel(build_group("cyclic:81"), 3, mode="general"),
    }


class TestShape:
    @pytest.mark.parametrize("spec", ["cyclic:8", "cyclic:18", "cyclic:81"])
    @pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_result_rejected(self, results, spec, edit):
        result = results[spec]
        edited(result)  # the unedited shape holds
        with pytest.raises(ValueError):
            edited(result, **edit(result))

    @pytest.mark.parametrize("B, spelled", [
        (Fraction(-1, 2), "-1/2"),
        (Fraction(5, 2), "5/2"),
        (-(10**5000 // 3), "-" + "3" * 56 + "..."),
    ], ids=["negative", "above-C", "5000-digits"])
    def test_bad_interval_quotes_the_values_cut_short(self, results, B, spelled):
        with pytest.raises(ValueError) as caught:
            edited(results["cyclic:8"], B=B)
        assert str(caught.value) == f"need C > B > 0, got B={spelled}, C=2"


# (i, edit): u_i's value at x becomes y, where (x, y) = edit(values, e, g).
TOWER_EDITS = {
    "u2-at-e-changed": (2, lambda v, e, g: (e, v[e] + 1)),
    "u3-outside-e-and-g": (3, lambda v, e, g: (min({0, 1, 2} - {e, g}), HALF)),
    "u4-at-e-is-its-value-at-g": (4, lambda v, e, g: (e, v[g])),
}


class TestVerification:
    @pytest.mark.parametrize("i, edit", TOWER_EDITS.values(), ids=TOWER_EDITS.keys())
    def test_edited_tower_function_fails(self, results, i, edit):
        result = results["cyclic:18"]
        e, g = result.group.identity, result.g
        values = list(result.u[i].values)
        x, y = edit(values, e, g)
        assert values[x] != y
        values[x] = y
        u = list(result.u)
        u[i] = GroupFunction.from_values(u[i].group, values)
        report = verify_synth(edited(result, u=tuple(u)))
        failed = {c.name for c in report.checks if not c.passed}
        assert "u-tower-structure" in failed

    def test_coinciding_centres_fail_subset_disjointness(self, results):
        result = results["cyclic:18"]
        first, *rest = result.subsets
        subsets = ((first[0], first[0], *first[2:]), *rest)
        report = verify_synth(edited(result, subsets=subsets))
        verdicts = {c.name: (c.passed, c.detail) for c in report.checks}
        assert verdicts["subset-disjointness"] == (
            False, "the windows of the 9 centres are not pairwise disjoint"
        )
        assert not report.passed

    def test_perturbed_kernel_fails(self):
        group = build_group("cyclic:8")
        result = synth_kernel(group, 2)
        spike = result.subsets[0][0]
        bumped = list(result.kernel.values)
        bumped[spike] += result.epsilon / 4
        broken = edited(result, kernel=GroupFunction.from_values(group, bumped))
        report = verify_synth(broken)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert failed  # at least one re-derived claim notices the bump

    def test_zero_kernel_fails_order_checks(self):
        group = build_group("cyclic:8")
        result = synth_kernel(group, 2)
        zero = GroupFunction.from_values(group, [0] * group.order)
        broken = edited(result, kernel=zero)
        report = verify_synth(broken)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "orders-realized" in failed
        assert "kernel-minimum-level" in failed

    def test_levels_that_miss_patterns_fall_back_to_the_sweep(self):
        # With every threshold at c_1 the one level ranking cuts only m + 1
        # patterns, so the certificate comes from the sweep over the line.
        result = synth_kernel(build_group("cyclic:100"), 5)
        broken = edited(
            result, thresholds=(result.thresholds[0],) * len(result.thresholds)
        )
        report = verify_synth(broken)
        verdicts = {c.name: (c.passed, c.detail) for c in report.checks}
        assert not verdicts["thresholds"][0] and not verdicts["orders-realized"][0]
        assert verdicts["shattering"] == (True, "32 of 32 label patterns witnessed")
        profiles = build_nu_profiles(broken.kernel, broken.family())
        assert report.certificate == certificate(critical_set(profiles))

    def test_certificate_reads_nu_once_per_distinct_c1(self, monkeypatch):
        # cyclic:48 at m = 4 certifies from 6 levels: its 16 witnesses sit
        # at 6 distinct c1, so the re-check reads 6 x 4 values, not 16 x 4.
        calls = []
        read = gshatter.shatter.nu_values
        made = gshatter.synth.certificate

        def counted(critical):
            monkeypatch.setattr(
                gshatter.shatter, "nu_values",
                lambda profiles, c: calls.append(len(profiles)) or read(profiles, c),
            )
            try:
                return made(critical)
            finally:
                monkeypatch.setattr(gshatter.shatter, "nu_values", read)

        monkeypatch.setattr(gshatter.synth, "certificate", counted)
        cert = synth_kernel(build_group("cyclic:48"), 4).report.certificate
        assert cert.shattered
        distinct = {e.c1 for e in cert.entries}
        assert len(distinct) == 6
        assert calls == [cert.m] * len(distinct) == [4] * 6

    def test_report_lines_format(self):
        group = build_group("cyclic:8")
        result = synth_kernel(group, 2)
        report = verify_synth(result)
        assert all(line.startswith("PASS") for line in report.lines())
        names = {c.name for c in report.checks}
        assert {"epsilon-formula", "level-recursion", "shattering"} <= names
