"""Label-pattern enumeration, shattering certificates and the order criterion."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from gshatter import shatter
from gshatter.classifier import classify
from gshatter.errors import InvariantError
from gshatter.gfunc import GroupFunction, counting_measure, indicator
from gshatter.groups import build_group
from gshatter.orders import is_strict
from gshatter.shatter import (
    attained_orders,
    certificate,
    check_order_criterion,
    critical_points,
    critical_set,
    is_shattered,
)
from gshatter.synth import synth_kernel

from references import nu


def delta_instance(spec: str, *value_rows):
    """Functions with prescribed convolutions (kernel = identity indicator)."""
    g = build_group(spec)
    fs = [GroupFunction.from_values(g, row) for row in value_rows]
    return indicator(g, g.identity), fs, counting_measure(g)


def random_instance(rng: random.Random, max_order: int = 8, max_m: int = 3,
                    max_den: int = 4):
    spec = rng.choice(
        [f"cyclic:{n}" for n in range(2, max_order + 1)]
        + ["dihedral:2", "dihedral:3", "dihedral:4", "product:cyclic:2,cyclic:2"]
    )
    g = build_group(spec)
    m = rng.randint(1, max_m)

    def rand_values():
        return [
            Fraction(rng.randint(-8, 8), rng.randint(1, max_den))
            for _ in range(g.order)
        ]

    kernel = GroupFunction.from_values(g, rand_values())
    fs = [GroupFunction.from_values(g, rand_values()) for _ in range(m)]
    return kernel, fs, counting_measure(g)


def witnessed(kernel, fs, mu) -> set[tuple[int, ...]]:
    """The label patterns the certificate of (kernel, fs) witnesses."""
    cert = is_shattered(kernel, fs, mu)
    return {e.labels for e in cert.entries if e.status == "witnessed"}


@pytest.fixture(scope="module")
def synth_m5():
    """The kernel, functions and measure of `gshatter synth --group
    cyclic:100 --m 5`."""
    g = build_group("cyclic:100")
    result = synth_kernel(g, 5)
    return result.kernel, list(result.family()), counting_measure(g)


class TestCriticalPoints:
    def test_single_constant_function(self):
        g = build_group("cyclic:3")
        k = indicator(g, 0)
        crit = critical_points(k, [GroupFunction.from_values(g, [1] * g.order)], counting_measure(g))
        assert crit.points == (Fraction(-1),)
        assert crit.probes == (Fraction(-2), Fraction(-1), Fraction(0))

    def test_identical_pair_adds_no_crossings(self):
        k, fs, mu = delta_instance("cyclic:3", [1, -1, 2], [1, -1, 2])
        crit = critical_points(k, fs, mu)
        assert crit.points == (Fraction(-2), Fraction(-1), Fraction(1))

    def test_two_function_instance_no_interior_crossings(self):
        # conv_1 = (0, 1) and conv_2 = (2, 0): the profiles only meet at a
        # shared breakpoint, so the points are exactly the breakpoints.
        k, fs, mu = delta_instance("cyclic:2", [0, 1], [2, 0])
        crit = critical_points(k, fs, mu)
        assert crit.points == (Fraction(-2), Fraction(-1), Fraction(0))
        assert crit.probes[0] == Fraction(-3)
        assert crit.probes[-1] == Fraction(1)

    def test_synth_m5_sweep_counts(self, synth_m5):
        # The probes and the rankings the sweep keeps (77 of the 103 the
        # whole line attains, up to the first complete set) are pinned, so
        # neither can change silently.
        crit = critical_points(*synth_m5)
        assert crit.stopped
        assert len(crit.points) == 560
        assert len(crit.probes) == 1121
        assert len(crit.rows) == 77

    def test_synth_m5_walk_stops_by_grid_point_74(self, synth_m5, monkeypatch):
        # The kept strict rankings become complete at the midpoint after
        # the 74th critical point; the walk yields the 75th to form it,
        # and nothing after.
        true_walk = shatter._walk
        yielded = 0

        def counted(*args):
            nonlocal yielded
            for item in true_walk(*args):
                yielded += 1
                yield item

        monkeypatch.setattr(shatter, "_walk", counted)
        assert critical_points(*synth_m5).stopped
        assert yielded <= 75

    def test_a_stop_one_row_early_raises(self, synth_m5):
        crit = critical_points(*synth_m5)
        early = crit._replace(rows=dict(list(crit.rows.items())[:-1]))
        with pytest.raises(InvariantError, match="1 of 32 label patterns have no witness"):
            certificate(early)

    def test_ranking_constant_between_points(self):
        rng = random.Random(7)
        for _ in range(20):
            kernel, fs, mu = random_instance(rng)
            crit = critical_points(kernel, fs, mu)
            pts = list(crit.points)
            spans = []
            if pts:
                spans.append((pts[0] - 2, pts[0]))
                spans.extend(zip(pts, pts[1:]))
                spans.append((pts[-1], pts[-1] + 2))
            else:
                spans.append((Fraction(-1), Fraction(1)))
            for lo, hi in spans:
                samples = [lo + (hi - lo) * t for t in
                           (Fraction(1, 7), Fraction(1, 2), Fraction(6, 7))]
                rankings = {
                    tuple(
                        sorted(range(len(fs)),
                               key=lambda i: nu(kernel, fs[i], c))
                    )
                    for c in samples
                }
                assert len(rankings) == 1


class TestEmptyFamily:
    @pytest.mark.parametrize(
        "call",
        [is_shattered, check_order_criterion, critical_points],
    )
    def test_an_empty_family_is_refused(self, call):
        g = build_group("cyclic:3")
        with pytest.raises(ValueError, match="at least one function"):
            call(indicator(g, 0), [], counting_measure(g))

    def test_critical_set_refuses_no_profiles(self):
        with pytest.raises(ValueError, match="at least one function"):
            critical_set([])


class TestEnumeration:
    def test_m1_reaches_both_labels(self):
        k, fs, mu = delta_instance("cyclic:2", [1, 0])
        assert witnessed(k, fs, mu) == {(-1,), (1,)}

    def test_identical_pair_only_agreeing_labels(self):
        k, fs, mu = delta_instance("cyclic:2", [1, 0], [1, 0])
        assert witnessed(k, fs, mu) == {(-1, -1), (1, 1)}

    def test_zero_kernel(self):
        g = build_group("cyclic:4")
        k = GroupFunction.from_values(g, [0] * g.order)
        fs = [GroupFunction.from_values(g, [i, 1, 0, -i]) for i in range(3)]
        assert witnessed(k, fs, counting_measure(g)) == {(-1, -1, -1), (1, 1, 1)}

    def test_counting_bound(self):
        # The closed-form bound on realizable label patterns, on the
        # certificate's witnessed count over seeded small instances.
        rng = random.Random(11)
        for _ in range(60):
            kernel, fs, mu = random_instance(rng, max_order=12, max_m=4, max_den=8)
            m, n = len(fs), kernel.group.order
            count = is_shattered(kernel, fs, mu).witnessed_count()
            assert count <= (m + m * (m - 1) // 2) * (m * n + 1)

    def test_sampled_patterns_are_enumerated(self):
        # Soundness of the probe set: any (c1, c2) whatsoever must land on
        # an enumerated pattern.
        rng = random.Random(23)
        for _ in range(12):
            kernel, fs, mu = random_instance(rng)
            enumerated = witnessed(kernel, fs, mu)
            for _ in range(40):
                c1 = Fraction(rng.randint(-64, 64), rng.choice([1, 3, 5, 7, 16]))
                c2 = Fraction(rng.randint(-64, 64), rng.choice([1, 3, 5, 7, 16]))
                labels = tuple(classify(kernel, f, mu, c1, c2) for f in fs)
                assert labels in enumerated

    def test_exhaustive_sweep_matches_enumeration(self):
        # On a grid fine enough to hit every affine piece and every critical
        # point exactly, the swept patterns equal the enumerated set.
        rng = random.Random(31)
        for _ in range(5):
            g = build_group("cyclic:3")
            kernel = GroupFunction.from_values(
                g, [rng.randint(-3, 3) for _ in range(3)]
            )
            fs = [
                GroupFunction.from_values(g, [rng.randint(-3, 3) for _ in range(3)])
                for _ in range(2)
            ]
            mu = counting_measure(g)
            enumerated = witnessed(kernel, fs, mu)
            crit = critical_points(kernel, fs, mu)
            pts = crit.points or (Fraction(0),)
            step = Fraction(1, 2 * lcm(*(p.denominator for p in pts), 1))
            swept = set()
            c1 = pts[0] - 1
            while c1 <= pts[-1] + 1:
                values = [nu(kernel, f, c1) for f in fs]
                cuts = sorted(set(values), reverse=True)
                cuts.append(cuts[-1] - 1)
                for threshold in cuts:
                    swept.add(tuple(1 if v > threshold else -1 for v in values))
                c1 += step
            assert swept == enumerated


class TestCertificates:
    def test_crossing_pair_is_shattered(self):
        # conv_1 = (4, 0), conv_2 = (3, 3): nu_1 leads for very negative
        # bias, nu_2 leads for large bias, so all four patterns appear.
        k, fs, mu = delta_instance("cyclic:2", [4, 0], [3, 3])
        cert = is_shattered(k, fs, mu)
        assert cert.shattered
        assert cert.witnessed_count() == 4
        assert cert.entries[0].labels == (-1, -1)
        for entry in cert.entries:
            assert entry.status == "witnessed"
            for f, want in zip(fs, entry.labels):
                assert classify(k, f, mu, entry.c1, entry.c2) == want

    def test_dominated_pair_misses_one_pattern(self):
        # conv_2 >= conv_1 pointwise with equality nowhere useful, so the
        # pattern (+1, -1) can never be realized.
        k, fs, mu = delta_instance("cyclic:2", [0, 1], [2, 0])
        cert = is_shattered(k, fs, mu)
        assert not cert.shattered
        assert cert.witnessed_count() == 3
        missing = [e.labels for e in cert.entries if e.status == "unreachable"]
        assert missing == [(1, -1)]

    def test_m1_always_shatterable(self):
        for rows in ([[0, 0]], [[5, -5]]):
            k, fs, mu = delta_instance("cyclic:2", *rows)
            assert is_shattered(k, fs, mu).shattered

    def test_unreachable_entries_have_no_witness(self):
        k, fs, mu = delta_instance("cyclic:2", [1, 0], [1, 0])
        cert = is_shattered(k, fs, mu)
        for e in cert.entries:
            if e.status == "unreachable":
                assert e.c1 is None and e.c2 is None

    def test_a_row_with_two_tie_groups(self):
        # Two copies each of a crossing pair: every row has two groups of
        # tied values, so its cuts give only patterns that agree within each.
        k, fs, mu = delta_instance("cyclic:2", [4, 0], [4, 0], [3, 3], [3, 3])
        cert = is_shattered(k, fs, mu)
        witnessed = [e for e in cert.entries if e.status == "witnessed"]
        assert [e.labels for e in witnessed] == [
            (-1, -1, -1, -1), (-1, -1, 1, 1), (1, 1, -1, -1), (1, 1, 1, 1)
        ]
        for entry in witnessed:
            for f, want in zip(fs, entry.labels):
                assert classify(k, f, mu, entry.c1, entry.c2) == want
        unreachable = [e for e in cert.entries if e.status == "unreachable"]
        assert len(unreachable) == 12
        assert all(e.c1 is None and e.c2 is None for e in unreachable)
        assert not cert.shattered
        assert not check_order_criterion(k, fs, mu)

    def test_a_row_forms_its_c1_once(self, monkeypatch):
        # cyclic:48 at m = 4: 16 patterns cut from 6 level rows, each row's
        # entries sharing one c1 object; one c1 per entry would form 32.
        formed = []

        def counted(*args):
            formed.append(Fraction(*args))
            return formed[-1]

        monkeypatch.setattr(shatter, "Fraction", counted)
        entries = synth_kernel(build_group("cyclic:48"), 4).report.certificate.entries
        assert len(formed) == 22
        assert len({e.c2 for e in entries}) == 16
        assert len({id(e.c1) for e in entries}) == len({e.c1 for e in entries}) == 6


class TestOrderCriterion:
    def test_order_set_of_crossing_pair(self):
        k, fs, mu = delta_instance("cyclic:2", [4, 0], [3, 3])
        orders = attained_orders(critical_points(k, fs, mu))
        strict = {r for r in orders.rankings if is_strict(r)}
        assert strict == {(1, 2), (2, 1)}
        assert check_order_criterion(k, fs, mu)

    def test_identical_functions_tie(self):
        k, fs, mu = delta_instance("cyclic:2", [1, 0], [1, 0])
        orders = attained_orders(critical_points(k, fs, mu))
        assert set(orders.rankings) == {(1, 1)}
        assert not check_order_criterion(k, fs, mu)

    def test_agrees_with_is_shattered_on_random_instances(self):
        rng = random.Random(5)
        for _ in range(150):
            kernel, fs, mu = random_instance(rng)
            assert check_order_criterion(kernel, fs, mu) == is_shattered(
                kernel, fs, mu
            ).shattered
