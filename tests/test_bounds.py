"""Closed-form dimension bounds and their exact decision procedures."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from gshatter.bounds import (
    build_bound_report,
    log2_bounds,
    lower_bound,
    lower_bound_at_most,
    lower_bound_brackets,
    required_group_size,
    upper_bound_implicit,
    upper_bound_refined,
    upper_bound_simple,
    upper_bound_simple_ceil,
    wallis_check,
)


class TestImplicitUpper:
    def test_spot_values(self):
        assert upper_bound_implicit(1) == 10
        assert upper_bound_implicit(48) == 18
        assert upper_bound_implicit(16) == 16

    def test_defining_inequality(self):
        for n in (1, 2, 7, 16, 48, 100, 1000):
            m = upper_bound_implicit(n)
            assert 2**m <= n * (m + 1) ** 3
            assert 2 ** (m + 1) > n * (m + 2) ** 3

    def test_monotone_in_n(self):
        values = [upper_bound_implicit(n) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            upper_bound_implicit(0)


class TestSimpleUpper:
    def test_floor_at_30(self):
        assert upper_bound_simple(2) == 30.0
        assert upper_bound_simple_ceil(2) == 30
        assert upper_bound_simple(2**15) == 30.0

    def test_log_regime(self):
        assert upper_bound_simple(2**30) == 60.0
        assert upper_bound_simple_ceil(2**30) == 60
        assert upper_bound_simple_ceil(2**31) == 62

    def test_ceil_is_exact_ceiling(self):
        for n in (2, 3, 100, 2**15, 2**15 + 1, 2**20):
            k = upper_bound_simple_ceil(n)
            assert k == max(30, math.ceil(2 * math.log2(n) - 1e-12))
            # defining form: smallest k >= 30 with 2^k >= n^2
            if k > 30:
                assert 2**k >= n * n > 2 ** (k - 1)


class TestRefinedUpper:
    def test_spot_values(self):
        assert upper_bound_refined(16) == pytest.approx(22.0)
        assert upper_bound_refined(256) == pytest.approx(35.0)

    def test_needs_n_at_least_16(self):
        with pytest.raises(ValueError):
            upper_bound_refined(15)


class TestLowerBound:
    def test_exact_powers(self):
        assert lower_bound(2**8, True) == pytest.approx(1.0)
        assert lower_bound(2**8, False) == pytest.approx(-2.0)

    def test_large_value(self):
        v = lower_bound(2**20, True)
        assert v == pytest.approx(20 - 2 * math.log2(20) - 1)
        assert 10.3 < v < 10.4

    def test_rejects_trivial_group(self):
        with pytest.raises(ValueError):
            lower_bound(1, True)

    def test_brackets_contain_float_value(self):
        for n in (5, 48, 1000, 2**13 + 7):
            for mode in (True, False):
                lo, hi = lower_bound_brackets(n, mode)
                assert lo <= hi
                assert float(lo) <= lower_bound(n, mode) <= float(hi)
                assert hi - lo < Fraction(1, 2**30)

    def test_at_most_exact_path(self):
        # 256 = 2^(2^3), so the bound is the exact integer 1.
        assert lower_bound_at_most(256, True, 1)
        assert not lower_bound_at_most(256, True, 0)
        assert lower_bound_at_most(256, False, -2)
        assert not lower_bound_at_most(256, False, -3)

    def test_at_most_bracketing_path(self):
        # lower_bound(48, True) ~ -0.38: between -1 and 0.
        assert lower_bound_at_most(48, True, 0)
        assert not lower_bound_at_most(48, True, -1)

    def test_consistent_with_upper(self):
        for n in (16, 48, 256, 10**6):
            assert lower_bound(n, True) <= upper_bound_implicit(n)
            assert lower_bound(n, True) <= upper_bound_simple(n)


class TestLog2Bounds:
    def test_brackets_true_value(self):
        for x in (Fraction(3), Fraction(10), Fraction(1, 7), Fraction(97, 13)):
            lo, hi = log2_bounds(x)
            assert lo <= hi
            assert float(lo) <= math.log2(x) <= float(hi)
            assert hi - lo < Fraction(1, 2**40)

    def test_exact_powers_of_two(self):
        lo, hi = log2_bounds(Fraction(8))
        assert lo <= 3 <= hi

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_bounds(Fraction(0))


class TestRequiredSize:
    def test_spot_values(self):
        assert required_group_size(3, "order_two") == 18
        assert required_group_size(4, "order_two") == 48
        assert required_group_size(3, "general") == 81

    def test_general_costs_4_5x(self):
        for m in range(1, 9):
            ot = required_group_size(m, "order_two")
            gen = required_group_size(m, "general")
            assert gen * 2 == ot * 9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            required_group_size(0, "order_two")
        with pytest.raises(ValueError):
            required_group_size(2, "cheap")


class TestWallis:
    def test_holds_for_small_m(self):
        assert all(wallis_check(m) for m in range(1, 31))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            wallis_check(0)


class TestReport:
    def test_full_report(self):
        report = build_bound_report(48)
        assert report.n == 48
        assert report.implicit_upper == 18
        assert report.refined_upper is not None
        assert report.lower_order_two is not None
        assert report.lower_order_two <= report.implicit_upper

    def test_small_n_leaves_gaps(self):
        report = build_bound_report(1)
        assert report.refined_upper is None
        assert report.lower_order_two is None
        assert report.lower_general is None
        assert report.implicit_upper == 10
