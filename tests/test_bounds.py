"""Closed-form dimension bounds and their exact decision procedures."""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext

import pytest

from gshatter.bounds import (
    build_bound_report,
    lower_bound,
    lower_bound_at_most,
    required_group_size,
    upper_bound_implicit,
    upper_bound_refined,
    upper_bound_simple,
    upper_bound_simple_ceil,
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

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            upper_bound_simple(0)
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            upper_bound_simple_ceil(0)


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
        with pytest.raises(ValueError, match="need n > 1, got 1"):
            lower_bound_at_most(1, True, 3)

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

    def test_at_most_agrees_with_the_float_bound(self):
        # Wherever the float value is clearly on one side of m, the exact
        # decision must fall on the same side.
        for n in range(2, 3001):
            for mode in (True, False):
                value = lower_bound(n, mode)
                for m in range(math.floor(value) - 2, math.floor(value) + 3):
                    if abs(value - m) > 1e-9:
                        assert lower_bound_at_most(n, mode, m) == (value <= m), (n, mode, m)

    def test_at_most_near_a_crossing(self):
        # lower_bound(n, True) passes 10 between n = 785 401 and 785 402;
        # near there it lies within 2^-12 of 10 for dozens of n, and an
        # 80-digit decimal evaluation is the reference.
        with localcontext() as ctx:
            ctx.prec = 80
            ln2 = Decimal(2).ln()
            for n in range(785_302, 785_502):
                log_n = Decimal(n).ln() / ln2
                value = log_n - 2 * log_n.ln() / ln2 - 1
                assert lower_bound_at_most(n, True, 10) == (value <= 10), n

    def test_at_most_on_long_group_orders(self):
        for bits, offset in itertools.product((167, 317, 1001), (1, 12345, 3**50)):
            n = (1 << bits - 1) + offset
            for mode in (True, False):
                value = lower_bound(n, mode)
                for m in range(math.floor(value) - 2, math.floor(value) + 3):
                    assert lower_bound_at_most(n, mode, m) == (value <= m), (bits, offset, mode, m)

    def test_at_most_far_from_the_bound(self):
        # m past log2 n, or below -1, is decided without any squaring.
        assert lower_bound_at_most(3, True, 10**9)
        assert not lower_bound_at_most(2**100, False, -10**9)

    def test_consistent_with_upper(self):
        for n in (16, 48, 256, 10**6):
            assert lower_bound(n, True) <= upper_bound_implicit(n)
            assert lower_bound(n, True) <= upper_bound_simple(n)


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
