"""Differential tests: every fast path against its slow reference.

The references live in `references.py`.  Fraction arithmetic is exact,
so the fast paths must give identical values, not merely close ones.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshatter.classifier import build_nu_profile, ranking_of_values, relu_sum
from gshatter.gfunc import GroupFunction, Measure, convolve, indicator
from gshatter.groups import build_group
from gshatter.shatter import _witnesses, critical_set

from references import (
    bisect_critical_set,
    counted_ranks,
    cut_witnesses,
    dense_convolve,
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


@st.composite
def group_values(draw, n: int) -> list[Fraction]:
    """Values on n elements with a drawn support, from empty to full."""
    support = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return [
        draw(nonzero_rationals) if g in support else Fraction(0)
        for g in range(n)
    ]


@st.composite
def instances(draw):
    """(kernel, functions, measure); zeros in all three are common."""
    group = GROUPS[draw(st.sampled_from(SPECS))]
    n = group.order
    kernel = GroupFunction(group, tuple(draw(group_values(n))))
    m = draw(st.integers(min_value=1, max_value=4))
    fs = [GroupFunction(group, tuple(draw(group_values(n)))) for _ in range(m)]
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    )
    if not any(weights):
        weights[draw(st.integers(min_value=0, max_value=n - 1))] = 1
    return kernel, fs, Measure.from_weights(group, weights)


def assert_matches_references(kernel, fs, mu) -> None:
    for f in fs:
        assert convolve(f, kernel, mu).values == dense_convolve(f, kernel, mu)
    profiles = [build_nu_profile(kernel, f, mu) for f in fs]
    crit = critical_set(profiles)
    points, probes, values = bisect_critical_set(profiles)
    assert crit.points == points
    assert crit.probes == probes
    assert crit.values == values
    assert _witnesses(crit) == cut_witnesses(probes, values)


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
            for c in {-v + shift for v in conv.values} | {-v for v in conv.values}:
                assert relu_sum(conv, mu, c) == termwise_relu_sum(conv, mu, c)

    @pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6"])
    def test_sparse_function_against_dense_kernel(self, spec):
        # Two nonzero values in f, as in the tower functions, and a zero weight.
        group = GROUPS[spec]
        kernel = GroupFunction.from_values(
            group, [Fraction(g + 1, 3) for g in range(group.order)]
        )
        f = GroupFunction.from_values(
            group, [Fraction(2) if g in (1, 4) else 0 for g in range(group.order)]
        )
        mu = Measure.from_weights(
            group, [0 if g == 2 else 1 for g in range(group.order)]
        )
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
        mu = Measure.from_weights(group, [1] * group.order)
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
        assert ranking_of_values(values).ranks == counted_ranks(values)
