"""Exact function algebra: convolution, translation, the counting measure."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshatter.gfunc import GroupFunction, convolve, counting_measure, indicator
from gshatter.groups import build_group
from gshatter.jsonio import group_function_from_json, group_function_to_json
from references import translate


def rationals(max_den: int = 8, max_num: int = 16) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


GROUP_POOL = ["cyclic:2", "cyclic:5", "cyclic:6", "dihedral:3", "product:cyclic:2,cyclic:2"]


def functions_on(spec: str) -> st.SearchStrategy[GroupFunction]:
    group = build_group(spec)
    return st.builds(
        lambda vals: GroupFunction.from_values(group, vals),
        st.lists(rationals(), min_size=group.order, max_size=group.order),
    )


class TestConvolution:
    def test_hand_computed_cyclic_2(self):
        # (f*K)(0) = f(0)K(0) + f(1)K(1) = 2*3 + 5*1 = 11
        # (f*K)(1) = f(1)K(0) + f(0)K(1) = 5*3 + 2*1 = 17
        g = build_group("cyclic:2")
        f = GroupFunction.from_values(g, [2, 5])
        k = GroupFunction.from_values(g, [3, 1])
        out = convolve(f, k, counting_measure(g))
        assert out.values == (Fraction(11), Fraction(17))

    def test_identity_indicator_is_two_sided_unit(self):
        g = build_group("dihedral:3")
        delta = indicator(g, g.identity)
        mu = counting_measure(g)
        f = GroupFunction.from_values(g, [Fraction(i, 3) for i in range(6)])
        assert convolve(f, delta, mu).values == f.values
        assert convolve(delta, f, mu).values == f.values

    def test_mass_identity_counting_measure(self):
        g = build_group("cyclic:6")
        f = GroupFunction.from_values(g, [1, -2, 3, 0, 1, 1])
        k = GroupFunction.from_values(g, [2, 0, -1, 1, 0, 0])
        out = convolve(f, k, counting_measure(g))
        assert sum(out.values) == sum(f.values) * sum(k.values)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(GROUP_POOL), st.data())
    def test_translation_equivariance(self, spec, data):
        group = build_group(spec)
        f = data.draw(functions_on(spec))
        k = data.draw(functions_on(spec))
        mu = counting_measure(group)
        conv = convolve(f, k, mu)
        for a in group.elements():
            assert convolve(translate(f, a), k, mu).values == translate(conv, a).values

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bilinearity_in_kernel(self, data):
        spec = data.draw(st.sampled_from(GROUP_POOL))
        group = build_group(spec)
        f = data.draw(functions_on(spec))
        k1 = data.draw(functions_on(spec))
        k2 = data.draw(functions_on(spec))
        a = data.draw(rationals())
        b = data.draw(rationals())
        mu = counting_measure(group)
        combined = GroupFunction.from_values(
            group, [a * x + b * y for x, y in zip(k1.values, k2.values)]
        )
        lhs = convolve(f, combined, mu)
        c1, c2 = convolve(f, k1, mu), convolve(f, k2, mu)
        assert lhs.values == tuple(
            a * x + b * y for x, y in zip(c1.values, c2.values)
        )

    def test_group_mismatch_rejected(self):
        f = GroupFunction.from_values(build_group("cyclic:3"), [1, 2, 3])
        k = GroupFunction.from_values(build_group("cyclic:4"), [1, 2, 3, 4])
        with pytest.raises(ValueError):
            convolve(f, k, counting_measure(f.group))

    def test_groups_of_one_order_are_told_apart(self):
        for specs in (["cyclic:4", "product:cyclic:2,cyclic:2"],
                      ["cyclic:6", "dihedral:3", "product:cyclic:2,cyclic:3"]):
            groups = [build_group(spec) for spec in specs]
            for g in groups:
                f = GroupFunction.from_values(g, range(g.order))
                for h in groups:
                    k = GroupFunction.from_values(h, [1] + [0] * (h.order - 1))
                    if g is h:
                        assert convolve(f, k, counting_measure(g)).values == f.values
                        continue
                    with pytest.raises(ValueError, match="group mismatch"):
                        convolve(f, k, counting_measure(g))
                    with pytest.raises(ValueError, match="group mismatch"):
                        convolve(f, f, counting_measure(h))

    def test_a_function_read_back_convolves_with_the_original(self):
        for spec in GROUP_POOL:
            group = build_group(spec)
            f = GroupFunction.from_values(group, [Fraction(i, 3) for i in range(group.order)])
            back = group_function_from_json(json.loads(json.dumps(group_function_to_json(f))))
            assert back.group is not group and back.values == f.values
            mu = counting_measure(back.group)
            assert convolve(f, back, mu).values == convolve(back, f, mu).values == (
                convolve(f, f, mu).values)


class TestTranslation:
    def test_cyclic_shift(self):
        g = build_group("cyclic:3")
        f = GroupFunction.from_values(g, [1, 2, 3])
        assert translate(f, 1).values == (Fraction(2), Fraction(3), Fraction(1))

    def test_composition_law(self):
        g = build_group("dihedral:4")
        f = GroupFunction.from_values(g, list(range(8)))
        for a in g.elements():
            for b in g.elements():
                assert (
                    translate(translate(f, b), a).values
                    == translate(f, g.mul(b, a)).values
                )

    def test_identity_translation(self):
        g = build_group("cyclic:5")
        f = GroupFunction.from_values(g, [1, 0, 2, 0, 3])
        assert translate(f, g.identity).values == f.values


class TestValuesAndMeasures:
    def test_floats_rejected(self):
        g = build_group("cyclic:2")
        for x in (0.5, 1.0, float("inf")):
            for make in (
                lambda: GroupFunction.from_values(g, [x, 1]),
                lambda: GroupFunction.from_values(g, [x] * g.order),
            ):
                with pytest.raises(TypeError, match="exact rationals"):
                    make()

    def test_a_fraction_is_kept_and_other_rationals_convert(self):
        class Half(Fraction):
            pass

        g = build_group("cyclic:4")
        f = GroupFunction.from_values(g, [Fraction(2, 3), 2, True, Half(1, 2)])
        assert (f.nums, f.den) == ((4, 12, 6, 3), 6)
        assert [type(x) for x in f.nums] == [int] * 4
        assert [type(v) for v in f.values] == [Fraction] * 4
        assert f.values == (Fraction(2, 3), 2, 1, Fraction(1, 2))

    def test_a_string_value_is_refused(self):
        g = build_group("cyclic:2")
        with pytest.raises(TypeError, match="must be int or Fraction, got str"):
            GroupFunction.from_values(g, [1, "1/2"])

    def test_integers_and_strings_of_values_coerce(self):
        g = build_group("cyclic:2")
        f = GroupFunction.from_values(g, [1, Fraction(1, 2)])
        assert f.values == (1, Fraction(1, 2))

    def test_wrong_length_rejected(self):
        g = build_group("cyclic:3")
        with pytest.raises(ValueError):
            GroupFunction.from_values(g, [1, 2])

    def test_the_constructor_makes_the_denominator_least(self):
        g = build_group("cyclic:3")
        f = GroupFunction(g, (2, 4, 6), 2)
        assert (f.nums, f.den) == ((1, 2, 3), 1)
        f = GroupFunction(g, [3, -9, 0], 12)
        assert (f.nums, f.den) == ((1, -3, 0), 4)
        zero = GroupFunction(g, (0, 0, 0), 7)
        assert (zero.nums, zero.den) == ((0, 0, 0), 1)
        assert GroupFunction(g, (1, 2, 4), 6).den == 6  # already least

    def test_the_constructor_refuses_a_denominator_below_one(self):
        g = build_group("cyclic:3")
        for den in (0, -1, -6):
            with pytest.raises(ValueError, match="denominator must be at least 1"):
                GroupFunction(g, (1, 2, 3), den)
        with pytest.raises(ValueError, match="2 values for a group of order 3"):
            GroupFunction(g, (1, 2), 1)

    def test_support(self):
        g = build_group("cyclic:4")
        f = GroupFunction.from_values(g, [0, 3, 0, -1])
        assert f.support() == [1, 3]

    def test_indicator(self):
        g = build_group("cyclic:4")
        assert indicator(g, 2).values == (0, 0, 1, 0)
        with pytest.raises(ValueError, match="element index 4 out of range for cyclic:4"):
            indicator(g, g.order)
