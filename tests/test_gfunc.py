"""Exact function algebra: convolution, translation, measures."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshatter.gfunc import (
    GroupFunction,
    Measure,
    constant,
    convolve,
    counting_measure,
    indicator,
    translate,
)
from gshatter.groups import build_group, product_group, table_group


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
        assert out.total() == f.total() * k.total()

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
        combined = GroupFunction(
            group, tuple(a * x + b * y for x, y in zip(k1.values, k2.values))
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

    def test_custom_tables_of_one_order_are_told_apart(self):
        # Both tables are labelled "table:4"; only their content differs.
        z4 = table_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
        klein = table_group([[a ^ b for b in range(4)] for a in range(4)])
        assert z4.label == klein.label == "table:4"
        f = GroupFunction.from_values(z4, [1, 2, 3, 4])
        k = GroupFunction.from_values(klein, [1, 0, 0, 5])
        with pytest.raises(ValueError, match="group mismatch"):
            convolve(f, k, counting_measure(z4))
        with pytest.raises(ValueError, match="group mismatch"):
            convolve(f, f, counting_measure(klein))
        same = table_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
        g = GroupFunction.from_values(same, [1, 0, 0, 0])
        assert convolve(f, g, counting_measure(z4)).values == f.values
        # The same explicit label does not make two tables one group.
        z4_named = table_group(z4.mul_table, label="g4")
        klein_named = table_group(klein.mul_table, label="g4")
        f = GroupFunction.from_values(z4_named, [1, 2, 3, 4])
        k = GroupFunction.from_values(klein_named, [1, 0, 0, 5])
        with pytest.raises(ValueError, match="group mismatch"):
            convolve(f, k, counting_measure(z4_named))

    def test_tables_never_pass_for_spec_groups(self):
        spec = build_group("cyclic:4")
        table = table_group(spec.mul_table, label="cyclic:4")
        f = GroupFunction.from_values(spec, [1, 2, 3, 4])
        k = GroupFunction.from_values(table, [1, 0, 0, 0])
        with pytest.raises(ValueError, match="group mismatch"):
            convolve(f, k, counting_measure(spec))
        # Products carry their factors' tables into their key.
        z4 = table_group(spec.mul_table)
        klein = table_group([[a ^ b for b in range(4)] for a in range(4)])
        p1 = product_group(z4, spec)
        p2 = product_group(klein, spec)
        assert p1.label == p2.label
        f = GroupFunction.from_values(p1, range(16))
        k = GroupFunction.from_values(p2, range(16))
        with pytest.raises(ValueError, match="group mismatch"):
            convolve(f, k, counting_measure(p1))
        # Spec groups built twice are one group.
        again = build_group("cyclic:4")
        k = GroupFunction.from_values(again, [1, 0, 0, 0])
        assert convolve(GroupFunction.from_values(spec, [1, 2, 3, 4]), k,
                        counting_measure(again)).values == tuple(
            Fraction(v) for v in (1, 2, 3, 4))


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
                lambda: Measure.from_weights(g, [x, 1]),
                lambda: constant(g, x),
            ):
                with pytest.raises(TypeError, match="exact rationals"):
                    make()

    def test_a_fraction_is_kept_and_other_rationals_convert(self):
        class Half(Fraction):
            pass

        g = build_group("cyclic:4")
        x = Fraction(2, 3)
        f = GroupFunction.from_values(g, [x, 2, True, Half(1, 2)])
        assert f.values[0] is x
        assert [type(v) for v in f.values] == [Fraction] * 4
        assert f.values == (Fraction(2, 3), 2, 1, Fraction(1, 2))

    def test_integers_and_strings_of_values_coerce(self):
        g = build_group("cyclic:2")
        f = GroupFunction.from_values(g, [1, Fraction(1, 2)])
        assert f(0) == 1 and f(1) == Fraction(1, 2)

    def test_wrong_length_rejected(self):
        g = build_group("cyclic:3")
        with pytest.raises(ValueError):
            GroupFunction.from_values(g, [1, 2])

    def test_measure_must_be_nonnegative(self):
        g = build_group("cyclic:2")
        with pytest.raises(ValueError, match="non-negative"):
            Measure.from_weights(g, [1, -1])

    def test_a_negative_weight_is_named_before_the_mass(self):
        g = build_group("cyclic:3")
        with pytest.raises(ValueError, match="non-negative"):
            Measure.from_weights(g, [0, -1, 0])

    def test_measure_must_have_positive_mass(self):
        g = build_group("cyclic:2")
        with pytest.raises(ValueError, match="positive total mass"):
            Measure.from_weights(g, [0, 0])
        assert Measure.from_weights(g, [0, Fraction(1, 9)]).weights[1] == Fraction(1, 9)

    def test_support(self):
        g = build_group("cyclic:4")
        f = GroupFunction.from_values(g, [0, 3, 0, -1])
        assert f.support() == [1, 3]

    def test_indicator_and_constant(self):
        g = build_group("cyclic:4")
        assert indicator(g, 2).values == (0, 0, 1, 0)
        assert constant(g, Fraction(1, 2)).total() == 2
