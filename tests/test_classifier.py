"""The two-bias classifier, its affine profile and the induced rankings."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gshatter.classifier import build_nu_profiles, classify, ranking_of_values
from gshatter.gfunc import GroupFunction, counting_measure, indicator
from gshatter.groups import build_group
from gshatter.orders import is_strict

from references import nu, piece_lists, profile_value, table_value, translate


def rationals(max_den: int = 8, max_num: int = 16) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def _instance(group, f_values, k_values):
    f = GroupFunction.from_values(group, f_values)
    k = GroupFunction.from_values(group, k_values)
    return f, k, counting_measure(group)


class TestNu:
    # With K the identity indicator the convolution is f itself, so these
    # values can all be read off by hand.
    def test_hand_values(self):
        g = build_group("cyclic:3")
        f, k, _ = _instance(g, [1, -1, 2], [1, 0, 0])
        assert nu(k, f, Fraction(0)) == 3  # ReLU terms 1 + 0 + 2
        assert nu(k, f, Fraction(-2)) == 0  # everything clipped
        assert nu(k, f, Fraction(-3, 2)) == Fraction(1, 2)  # only f=2 survives

    def test_zero_threshold_counts_as_negative(self):
        g = build_group("cyclic:3")
        f, k, mu = _instance(g, [1, -1, 2], [1, 0, 0])
        # nu = 3 at c1 = 0, so c2 = -3 lands exactly on zero.
        assert classify(k, f, mu, Fraction(0), Fraction(-3)) == -1
        assert classify(k, f, mu, Fraction(0), Fraction(-2)) == 1
        assert classify(k, f, mu, Fraction(0), Fraction(-4)) == -1

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_nondecreasing_and_convex(self, data):
        g = build_group("cyclic:5")
        f = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(5)])
        k = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(5)])
        c = data.draw(rationals(max_num=32))
        d = data.draw(rationals(max_num=8).filter(lambda x: x > 0))
        lo, mid, hi = nu(k, f, c - d), nu(k, f, c), nu(k, f, c + d)
        assert lo <= mid <= hi
        assert lo + hi >= 2 * mid


class TestNuProfile:
    def test_breakpoints_and_slopes(self):
        g = build_group("cyclic:3")
        f, k, _ = _instance(g, [1, -1, 2], [1, 0, 0])
        profile = build_nu_profiles(k, [f])[0]
        # conv = f = (1, -1, 2) so breakpoints at -2 < -1 < 1
        assert profile.den == 1
        breakpoints, slopes, _ = piece_lists(profile, profile.den)
        assert breakpoints == [-2, -1, 1]
        assert slopes == [0, 1, 2, 3]
        assert profile_value(profile, Fraction(0)) == 3
        assert table_value(profile, Fraction(0)) == 3

    def test_values_share_one_denominator(self):
        g = build_group("cyclic:3")
        f = GroupFunction.from_values(g, [Fraction(1, 2), Fraction(-1, 3), 2])
        k = indicator(g, 0)
        profile = build_nu_profiles(k, [f])[0]
        # conv = f = (1/2, -1/3, 2) over den 6; xs sorted, masses its suffix sums.
        assert (profile.nums, profile.den) == ((3, -2, 12), 6)
        assert (profile.xs, profile.masses) == ([-2, 3, 12], [13, 15, 12, 0])
        # Each piece's slope counts its active terms; on t = 6c the
        # breakpoints are -x and the offsets the suffix sums.
        assert list(profile.pieces()) == [(-12, 1, 12), (-3, 2, 15), (2, 3, 13)]
        assert table_value(profile, Fraction(0)) == Fraction(5, 2)

    def test_constant_convolution_single_breakpoint(self):
        g = build_group("cyclic:4")
        f = k = GroupFunction.from_values(g, [1] * g.order)
        profile = build_nu_profiles(k, [f])[0]
        breakpoints, slopes, _ = piece_lists(profile, profile.den)
        assert breakpoints == [-4]
        assert slopes == [0, 4]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_profile_matches_direct_evaluation(self, data):
        spec = data.draw(st.sampled_from(["cyclic:4", "cyclic:7", "dihedral:3"]))
        g = build_group(spec)
        n = g.order
        f = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(n)])
        k = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(n)])
        profile = build_nu_profiles(k, [f])[0]
        for _ in range(6):
            c = data.draw(rationals(max_den=16, max_num=48))
            assert profile_value(profile, c) == nu(k, f, c)
        # including exactly at each breakpoint
        for bp in piece_lists(profile, profile.den)[0]:
            c = Fraction(bp, profile.den)
            assert profile_value(profile, c) == nu(k, f, c)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_last_piece_counts_every_term(self, data):
        # Past the largest breakpoint every term is active: slope n, and
        # the offset is the sum of the convolution.
        g = build_group(data.draw(st.sampled_from(["cyclic:1", "cyclic:6", "dihedral:3"])))
        f = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(g.order)])
        k = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(g.order)])
        profile = build_nu_profiles(k, [f])[0]
        *_, (t, slope, offset) = profile.pieces()
        assert t == -min(profile.nums)
        assert (slope, offset) == (g.order, sum(profile.nums))

    def test_keeps_its_convolution(self):
        g = build_group("cyclic:5")
        f = GroupFunction.from_values(g, [1, -2, 0, 3, Fraction(1, 2)])
        k = GroupFunction.from_values(g, [0, 1, 0, -1, 2])
        mu = counting_measure(g)
        from gshatter.gfunc import convolve

        profile = build_nu_profiles(k, [f])[0]
        conv = tuple(Fraction(x, profile.den) for x in profile.nums)
        assert conv == convolve(f, k, mu).values


def step_at(profile, c):
    """The step function c -> sum of (f*K)(g) over (f*K)(g) > -c."""
    breakpoints, _, offsets = piece_lists(profile, profile.den)
    piece = bisect_left(breakpoints, c * profile.den)
    return Fraction(offsets[piece], profile.den)


class TestStepFunction:
    # The step function is the profile's offsets, read piece by piece.
    def test_partial_sums(self):
        g = build_group("cyclic:3")
        f, k, _ = _instance(g, [1, 2, 0], [1, 0, 0])
        profile = build_nu_profiles(k, [f])[0]
        # conv values 2 > 1 > 0 activate in that order as c grows.
        breakpoints, _, offsets = piece_lists(profile, profile.den)
        assert breakpoints == [-2, -1, 0]
        assert offsets == [0, 2, 3, 3]

    def test_left_continuity_at_breakpoints(self):
        g = build_group("cyclic:3")
        f, k, _ = _instance(g, [1, 2, 0], [1, 0, 0])
        profile = build_nu_profiles(k, [f])[0]
        # At c = -2 the term with value 2 needs (f*K)(g) > 2: excluded.
        assert step_at(profile, Fraction(-2)) == 0
        assert step_at(profile, Fraction(-1)) == 2  # value 1 still excluded
        assert step_at(profile, Fraction(-1, 2)) == 3
        assert step_at(profile, Fraction(1)) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_at_most_n_plus_one_values(self, data):
        g = build_group("cyclic:6")
        f = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(6)])
        k = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(6)])
        profile = build_nu_profiles(k, [f])[0]
        offsets = piece_lists(profile, profile.den)[2]
        assert len(set(offsets)) <= g.order + 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_direct_sum(self, data):
        g = build_group("cyclic:5")
        from gshatter.gfunc import convolve

        f = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(5)])
        k = GroupFunction.from_values(g, [data.draw(rationals()) for _ in range(5)])
        mu = counting_measure(g)
        profile = build_nu_profiles(k, [f])[0]
        conv = convolve(f, k, mu)
        c = data.draw(rationals(max_den=16, max_num=48))
        direct = sum(
            (conv.values[g_] for g_ in range(5) if conv.values[g_] > -c),
            Fraction(0),
        )
        assert step_at(profile, c) == direct


class TestRankings:
    def test_rank_of_distinct_values(self):
        r = ranking_of_values([Fraction(7), Fraction(1), Fraction(4)])
        assert r == (3, 1, 2)
        assert is_strict(r)

    def test_ties_share_rank(self):
        r = ranking_of_values([Fraction(2), Fraction(2), Fraction(2)])
        assert r == (1, 1, 1)
        assert not is_strict(r)

    def test_partial_tie(self):
        r = ranking_of_values([Fraction(5), Fraction(5), Fraction(1)])
        assert r == (2, 2, 1)
        assert not is_strict(r)

    def test_ranking_is_strict_is_permutation_test(self):
        assert is_strict((2, 3, 1))
        assert not is_strict((1, 3, 3))
        assert is_strict((1,))


class TestClassifierInvariance:
    def test_translation_invariance_small_groups(self):
        for spec in ("cyclic:12", "dihedral:3", "product:cyclic:2,cyclic:3"):
            g = build_group(spec)
            n = g.order
            f = GroupFunction.from_values(
                g, [Fraction((3 * i + 1) % 7 - 3, 2) for i in range(n)]
            )
            k = GroupFunction.from_values(
                g, [Fraction((5 * i) % 4 - 1, 3) for i in range(n)]
            )
            mu = counting_measure(g)
            for c1 in (Fraction(-1), Fraction(0), Fraction(1, 2)):
                for c2 in (Fraction(-2), Fraction(0), Fraction(3)):
                    base = classify(k, f, mu, c1, c2)
                    for a in g.elements():
                        assert classify(k, translate(f, a), mu, c1, c2) == base
