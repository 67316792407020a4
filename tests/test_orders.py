"""Peeling maps and minimal complete sets of orders."""

from __future__ import annotations

import re
from itertools import combinations, product
from math import comb

import pytest

import gshatter.orders
from gshatter.orders import (
    OrderSet,
    _ranking_for,
    build_complete_orders,
    completeness_lower_bound,
    f_map,
    is_complete,
    is_strict,
    mask_elements,
    peel_chain,
    separated_masks,
)

from references import chain_ranks, recursive_f_map, sigma_ranking_for


def mask_from_elements(elements) -> int:
    """The bitmask of 1-based elements: bit e - 1 stands for element e."""
    return sum(1 << (e - 1) for e in elements)


def subsets_of_size(q: int, m: int) -> list[int]:
    return [mask_from_elements(c) for c in combinations(range(1, m + 1), q)]


class TestMasks:
    def test_round_trip(self):
        for elems in ([1], [2, 5], [1, 2, 3], [7]):
            assert mask_elements(mask_from_elements(elems)) == elems


class TestBaseMap:
    """F at m = 2q - 1, where it is a bijection S(q, 2q-1) -> S(q-1, 2q-1)."""

    def test_q2_table(self):
        # On the universe {1,2,3}: {1,2} -> {2}, {1,3} -> {1}, {2,3} -> {3}.
        assert f_map(2, 3, mask_from_elements([1, 2])) == mask_from_elements([2])
        assert f_map(2, 3, mask_from_elements([1, 3])) == mask_from_elements([1])
        assert f_map(2, 3, mask_from_elements([2, 3])) == mask_from_elements([3])

    def test_q1_singleton_to_empty(self):
        assert f_map(1, 1, mask_from_elements([1])) == 0

    def test_suffix_interval_loses_minimum(self):
        # {3,4,5} in the universe {1,...,5} has no removable pair.
        assert f_map(3, 5, mask_from_elements([3, 4, 5])) == mask_from_elements(
            [4, 5]
        )

    @pytest.mark.parametrize("q", range(1, 7))
    def test_bijective(self, q):
        m = 2 * q - 1
        images = [f_map(q, m, a) for a in subsets_of_size(q, m)]
        assert sorted(images) == sorted(subsets_of_size(q - 1, m))

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError):
            f_map(2, 3, mask_from_elements([1]))


class TestGeneralMap:
    def test_reduces_to_base(self):
        assert f_map(2, 3, mask_from_elements([1, 3])) == mask_from_elements([1])

    def test_containment_exhaustive(self):
        for m in range(1, 11):
            for q in range(1, m + 1):
                for a in subsets_of_size(q, m):
                    image = f_map(q, m, a)
                    assert image & ~a == 0
                    assert image.bit_count() == q - 1

    def test_injective_and_surjective_regimes(self):
        for m in range(1, 9):
            for q in range(1, m + 1):
                images = [f_map(q, m, a) for a in subsets_of_size(q, m)]
                if comb(m, q) <= comb(m, q - 1):
                    assert len(set(images)) == len(images)
                if comb(m, q) >= comb(m, q - 1):
                    assert set(images) == set(subsets_of_size(q - 1, m))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            f_map(0, 3, 0)


class TestRecursiveReference:
    """F against its recursive definition, kept in tests/references.py."""

    def test_every_subset_up_to_m12(self):
        for m in range(1, 13):
            for q in range(1, m + 1):
                for a in subsets_of_size(q, m):
                    assert f_map(q, m, a) == recursive_f_map(q, m, a), (q, m, a)

    @pytest.mark.parametrize(
        "q, m, mask",
        [(0, 3, 0), (-1, 3, 0), (1, 0, 0), (4, 3, 0b111), (1, 3, 0b1000), (2, 3, 0b1)],
    )
    def test_same_errors(self, q, m, mask):
        with pytest.raises(ValueError) as got:
            f_map(q, m, mask)
        with pytest.raises(ValueError) as want:
            recursive_f_map(q, m, mask)
        assert str(got.value) == str(want.value)

    def test_same_order_sets_up_to_m14(self, monkeypatch):
        built = [build_complete_orders(m).rankings for m in range(1, 15)]
        monkeypatch.setattr(gshatter.orders, "f_map", recursive_f_map)
        for m, rankings in enumerate(built, 1):
            assert build_complete_orders(m).rankings == rankings, m


class TestPeeling:
    def test_chain_shape(self):
        m, a = 6, mask_from_elements([2, 3, 6])
        chain = peel_chain(a, m)
        assert len(chain) == 4
        assert chain[0] == a and chain[-1] == 0
        for big, small in zip(chain, chain[1:]):
            assert small & ~big == 0
            assert big.bit_count() - small.bit_count() == 1

    def test_sigma_tilde_tracks_survivors(self):
        for m in range(1, 11):
            for q in range(1, m + 1):
                for a in subsets_of_size(q, m):
                    chain = peel_chain(a, m)
                    st = chain_ranks(chain)
                    assert sorted(st.values()) == list(range(1, q + 1))
                    for k in range(q + 1):
                        survivors = mask_from_elements(
                            [e for e, rank in st.items() if rank > k]
                        )
                        assert survivors == chain[k]

    def test_same_order_sets_as_sigma_tilde_up_to_m14(self, monkeypatch):
        """Rankings read off the chains upward equal those from sigma~."""
        built = [build_complete_orders(m).rankings for m in range(1, 15)]
        monkeypatch.setattr(gshatter.orders, "_ranking_for", sigma_ranking_for)
        for m, rankings in enumerate(built, 1):
            assert build_complete_orders(m).rankings == rankings, m

    def test_ranking_separates_both_chains(self):
        """For every A: strict, with A's chain sets and A joined with each
        of its complement's chain sets all bottom prefixes."""
        for m in range(1, 11):
            full = (1 << m) - 1
            for a in range(full + 1):
                ranking = _ranking_for(peel_chain(a, m), m)
                assert is_strict(ranking), (m, a)
                prefixes = separated_masks(ranking)
                assert set(peel_chain(a, m)) <= prefixes, (m, a)
                assert {a | c for c in peel_chain(full & ~a, m)} <= prefixes, (m, a)


class TestSeparation:
    def test_prefixes_of_strict_ranking(self):
        r = (2, 3, 1)  # element 3 lowest, then 1, then 2
        assert separated_masks(r) == {
            0,
            mask_from_elements([3]),
            mask_from_elements([1, 3]),
            mask_from_elements([1, 2, 3]),
        }

    def test_tied_ranking_separates_only_trivial(self):
        assert separated_masks((1, 1)) == {0, 3}

    @pytest.mark.parametrize("m", range(5))
    def test_every_ranking_matches_the_definition(self, m):
        """Ranks 0..m+1 in every position: ties and ranks outside 1..m too.

        A strict ranking (a permutation of 1..m) separates each subset it
        ranks strictly below its complement; any other, only 0 and [m]."""
        full = (1 << m) - 1
        for ranking in product(range(m + 2), repeat=m):
            if set(ranking) == set(range(1, m + 1)):
                expected = {
                    mask for mask in range(full + 1)
                    if all(ranking[i] < ranking[j]
                           for i in range(m) if mask >> i & 1
                           for j in range(m) if not mask >> j & 1)
                }
            else:
                expected = {0, full}
            assert separated_masks(ranking) == expected, ranking

    def test_single_ranking_incomplete_at_m2(self):
        assert not is_complete(OrderSet(2, ((1, 2),)))
        assert is_complete(OrderSet(2, ((1, 2), (2, 1))))

    def test_empty_set_incomplete(self):
        assert not is_complete(OrderSet(2, ()))

    def test_a_ranking_of_another_length_is_refused(self):
        with pytest.raises(ValueError, match=re.escape("ranking (1,) does not have length m=2")):
            OrderSet(2, ((1,),))


class TestCompleteOrders:
    def test_lower_bound_values(self):
        assert completeness_lower_bound(1) == 1
        assert completeness_lower_bound(4) == 6
        assert completeness_lower_bound(6) == 20

    def test_m1_and_m2(self):
        assert build_complete_orders(1).rankings == ((1,),)
        assert set(build_complete_orders(2).rankings) == {
            (1, 2),
            (2, 1),
        }

    @pytest.mark.parametrize("m", range(1, 9))
    def test_minimal_and_complete(self, m):
        orders = build_complete_orders(m)
        assert len(orders.rankings) == completeness_lower_bound(m)
        assert is_complete(orders)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_middle_prefixes_all_distinct(self, m):
        # Minimality is tight: each ranking is the unique separator of its
        # bottom floor(m/2)-prefix, so those prefixes must enumerate the
        # whole middle layer.
        orders = build_complete_orders(m)
        prefixes = set()
        for r in orders.rankings:
            by_rank = sorted(range(m), key=r.__getitem__)
            prefixes.add(sum(1 << i for i in by_rank[: m // 2]))
        assert len(prefixes) == comb(m, m // 2)

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            build_complete_orders(0)
