"""Group construction, spec parsing and validation."""

from __future__ import annotations

import time
import tracemalloc
from itertools import permutations

import pytest

from gshatter.errors import GroupSpecError
from gshatter.groups import (
    MAX_PRODUCT_DEPTH,
    RANDOM_TRIPLE_SAMPLES,
    build_group,
    cyclic_group,
    dihedral_group,
    find_order_ge3_element,
    find_order_two_element,
    product_group,
    validate_group,
)


CLOSED_FORM_SPECS = [
    "cyclic:6", "dihedral:1", "dihedral:2", "dihedral:5",
    "product:dihedral:3,cyclic:4", "product:cyclic:2,product:cyclic:3,dihedral:2",
]


class TestConstruction:
    def test_cyclic_4(self):
        g = build_group("cyclic:4")
        assert g.order == 4
        assert g.identity == 0
        assert g.inv(1) == 3
        assert g.mul(3, 2) == 1

    def test_dihedral_3_is_smallest_nonabelian(self):
        g = build_group("dihedral:3")
        assert g.order == 6
        assert not validate_group(g).abelian
        assert any(
            g.mul(a, b) != g.mul(b, a)
            for a in range(6)
            for b in range(6)
        )

    def test_dihedral_1_is_order_two(self):
        g = dihedral_group(1)
        assert g.order == 2
        assert g.mul(1, 1) == 0

    def test_product_order(self):
        g = build_group("product:cyclic:2,cyclic:3")
        assert g.order == 6
        assert validate_group(g).abelian

    def test_product_of_2_and_3_is_cyclic_6(self):
        """Brute-force bijection search finds an isomorphism to cyclic:6."""
        prod = build_group("product:cyclic:2,cyclic:3")
        cyc = build_group("cyclic:6")
        found = None
        for perm in permutations(range(1, 6)):
            phi = (0,) + perm  # identity must map to identity
            if all(
                phi[prod.mul(a, b)] == cyc.mul(phi[a], phi[b])
                for a in range(6)
                for b in range(6)
            ):
                found = phi
                break
        assert found is not None

    def test_nested_product(self):
        g = build_group("product:product:cyclic:2,cyclic:2,cyclic:3")
        assert g.order == 12
        assert g.label == "product:product:cyclic:2,cyclic:2,cyclic:3"

    def test_determinism(self):
        a = build_group("dihedral:4")
        b = build_group("dihedral:4")
        assert a.mul_table == b.mul_table

    @pytest.mark.parametrize(
        "bad",
        ["", "cyclic:", "cyclic:0", "foo:3", "cyclic:4x",
         "product:cyclic:2", "product:cyclic:2;cyclic:3", "dihedral:-1",
         "cyclic:\u00b2", 5, None,
         pytest.param("cyclic:" + "9" * 5000, id="cyclic:5000-digits")],
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(GroupSpecError):
            build_group(bad)

    LONG = "9" * 5000

    @pytest.mark.parametrize("spec, message", [
        ("cyclic:", "expected an integer at position 7 in 'cyclic:'"),
        ("cyclic:4x", "trailing characters 'x' after group spec"),
        ("product:cyclic:2", "product spec needs ',' at position 16 in 'product:cyclic:2'"),
        ("foo:3", "unknown group spec at position 0 in 'foo:3'; "
                  "expected cyclic:N, dihedral:N or product:<spec>,<spec>"),
        (None, "a group spec must be a string, got None"),
        ("cyclic:" + LONG, "expected an integer at position 7 in 'cyclic:" + "9" * 49 + "..."),
        ("cyclic:4" + LONG.replace("9", "x"), "trailing characters '" + "x" * 56 + "... after group spec"),
        ([LONG], "a group spec must be a string, got ['" + "9" * 55 + "..."),
    ], ids=["no-digits", "trailing", "no-comma", "unknown", "not-a-string",
            "long-digits", "long-trailing", "long-not-a-string"])
    def test_spec_errors_quote_the_input_cut_short(self, spec, message):
        with pytest.raises(GroupSpecError) as caught:
            build_group(spec)
        assert str(caught.value) == message

    def test_spec_string_round_trip(self):
        assert build_group("product:cyclic:2,dihedral:3").label == (
            "product:cyclic:2,dihedral:3"
        )
        assert build_group("cyclic:007").label == "cyclic:7"

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
    def test_closed_forms_match_their_table(self, spec):
        """Each spec group's identity and inverses are the ones its table defines."""
        g = build_group(spec)
        table = g.mul_table
        elements = list(g.elements())
        assert [e for e in elements
                if all(table[e][x] == x == table[x][e] for x in elements)] == [g.identity]
        for x in elements:
            assert [y for y in elements if table[x][y] == g.identity] == [g.inv(x)]
            assert table[g.inv(x)][x] == g.identity
        assert validate_group(g).passed

    @pytest.mark.parametrize(
        "spec, order",
        [("cyclic:1000000000", 10**9),
         ("product:dihedral:500000000,cyclic:1000000000", 10**18)],
    )
    def test_huge_groups_are_built_at_once(self, spec, order):
        # Spec groups store no table, so their size costs neither time nor memory.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            g = build_group(spec)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.order == order
        assert g.mul(g.inv(123456789), 123456789) == g.identity
        assert elapsed < 0.5
        assert peak < 100_000


def nested_product(depth: int) -> str:
    """A spec nesting `depth` product specs, each of order 1."""
    return "product:" * depth + "cyclic:1" + ",cyclic:1" * depth


class TestNestingLimit:
    def test_deepest_allowed_spec_builds_and_validates(self):
        g = build_group(nested_product(MAX_PRODUCT_DEPTH))
        assert g.order == 1
        assert g.label == nested_product(MAX_PRODUCT_DEPTH)
        assert validate_group(g).passed  # mul and inv recurse through every level

    @pytest.mark.parametrize(
        "spec",
        [nested_product(MAX_PRODUCT_DEPTH + 1),
         "product:cyclic:1," * (MAX_PRODUCT_DEPTH + 1) + "cyclic:1",
         nested_product(990)],
        ids=["left", "right", "990-levels"],
    )
    def test_deeper_specs_are_spec_errors(self, spec):
        with pytest.raises(GroupSpecError, match="nest deeper than"):
            build_group(spec)


class TestElementQueries:
    def test_involutions(self):
        assert find_order_two_element(build_group("cyclic:4")) == 2
        assert find_order_two_element(build_group("cyclic:81")) is None
        g = build_group("dihedral:3")
        t = find_order_two_element(g)
        assert t is not None and t != g.identity
        assert g.mul(t, t) == g.identity

    def test_involution_exists_iff_even_order_cyclic(self):
        for n in range(1, 201):
            g = cyclic_group(n)
            found = find_order_two_element(g)
            assert (found is not None) == (n % 2 == 0)
            if found is not None:
                assert found == n // 2

    def test_order_ge3_elements(self):
        assert find_order_ge3_element(build_group("cyclic:81")) == 1
        assert find_order_ge3_element(build_group("cyclic:2")) is None
        assert find_order_ge3_element(build_group("cyclic:48")) == 1

    def test_element_order_divides_group_order(self):
        g = build_group("dihedral:6")
        for x in g.elements():
            assert g.power(x, g.order) == g.identity
            assert g.mul(g.power(x, -1), x) == g.identity


class TestValidation:
    @pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:4", "product:cyclic:3,cyclic:4"])
    def test_valid_groups_pass(self, spec):
        report = validate_group(build_group(spec))
        assert report.passed
        assert report.exhaustive

    def test_exhaustive_up_to_order_128_and_sampled_above(self):
        # Exhaustive associativity is n^3 triples: about a second at 128.
        assert validate_group(build_group("cyclic:128")).exhaustive
        report = validate_group(build_group("cyclic:129"))
        assert report.passed
        assert not report.exhaustive

    def test_corrupted_table_flags_associativity(self):
        table = [list(row) for row in cyclic_group(4).mul_table]
        table[1][1] = 3
        broken = cyclic_group(4)._replace(mul=lambda a, b: table[a][b])
        report = validate_group(broken)
        assert not report.associativity
        assert any("associativity" in f for f in report.failures)

    def test_translations_are_permutations(self):
        for spec in ("cyclic:7", "dihedral:5"):
            g = build_group(spec)
            for a in g.elements():
                assert sorted(g.mul(a, h) for h in g.elements()) == list(
                    g.elements()
                )

    def test_one_sided_table_rejected(self):
        # A left-neutral row without the matching column has no identity.
        table = [[0, 1], [0, 1]]
        report = validate_group(cyclic_group(2)._replace(mul=lambda a, b: table[a][b]))
        assert not report.identity
        assert "identity: e does not act neutrally" in report.failures

    def test_one_sided_inverse_rejected(self):
        # 0 is the identity; 1*2 = 0 but 2*1 = 1, so 2 is only a one-sided
        # inverse of 1.
        table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        report = validate_group(cyclic_group(3)._replace(mul=lambda a, b: table[a][b]))
        assert report.identity and not report.inverses
        assert "inverses: some g lacks a two-sided inverse" in report.failures

    def test_corrupted_closed_form_is_flagged(self):
        g = cyclic_group(6)._replace(mul=lambda a, b: (a + b) % 7)
        report = validate_group(g)
        assert not report.closure
        assert report.failures[0].startswith("closure")

    # cyclic:6 with some products changed; each maps a pair (a, b) to its
    # new product.  Row and column 0 stay intact and no product g * g^-1
    # changes, so identity and inverses hold.
    CORRUPTED_ROWS = {
        # Row 5 is 5, 0, 1, 2, 3, 10: distinct, one product too large.
        "one-too-large": ({(5, 5): 10}, False, True),
        # Row 2 is 2, 3, 4, -1, 0, 1: distinct, one product negative.
        "one-negative": ({(2, 3): -1}, False, True),
        # Row 4 is 4, 5, 0, 1, 2, 0: in range, 0 twice and 3 missing.
        "in-range-repeat": ({(4, 5): 0}, True, False),
        # Row 5 is 5, 0, 1, 2, 9, 5: 9 out of range and 5 twice.
        "both-in-one-row": ({(5, 4): 9, (5, 5): 5}, False, False),
        # Row 1 has 7 among distinct products; row 3 repeats 1.
        "both-in-two-rows": ({(1, 2): 7, (3, 5): 1}, False, False),
    }

    @pytest.mark.parametrize("changes, closure, bijective", CORRUPTED_ROWS.values(),
                             ids=CORRUPTED_ROWS.keys())
    def test_rows_off_the_element_set(self, changes, closure, bijective):
        base = cyclic_group(6)
        g = base._replace(mul=lambda a, b: changes.get((a, b), base.mul(a, b)))
        report = validate_group(g)
        assert (report.closure, report.translations_bijective) == (closure, bijective)
        assert report.identity and report.inverses and report.exhaustive
        # Every change breaks some triple, which the exhaustive check finds.
        assert not report.associativity
        assert report.abelian == pairwise_abelian(g)
        expected = (
            ([] if closure else ["closure: table entry out of range"])
            + ["associativity"]
            + ([] if bijective else ["translation: left multiplication not bijective"])
        )
        assert [f.split(":")[0] if f.startswith("associativity:") else f
                for f in report.failures] == expected


def pairwise_abelian(g) -> bool:
    """The definition: every pair of elements commutes."""
    return all(g.mul(a, b) == g.mul(b, a) for a in g.elements() for b in g.elements())


def last_pair_swapped(n: int):
    """cyclic:n with mul(n-2, n-1) changed, so (n-2, n-1) alone fails to
    commute and only the last rows can tell."""
    base = cyclic_group(n)
    return base._replace(mul=lambda a, b: 0 if (a, b) == (n - 2, n - 1) else base.mul(a, b))


class TestCommutativity:
    @pytest.mark.parametrize(
        "group",
        # CLOSED_FORM_SPECS has dihedral:1 and dihedral:2 already.
        # z4 is cyclic:4 and klein the Klein four-group, cyclic:2 squared.
        [build_group(s) for s in CLOSED_FORM_SPECS
         + ["cyclic:1", "dihedral:3", "cyclic:4", "product:cyclic:2,cyclic:2"]],
        ids=CLOSED_FORM_SPECS + ["cyclic:1", "dihedral:3", "z4", "klein"],
    )
    def test_report_matches_the_definition(self, group):
        assert validate_group(group).abelian == pairwise_abelian(group)

    def test_last_rows_decide(self):
        g = last_pair_swapped(12)
        assert not pairwise_abelian(g)
        assert not validate_group(g).abelian

    def test_one_pass_over_the_products(self):
        # n^2 products for the rows, n(n-1)/2 for the column tails, 4n for
        # identity and inverses and 4 per sampled triple: the n^2 walk
        # happens once.
        base, calls = cyclic_group(200), []

        def counting(a, b):
            calls.append(None)
            return base.mul(a, b)

        n = base.order
        report = validate_group(base._replace(mul=counting))
        assert report.passed and report.abelian and not report.exhaustive
        assert len(calls) == n * n + n * (n - 1) // 2 + 4 * n + 4 * RANDOM_TRIPLE_SAMPLES
        assert len(calls) == 100_700
