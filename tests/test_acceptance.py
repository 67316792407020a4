"""Acceptance checklist: one test per shipped guarantee.

Each test is self-contained evidence for one headline property of the
package, from end-to-end kernel synthesis with exact shattering
certificates down to the closed-form dimension bounds.  Run with
``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from gshatter.bounds import (
    lower_bound_at_most,
    required_group_size,
    upper_bound_implicit,
    upper_bound_refined,
)
from gshatter.classifier import NuProfile, build_nu_profiles, classify
from gshatter.cli import main
from gshatter.gfunc import GroupFunction, counting_measure
from gshatter.groups import build_group
from gshatter.jsonio import (
    certificate_from_json,
    function_family_from_json,
    group_function_from_json,
    read_json,
    synth_result_from_json,
)
from gshatter.orders import (
    build_complete_orders,
    completeness_lower_bound,
    f_map,
    is_complete,
    is_strict,
)
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


@dataclass
class Bundle:
    """One synthesized pipeline output plus its wall-clock cost."""

    group_spec: str
    m: int
    mode: str
    out_dir: Path
    elapsed: float

    @property
    def kernel(self) -> GroupFunction:
        return group_function_from_json(read_json(self.out_dir / "kernel.json"))

    def family(self, group) -> list[GroupFunction]:
        return function_family_from_json(
            read_json(self.out_dir / "functions.json"), group
        )

    def certificate(self):
        return certificate_from_json(
            read_json(self.out_dir / "shatter_certificate.json")
        )

    def result(self):
        return synth_result_from_json(read_json(self.out_dir / "synth_result.json"))


PIPELINES = (
    ("cyclic:18", 3, "order_two", 10.0),
    ("cyclic:48", 4, "order_two", 120.0),
    ("cyclic:81", 3, "general", 60.0),
)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory) -> dict[tuple[str, int], Bundle]:
    out: dict[tuple[str, int], Bundle] = {}
    for spec, m, mode, _budget in PIPELINES:
        directory = tmp_path_factory.mktemp(f"synth_m{m}_{spec.replace(':', '_')}")
        t0 = time.perf_counter()
        code = main(
            [
                "synth",
                "--group", spec,
                "--m", str(m),
                "--mode", mode,
                "--out-dir", str(directory),
            ]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0, f"synth exited {code} for m={m} on {spec}"
        out[(spec, m)] = Bundle(spec, m, mode, directory, elapsed)
    return out


def random_instances(seed: int, count: int):
    """Instances with group order <= 12, m <= 3, denominators <= 8."""
    rng = random.Random(seed)
    groups = [
        build_group(s)
        for s in [f"cyclic:{n}" for n in range(2, 13)]
        + [
            "dihedral:2",
            "dihedral:3",
            "dihedral:4",
            "dihedral:5",
            "dihedral:6",
            "product:cyclic:2,cyclic:2",
            "product:cyclic:2,cyclic:3",
            "product:cyclic:3,cyclic:3",
            "product:cyclic:2,cyclic:6",
        ]
    ]

    for _ in range(count):
        g = rng.choice(groups)
        m = rng.randint(1, 3)

        def values():
            return [
                Fraction(rng.randint(-16, 16), rng.randint(1, 8))
                for _ in range(g.order)
            ]

        kernel = GroupFunction.from_values(g, values())
        fs = [GroupFunction.from_values(g, values()) for _ in range(m)]
        yield kernel, fs, counting_measure(g)


def test_criterion_01_order_two_pipeline(bundles):
    """m=3 on cyclic:18 and m=4 on cyclic:48 shatter with exact witnesses."""
    for spec, m, budget in (("cyclic:18", 3, 10.0), ("cyclic:48", 4, 120.0)):
        bundle = bundles[(spec, m)]
        cert = bundle.certificate()
        assert cert.shattered
        assert cert.witnessed_count() == 2**m
        kernel = bundle.kernel
        fs = bundle.family(kernel.group)
        mu = counting_measure(kernel.group)
        for entry in cert.entries:
            assert entry.status == "witnessed"
            for f, want in zip(fs, entry.labels):
                assert classify(kernel, f, mu, entry.c1, entry.c2) == want
        assert bundle.elapsed < budget, (
            f"m={m} on {spec} took {bundle.elapsed:.2f}s (budget {budget}s)"
        )
        print(
            f"criterion 1: m={m} on {spec}: 2^{m} witnesses re-verified "
            f"in {bundle.elapsed:.2f}s (< {budget:.0f}s)"
        )


def test_criterion_02_general_pipeline(bundles):
    """m=3 on cyclic:81 without an involution shatters within a minute."""
    bundle = bundles[("cyclic:81", 3)]
    cert = bundle.certificate()
    assert cert.shattered and cert.witnessed_count() == 8
    kernel = bundle.kernel
    fs = bundle.family(kernel.group)
    mu = counting_measure(kernel.group)
    for entry in cert.entries:
        for f, want in zip(fs, entry.labels):
            assert classify(kernel, f, mu, entry.c1, entry.c2) == want
    assert bundle.elapsed < 60.0
    print(f"criterion 2: general mode in {bundle.elapsed:.2f}s (< 60s)")


def test_criterion_03_complete_order_suite():
    """Minimum complete order sets for every m up to 12, under 30 s."""
    t0 = time.perf_counter()
    for m in range(1, 13):
        orders = build_complete_orders(m)
        want = completeness_lower_bound(m)
        assert len(orders.rankings) == want
        assert is_complete(orders)  # exhaustive scan over all 2^m subsets
        prefixes = set()
        for r in orders.rankings:
            by_rank = sorted(range(m), key=r.__getitem__)
            prefixes.add(sum(1 << i for i in by_rank[: m // 2]))
        # Each ranking separates exactly one middle-layer subset, so
        # distinct prefixes certify that no smaller set could be complete.
        assert len(prefixes) == comb(m, m // 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 3: m=1..12 complete and minimal in {elapsed:.2f}s (< 30s)")


def test_criterion_04_peeling_map_suite():
    """Containment, injectivity/surjectivity regimes, base bijectivity."""
    t0 = time.perf_counter()
    for m in range(1, 13):
        for q in range(1, m + 1):
            images = []
            for combo in combinations(range(1, m + 1), q):
                a = sum(1 << (e - 1) for e in combo)
                image = f_map(q, m, a)
                assert image & ~a == 0
                assert image.bit_count() == q - 1
                images.append(image)
            if comb(m, q) <= comb(m, q - 1):
                assert len(set(images)) == len(images)
            if comb(m, q) >= comb(m, q - 1):
                assert len(set(images)) == comb(m, q - 1)
    for q in range(1, 7):
        universe = 2 * q - 1
        images = {
            f_map(q, universe, sum(1 << (e - 1) for e in combo))
            for combo in combinations(range(1, universe + 1), q)
        }
        assert len(images) == comb(universe, q - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 4: peeling maps verified through m=12 in {elapsed:.2f}s")


def test_criterion_05_order_criterion_equivalence():
    """Shattering iff the attained orders are complete, on 1000 instances."""
    t0 = time.perf_counter()
    shattered_count = 0
    total = 0
    for kernel, fs, mu in random_instances(seed=42, count=1000):
        verdict = is_shattered(kernel, fs, mu).shattered
        assert verdict == check_order_criterion(kernel, fs, mu)
        shattered_count += verdict
        total += 1
    elapsed = time.perf_counter() - t0
    assert total == 1000
    assert elapsed < 120.0
    print(
        f"criterion 5: 1000 instances agree ({shattered_count} shattered) "
        f"in {elapsed:.2f}s (< 120s)"
    )


def test_fast_paths_match_references_on_criterion_05_instances():
    """Convolution, critical set and witnesses equal their slow references."""
    from test_fast_paths import assert_matches_references

    for kernel, fs, mu in random_instances(seed=42, count=1000):
        assert_matches_references(kernel, fs, mu)


def test_nu_profile_scaled_above_its_own_scale_on_criterion_05_instances():
    """NuProfile.pieces on a family's one den, lcm(f.den ...) * K.den,
    equals the reference."""
    from references import fraction_build_nu_profile
    from test_fast_paths import assert_pieces_match_reference

    for kernel, fs, _ in random_instances(seed=42, count=1000):
        for f, p in zip(fs, build_nu_profiles(kernel, fs)):
            assert_pieces_match_reference(p, fraction_build_nu_profile(kernel, f))


def test_witness_recheck_matches_its_reference_on_criterion_05_instances():
    """certificate accepts and rejects what the per-witness re-check does."""
    from test_fast_paths import ROW_TAMPERS, assert_recheck_matches, tampered_rows

    outcomes = set()
    for kernel, fs, _ in random_instances(seed=42, count=1000):
        crit = critical_set(build_nu_profiles(kernel, fs))
        assert assert_recheck_matches(crit)
        for tamper in ROW_TAMPERS:
            for rows in (range(len(crit.rows)), {0}):
                outcomes.add(assert_recheck_matches(tampered_rows(crit, rows, tamper)))
    assert outcomes == {True, False}


def test_last_critical_point_is_the_largest_breakpoint_on_criterion_05_instances():
    """Past the largest breakpoint every nu has slope |G|, so no two cross there."""
    for kernel, fs, _ in random_instances(seed=42, count=1000):
        profiles = build_nu_profiles(kernel, fs)
        largest = max(Fraction(-x, p.den) for p in profiles for x in p.nums)
        assert critical_set(profiles).points[-1] == largest


def sweep_outcome(profiles):
    """The rankings with their first probes as c1, the certificate and the
    attained orders of one sweep: all that it emits or decides."""
    crit = critical_set(profiles)
    den = profiles[0].den
    firsts = [(r, Fraction(p, q * den)) for r, ((p, q), _) in crit.rows.items()]
    orders = attained_orders(crit)
    return firsts, certificate(crit), (orders.m, orders.rankings)


def test_a_common_multiple_of_den_changes_nothing_emitted():
    """A family's den is a common denominator, not always the least: with
    every profile's nums and den multiplied by k, the sweep, its witnesses
    and the attained orders stay the same, on the criterion-05 instances
    and on synthesized families at m = 3..5."""
    families = [(kernel, fs) for kernel, fs, _ in random_instances(seed=42, count=1000)]
    for m, spec in ((3, "cyclic:18"), (4, "cyclic:48"), (5, "cyclic:100")):
        result = synth_kernel(build_group(spec), m)
        families.append((result.kernel, list(result.family())))
    for kernel, fs in families:
        profiles = build_nu_profiles(kernel, fs)
        want = sweep_outcome(profiles)
        for k in (2, 6):
            scaled = [NuProfile(tuple(k * x for x in p.nums), k * p.den) for p in profiles]
            assert sweep_outcome(scaled) == want


def test_fast_paths_match_references_on_bundles(bundles):
    from test_fast_paths import assert_matches_references

    for bundle in bundles.values():
        kernel = bundle.kernel
        fs = bundle.family(kernel.group)
        assert_matches_references(kernel, fs, counting_measure(kernel.group))


def test_criterion_06_counting_bounds():
    """Pattern count and step-value count stay under their closed forms."""
    from references import piece_lists

    checked = 0
    for kernel, fs, mu in random_instances(seed=1234, count=300):
        m, n = len(fs), kernel.group.order
        patterns = is_shattered(kernel, fs, mu).witnessed_count()
        assert patterns <= (m + m * (m - 1) // 2) * (m * n + 1)
        for f in fs:
            profile = build_nu_profiles(kernel, [f])[0]
            offsets = piece_lists(profile, profile.den)[2]
            assert len(set(offsets)) <= n + 1
        checked += 1
    assert checked == 300
    print("criterion 6: counting bounds hold on 300 fresh instances")


def test_criterion_07_order_count_necessity(bundles):
    """Every shattered pipeline attains at least C(m, floor(m/2)) strict orders."""
    for bundle in bundles.values():
        kernel = bundle.kernel
        fs = bundle.family(kernel.group)
        attained = attained_orders(
            critical_points(kernel, fs, counting_measure(kernel.group))
        )
        strict = [r for r in attained.rankings if is_strict(r)]
        assert len(strict) >= completeness_lower_bound(bundle.m)
        print(
            f"criterion 7: m={bundle.m} on {bundle.group_spec}: "
            f"{len(strict)} strict orders >= {completeness_lower_bound(bundle.m)}"
        )


def test_criterion_08_level_recursion_independent(bundles):
    """Level conditions recomputed from nu alone, not the synthesizer."""
    for bundle in bundles.values():
        result = bundle.result()
        kernel = bundle.kernel
        group = kernel.group
        fs = bundle.family(group)
        m = result.m
        eps = result.epsilon
        r = len(result.ms)
        m_prev, spread_prev = result.C, Fraction(0)
        for level in range(r):
            m_cur = m_prev - m * (spread_prev + eps)
            assert result.ms[level] == m_cur
            values = [nu(kernel, f, -m_cur + eps) for f in fs]
            spread = max(values) - min(values)
            assert result.B < m_cur - m * (spread + eps)
            assert spread <= eps * (m ** (level + 1) - 1)
            m_prev, spread_prev = m_cur, spread
        print(
            f"criterion 8: m={bundle.m} on {bundle.group_spec}: "
            f"{r} levels re-derived"
        )


def test_criterion_09_bands_and_gaps(bundles):
    """No convolution value inside any level band; nu gaps >= epsilon."""
    from gshatter.gfunc import convolve

    for bundle in bundles.values():
        result = bundle.result()
        kernel = bundle.kernel
        group = kernel.group
        fs = bundle.family(group)
        mu = counting_measure(group)
        eps = result.epsilon
        convs = [convolve(f, kernel, mu) for f in fs]
        for ml in result.ms:
            for conv in convs:
                for v in conv.values:
                    assert not (ml - eps < v < ml)
        for threshold in result.thresholds:
            values = [nu(kernel, f, -threshold) for f in fs]
            for a in range(len(values)):
                for b in range(a + 1, len(values)):
                    assert abs(values[a] - values[b]) >= eps
        print(
            f"criterion 9: m={bundle.m} on {bundle.group_spec}: bands clear, "
            f"gaps >= {eps}"
        )


def test_criterion_10_bound_consistency(bundles):
    """lower <= m <= implicit upper for every pipeline, plus spot values."""
    for bundle in bundles.values():
        n = bundle.kernel.group.order
        m = bundle.m
        assert lower_bound_at_most(n, bundle.mode == "order_two", m)
        upper = upper_bound_implicit(n)
        assert m <= upper
        assert 2**m <= n * (m + 1) ** 3  # the defining integer inequality
        print(
            f"criterion 10: n={n}: lower <= m={m} <= {upper} = implicit upper"
        )
    assert upper_bound_refined(16) == 22.0
    assert required_group_size(3, "order_two") == 18
    assert required_group_size(4, "order_two") == 48


def test_criterion_11_translation_invariance():
    """Labels never move under f -> f(a.) on groups up to order 48."""
    from references import translate

    specs = (
        "cyclic:7",
        "dihedral:2",
        "product:cyclic:2,dihedral:3",
        "dihedral:12",
        "product:cyclic:4,cyclic:6",
        "cyclic:48",
    )
    pairs = ((Fraction(-1), Fraction(2)), (Fraction(1, 2), Fraction(-3)))
    for spec in specs:
        group = build_group(spec)
        assert group.order <= 48
        n = group.order
        f = GroupFunction.from_values(
            group, [Fraction((3 * i + 1) % 11 - 5, 1 + i % 4) for i in range(n)]
        )
        kernel = GroupFunction.from_values(
            group,
            [Fraction((5 * i) % 9 - 4, 2) if i % 3 else Fraction(0) for i in range(n)],
        )
        mu = counting_measure(group)
        for c1, c2 in pairs:
            base = classify(kernel, f, mu, c1, c2)
            for a in group.elements():
                assert classify(kernel, translate(f, a), mu, c1, c2) == base
    print(f"criterion 11: exhaustive translation invariance on {len(specs)} groups")
