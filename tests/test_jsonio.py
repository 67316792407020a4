"""Serialization round trips, loader checks and atomic writes."""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from gshatter import gfunc
from gshatter.gfunc import GroupFunction, ratio_to_str
from gshatter.groups import build_group
from gshatter.jsonio import (
    MAX_RATIONAL_CHARS,
    certificate_from_json,
    certificate_to_json,
    fraction_from_str,
    fraction_to_str,
    function_family_from_json,
    function_family_to_json,
    group_function_from_json,
    group_function_to_json,
    read_json,
    synth_result_from_json,
    synth_result_to_json,
    write_json_atomic,
    _sha256,
)
from gshatter.shatter import is_shattered
from gshatter.synth import synth_kernel


class TestFractions:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(1, 2), "1/2"),
            (Fraction(-7, 3), "-7/3"),
            (Fraction(5), "5"),
            (Fraction(0), "0"),
            (Fraction(-4), "-4"),
        ],
    )
    def test_round_trip(self, value, text):
        assert fraction_to_str(value) == text
        assert fraction_from_str(text) == value

    @pytest.mark.parametrize(
        "bad",
        [
            "", "a/b", "1/0", "1.5", "3/", None, 7,
            " 3", "3 ", "1_000", "+3", "\u0663", "3/ 4", "1/-2", "3\n", "--3",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            fraction_from_str(bad)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_round_trip_past_the_digit_limit(self, sign):
        # 10 000-digit parts: twice the interpreter's default int/str limit.
        num, den = 10**10_000 + 1, 10**10_000 - 1  # both odd, so coprime
        value = Fraction(sign * num, den)
        text = fraction_to_str(value)
        assert text == "-" * (sign < 0) + "1" + "0" * 9_999 + "1/" + "9" * 10_000
        assert fraction_from_str(text) == value
        assert fraction_from_str(fraction_to_str(value * den)) == sign * num

    @pytest.mark.parametrize(
        "value", [Fraction(10**5_000 + 1, 10**4_999 - 1), -12, Fraction(0)]
    )
    def test_spelled_without_a_gcd(self, value, monkeypatch):
        # A Fraction or an int is in lowest terms already.
        calls = []
        monkeypatch.setattr(gfunc, "gcd", lambda *a: calls.append(None) or gcd(*a))
        text = fraction_to_str(value)
        assert not calls
        assert text == ratio_to_str(value.numerator, value.denominator)

    def test_zero_denominator_past_the_digit_limit(self):
        with pytest.raises(ValueError, match="malformed rational"):
            fraction_from_str("1/" + "0" * 10_000)

    def test_over_the_cap_refused_at_once_and_quoted_short(self):
        text = "1" * 1_000_000
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            fraction_from_str(text)
        assert time.perf_counter() - start < 1.0
        assert str(MAX_RATIONAL_CHARS) in str(err.value)
        assert len(str(err.value)) < 200

    def test_at_the_cap_read(self):
        text = "9" * MAX_RATIONAL_CHARS
        assert fraction_from_str(text) == 10**MAX_RATIONAL_CHARS - 1
        with pytest.raises(ValueError):
            fraction_from_str("-" + text)

    def test_malformed_quoted_short(self):
        with pytest.raises(ValueError) as err:
            fraction_from_str("1/2" + "x" * 10_000)
        assert len(str(err.value)) < 100


class TestStructures:
    def test_group_function_round_trip(self):
        g = build_group("dihedral:3")
        f = GroupFunction.from_values(g, [Fraction(i - 2, 3) for i in range(6)])
        data = group_function_to_json(f)
        assert data["group"] == "dihedral:3"
        back = group_function_from_json(data)
        assert back.values == f.values
        assert back.group.label == g.label
        # reuse of a prebuilt group skips reconstruction
        assert group_function_from_json(data, g).group is g

    def test_family_round_trip(self):
        g = build_group("cyclic:4")
        fs = [
            GroupFunction.from_values(g, [i, 0, -i, Fraction(1, 2)])
            for i in range(3)
        ]
        back = function_family_from_json(function_family_to_json(fs))
        assert [f.values for f in back] == [f.values for f in fs]

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            function_family_to_json([])

    def test_certificate_round_trip(self):
        g = build_group("cyclic:2")
        k = GroupFunction.from_values(g, [1, 0])
        fs = [
            GroupFunction.from_values(g, [4, 0]),
            GroupFunction.from_values(g, [4, 0]),
        ]
        from gshatter.gfunc import counting_measure

        cert = is_shattered(k, fs, counting_measure(g))
        data = certificate_to_json(cert, group_label="cyclic:2")
        assert data["group"] == "cyclic:2"
        back = certificate_from_json(data)
        assert back == cert
        witnessed = [d for d in data["dichotomies"] if d["status"] == "witnessed"]
        unreachable = [d for d in data["dichotomies"] if d["status"] == "unreachable"]
        assert all("c1" in d and "c2" in d for d in witnessed)
        assert all("c1" not in d for d in unreachable)

    def test_synth_result_round_trip(self):
        group = build_group("cyclic:8")
        result = synth_kernel(group, 2)
        data = synth_result_to_json(result)
        back = synth_result_from_json(data)
        # Groups are rebuilt, so compare via a second serialization pass.
        assert synth_result_to_json(back) == data
        # The bundle holds no report: verify_synth makes one from it.
        assert result.report is not None and back.report is None


@pytest.fixture(scope="module")
def synthesized():
    """A synthesis on cyclic:8 with m = 2, whose certificate is shattered."""
    return synth_kernel(build_group("cyclic:8"), 2)


class TestCertificateLoader:
    @pytest.fixture()
    def good(self, synthesized):
        return certificate_to_json(synthesized.report.certificate, group_label="cyclic:8")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(shattered="no"),
            lambda d: d.update(shattered=1),
            lambda d: d.update(m=2.7),
            lambda d: d.update(m=True),
            lambda d: d.update(m=0),
            lambda d: d["dichotomies"][0].update(labels=[5, 1]),
            lambda d: d["dichotomies"][0].update(labels=[True, 1]),
            lambda d: d["dichotomies"][0].update(labels=[1.0, 1]),
            lambda d: d["dichotomies"][0].update(labels=[1]),
            lambda d: d["dichotomies"][0].update(labels="11"),
            lambda d: d["dichotomies"][0].update(status="bogus"),
            lambda d: d["dichotomies"][0].update(c1="1.5"),
            lambda d: d["dichotomies"][1].pop("c2"),
            lambda d: d["dichotomies"].__setitem__(3, dict(d["dichotomies"][0])),
            lambda d: d["dichotomies"].__setitem__(0, "witnessed"),
            lambda d: d.update(dichotomies={}),
            lambda d: d.update(shattered=False),
            lambda d: d.pop("group"),
        ],
        ids=[
            "string-shattered", "int-shattered", "float-m", "bool-m", "zero-m",
            "label-5", "label-bool", "label-float", "short-labels", "string-labels",
            "bogus-status", "decimal-c1", "missing-c2", "pattern-twice",
            "entry-not-an-object", "dichotomies-not-a-list",
            "unshattered-yet-all-witnessed", "no-group",
        ],
    )
    def test_malformed_rejected(self, good, edit):
        edit(good)
        with pytest.raises((ValueError, TypeError, KeyError)):
            certificate_from_json(good)

    def test_huge_m_rejected_at_once(self):
        data = {"group": "cyclic:8", "m": 10**12, "dichotomies": [], "shattered": True}
        start = time.perf_counter()
        with pytest.raises(ValueError):
            certificate_from_json(data)
        assert time.perf_counter() - start < 0.1

    def test_group_must_match(self, good):
        assert certificate_from_json(good, build_group("cyclic:8")).shattered
        with pytest.raises(ValueError, match="different groups"):
            certificate_from_json(good, build_group("cyclic:9"))


class TestSynthBundleLoader:
    @pytest.fixture()
    def good(self, synthesized):
        return synth_result_to_json(synthesized)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_m_must_match_the_tower(self, good, m):
        good["m"] = m
        with pytest.raises(ValueError, match="tower functions"):
            synth_result_from_json(good)

    def test_kernel_naming_another_group_rejected(self, good):
        good["kernel"]["group"] = "cyclic:9"
        with pytest.raises(ValueError, match="different groups"):
            synth_result_from_json(good)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(m=True),
            lambda d: d.update(g="4"),
            lambda d: d["subsets"][0].__setitem__(0, "0"),
            lambda d: d["u"][0].update(group="cyclic:9"),
            lambda d: d.update(thresholds="12"),
            lambda d: d.update(ms="345"),
            lambda d: d.update(mode="bogus"),
            lambda d: d.update(subsets={}),
            lambda d: d["subsets"].append([5, 6]),
            lambda d: d["subsets"][1].pop(),
            lambda d: d["subsets"][1].__setitem__(0, 8),
            lambda d: d.update(g=8),
            lambda d: d["ms"].pop(),
            lambda d: d["thresholds"].append("1"),
        ],
        ids=[
            "bool-m", "string-g", "string-centre", "tower-function-group",
            "string-thresholds", "string-ms", "unknown-mode", "subsets-object",
            "extra-subset", "short-subset", "centre-outside-group",
            "g-outside-group", "level-missing", "extra-threshold",
        ],
    )
    def test_malformed_rejected(self, good, edit):
        edit(good)
        with pytest.raises(ValueError):
            synth_result_from_json(good)


class TestGroupNames:
    def test_function_family_must_name_the_group(self):
        g = build_group("cyclic:4")
        data = function_family_to_json([GroupFunction.from_values(g, [1, 0, 0, 0])])
        assert len(function_family_from_json(data, g)) == 1
        with pytest.raises(ValueError, match="different groups"):
            function_family_from_json(data, build_group("cyclic:5"))

    def test_group_function_must_name_the_group(self):
        g = build_group("cyclic:4")
        data = group_function_to_json(GroupFunction.from_values(g, [1, 0, 0, 0]))
        with pytest.raises(ValueError, match="different groups"):
            group_function_from_json(data, build_group("dihedral:2"))


class TestFiles:
    def test_atomic_write_and_hash(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.json"
        payload = {"b": [1, 2], "a": "1/2"}
        write_json_atomic(target, payload)
        assert read_json(target) == payload
        first = target.read_bytes()
        write_json_atomic(target, payload)
        assert target.read_bytes() == first  # byte-for-byte deterministic

    @pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 1 << 20])
    def test_built_in_sha256_agrees_with_hashlib(self, size):
        data = random.Random(size).randbytes(size)
        digest = _sha256()
        digest.update(data)
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()

    def test_read_json_feeds_the_digest_the_bytes_parsed(self, tmp_path):
        target = tmp_path / "in.json"
        target.write_bytes(b'{"a": ["1/2", "\\u00e9", "\xc3\xa9"]}\r\n')
        digest = _sha256()
        assert read_json(target, digest) == {"a": ["1/2", "\u00e9", "\u00e9"]}
        assert digest.hexdigest() == hashlib.sha256(target.read_bytes()).hexdigest()

    def test_nesting_too_deep_to_parse_is_a_value_error(self, tmp_path):
        target = tmp_path / "deep.json"
        target.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            read_json(target)

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        target = tmp_path / "out.json"
        write_json_atomic(target, {"z": 1, "a": 2})
        text = target.read_text()
        assert text.index('"a"') < text.index('"z"')
        assert text.endswith("\n")

    def test_no_temp_litter(self, tmp_path):
        write_json_atomic(tmp_path / "x.json", {"k": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
