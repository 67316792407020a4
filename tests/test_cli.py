"""End-to-end command line behaviour, artifacts and exit codes."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import errno
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import gshatter.classifier
import gshatter.cli
import gshatter.gfunc
import gshatter.orders
import gshatter.synth
from gshatter.classifier import NuProfile
from gshatter.errors import (
    GroupSpecError,
    GroupTooSmallError,
    GShatterError,
    InvariantError,
    ModeElementError,
    SynthesisVerificationError,
    WitnessVerificationError,
)
from gshatter.groups import MAX_PRODUCT_DEPTH, build_group
from gshatter.gfunc import counting_measure
from gshatter.cli import GROUP_ORDER_CAP, main
from gshatter.jsonio import (
    certificate_from_json,
    function_family_from_json,
    group_function_from_json,
    read_json,
    synth_result_from_json,
    write_json_atomic,
)
from gshatter.synth import synth_kernel, verify_synth


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256_of_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_convolutions(monkeypatch):
    """Record integer convolution calls at both bindings of the one
    convolution (`convolve` calls it at the first); returns a list with
    the number of functions each call convolved."""
    calls = []
    original = gshatter.gfunc._convolve

    def counting(fs, *args, **kwargs):
        calls.append(len(fs))
        return original(fs, *args, **kwargs)

    monkeypatch.setattr(gshatter.gfunc, "_convolve", counting)
    monkeypatch.setattr(gshatter.classifier, "_convolve", counting)
    return calls


def run_bounded(capsys, *argv):
    """run() that also returns its wall time and its peak traced memory."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (*result, elapsed, peak)


def write_deep_json(path: Path) -> Path:
    """A JSON list nested 100 000 deep: too deep for json to parse."""
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


@pytest.fixture(scope="module")
def cyclic8_bundle(tmp_path_factory):
    """The artifacts of `gshatter synth --group cyclic:8 --m 2`."""
    out = tmp_path_factory.mktemp("cyclic8")
    assert main(["synth", "--group", "cyclic:8", "--m", "2", "--out-dir", str(out)]) == 0
    return out


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = gshatter.cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        o for a in parser._actions for o in a.option_strings if o.startswith("--")
    } - {"--help"}


def shift_sweep_values(monkeypatch):
    """Make the sweep's nu values wrong by 1 past each first breakpoint;
    the definition stays right.

    The sweep reads every value from NuProfile.pieces, where nu * scale =
    slope * t + offset, so adding scale to each offset adds 1 to nu on
    every piece from the first breakpoint on (left of it the sweep's own
    zero piece stays right); the re-check of each witness reads nu off
    the profile's breakpoint table (`NuProfile.exceeds`) and never calls
    `pieces`.
    """
    true_pieces = NuProfile.pieces

    def shifted(self, scale):
        for t, slope, offset in true_pieces(self, scale):
            yield t, slope, offset + scale

    monkeypatch.setattr(NuProfile, "pieces", shifted)


def watch_profiles(monkeypatch):
    """Keep a weakref to every profile built at the cli and synth bindings
    of build_nu_profiles, and count, when the cli writes its first file,
    how many are still alive; returns (refs, alive), alive holding that
    count once the first file is written."""
    refs, alive = [], []
    build, write = gshatter.classifier.build_nu_profiles, gshatter.cli.write_json_atomic

    def watched(*args):
        profiles = build(*args)
        refs.extend(weakref.ref(p) for p in profiles)
        return profiles

    def checked(path, data):
        if not alive:
            alive.append(sum(ref() is not None for ref in refs))
        return write(path, data)

    monkeypatch.setattr(gshatter.cli, "build_nu_profiles", watched)
    monkeypatch.setattr(gshatter.synth, "build_nu_profiles", watched)
    monkeypatch.setattr(gshatter.cli, "write_json_atomic", checked)
    return refs, alive


def fail_check(monkeypatch, name):
    """Make verify_synth report the check `name` as failed."""
    original = gshatter.synth.verify_synth

    def failing(result):
        report = original(result)
        checks = tuple(
            dataclasses.replace(c, passed=False) if c.name == name else c
            for c in report.checks
        )
        return dataclasses.replace(report, checks=checks)

    monkeypatch.setattr(gshatter.synth, "verify_synth", failing)


class TestGroupCommand:
    def test_valid_group(self, capsys):
        code, out, _ = run(capsys, "group", "--spec", "cyclic:5")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 5
        assert data["abelian"] is True
        assert data["validation"]["exhaustive"] is True

    def test_nonabelian_flag(self, capsys):
        code, out, _ = run(capsys, "group", "--spec", "dihedral:3")
        assert code == 0
        data = json.loads(out)
        assert data["abelian"] is False
        assert data["order_two_element"] is not None

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(capsys, "group", "--spec", "cyclic:6", "--out", str(target))
        assert code == 0
        assert read_json(target)["order"] == 6

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "group", "--spec", "cyclic:x")
        assert code == 2
        assert "error" in err

    # sha256 of `gshatter group --spec S` stdout, from before validate_group
    # read commutativity off its own pass; the --out file is the same text.
    PINNED_OUTPUT = {
        "cyclic:1": "b27d492a8366d9d42f236934dd9e49b0eb232ffc9fcd7ebcee19b5dc485291a7",
        "cyclic:2": "689916e77435b8f391596ed674f19127b99ea713537bb9591d0f59e1ef594209",
        "cyclic:12": "fe1912b134fbacca19ac85776e2defe57688c9d8273247dca088a4145e012eea",
        "cyclic:128": "a996ae55f648aa2792b241f1b5a2575adef3cc5e6ca6cea379a65c3a639c7ce4",
        "cyclic:129": "4f0960a160bd22e81c2e964629718c5b6b17eadaf23f46e0c82112b40a5f744c",
        "cyclic:1120": "bd8d8f675cc1dfd7cb416dd29a22debda4e63216bffe9e576ea78aff1ab63b4c",
        "dihedral:1": "30e891092dc47c1bda748bb30abadc1945a4cac0e89cc3aa95d5d20a0295c2d8",
        "dihedral:2": "35e539f37cc9d55f035b692ba79b54547285906b3d956bc04ae6d5adc2977088",
        "dihedral:3": "6a0f7e8a7bef1a69ca9140af6816a49c43d2b9d0ac49609c72a40a1c3b5f2a2d",
        "dihedral:560": "d8d9d5a3fdd85824b4f3caa451871a5f8e8c3534107082ef66b1cf1291d21814",
        "product:cyclic:2,cyclic:2":
            "7d95f95a479003d75033a89e9d95565545a7432a90141846dc3558dc08fba5ce",
        "product:dihedral:3,cyclic:4":
            "ce66920b5f127058faae9d55970eb9920ea3289e450e4dafb3f40023af0d0461",
        "product:dihedral:20,cyclic:28":
            "fbfe4be18fc09271ab7aee9ef1d7fce5f7c572bc6c36b20209bdcb3254120b6e",
    }

    @pytest.mark.parametrize("spec", PINNED_OUTPUT)
    def test_output_is_pinned(self, capsys, tmp_path, spec):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "group", "--spec", spec, "--out", str(target))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_OUTPUT[spec]
        assert target.read_text(encoding="utf-8") == out

    def test_spec_nested_past_the_limit(self, capsys):
        depth = MAX_PRODUCT_DEPTH + 1
        spec = "product:" * depth + "cyclic:1" + ",cyclic:1" * depth
        code, _, err = run(capsys, "group", "--spec", spec)
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec", [
        "cyclic:1000000", f"cyclic:{GROUP_ORDER_CAP + 1}", "product:dihedral:64,cyclic:33",
        # An order of 84 000 digits, past what str() converts.
        "product:" * 20 + "cyclic:" + "9" * 4000 + (",cyclic:" + "9" * 4000) * 20,
    ], ids=["million", "cap+1", "product", "past-the-digit-limit"])
    def test_order_cap_refused_before_any_product(self, capsys, monkeypatch, spec):
        def no_products(*args, **kwargs):
            raise AssertionError("validate_group ran")

        monkeypatch.setattr(gshatter.cli, "validate_group", no_products)
        start = time.perf_counter()
        code, out, err = run(capsys, "group", "--spec", spec)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "--allow-large" in err
        assert max(map(len, err.splitlines())) < 200

    def test_order_cap_is_inclusive_and_lifted_by_allow_large(self, capsys, monkeypatch):
        monkeypatch.setattr(gshatter.cli, "GROUP_ORDER_CAP", 6)
        for argv, code in ((["dihedral:3"], 0), (["cyclic:7"], 2),
                           (["cyclic:7", "--allow-large"], 0)):
            assert run(capsys, "group", "--spec", *argv)[0] == code, argv

    def test_options(self):
        assert long_options(subcommands()["group"]) == {"--spec", "--out", "--seed", "--allow-large"}


class TestOrdersCommand:
    def test_m4(self, capsys, tmp_path):
        code, out, _ = run(capsys, "orders", "--m", "4", "--out-dir", str(tmp_path))
        assert code == 0
        assert "complete=True" in out
        order_set = read_json(tmp_path / "order_set_m4.json")
        assert order_set["m"] == 4
        assert len(order_set["rankings"]) == 6
        report = read_json(tmp_path / "completeness_report_m4.json")
        assert report["complete"] and report["minimal"]
        manifest = read_json(tmp_path / "run_manifest.json")
        assert manifest["command"] == "orders"
        assert "order_set_m4.json" in manifest["outputs"]

    @pytest.mark.parametrize("m", ["0", "17", "33"])
    def test_m_out_of_range(self, capsys, m, tmp_path):
        code, _, err = run(capsys, "orders", "--m", m, "--out-dir", str(tmp_path))
        assert code == 2
        assert "error" in err

    def test_broken_peel_chain_exits_5(self, capsys, tmp_path, monkeypatch):
        # A peeling map that drops nothing breaks every chain.
        monkeypatch.setattr(gshatter.orders, "f_map", lambda q, m, mask: mask)
        code, _, err = run(capsys, "orders", "--m", "4", "--out-dir", str(tmp_path))
        assert code == 5
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "order_set_m4.json").exists()


class TestSynthCommand:
    def test_small_pipeline(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "shattered: True (4/4 dichotomies witnessed)" in out
        for name in (
            "synth_result.json",
            "kernel.json",
            "functions.json",
            "orders.json",
            "verify_report.json",
            "shatter_certificate.json",
            "run_manifest.json",
        ):
            assert (tmp_path / name).exists(), name
        assert read_json(tmp_path / "verify_report.json")["passed"] is True
        cert = certificate_from_json(read_json(tmp_path / "shatter_certificate.json"))
        assert cert.shattered and cert.m == 2
        result = synth_result_from_json(read_json(tmp_path / "synth_result.json"))
        assert result.group.label == "cyclic:8"

    @pytest.mark.parametrize(
        "spec, order",
        [("product:cyclic:12,cyclic:3", 3), ("product:cyclic:9,cyclic:4", 4)],
    )
    def test_general_mode_with_a_short_mode_element(
        self, capsys, tmp_path, spec, order
    ):
        # g of order 3 or 4 makes some of a centre's five window offsets
        # land on one element; the construction must still shatter.
        code, out, _ = run(
            capsys, "synth", "--group", spec, "--m", "2", "--mode", "general",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "shattered: True (4/4 dichotomies witnessed)" in out
        result = synth_result_from_json(read_json(tmp_path / "synth_result.json"))
        powers = [result.group.power(result.g, k) for k in range(1, order + 1)]
        assert powers.index(result.group.identity) == order - 1
        code, out, _ = run(
            capsys, "verify", "--kernel", str(tmp_path / "kernel.json"),
            "--functions", str(tmp_path / "functions.json"),
        )
        assert code == 0
        assert "shattered=True order_criterion=True agreement=True" in out

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _, _ = run(
                capsys,
                "synth", "--group", "cyclic:8", "--m", "2", "--out-dir", str(d),
            )
            assert code == 0
        for name in ("synth_result.json", "kernel.json", "shatter_certificate.json"):
            assert sha256_of_file(a / name) == sha256_of_file(b / name), name

    def test_bad_group_spec(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", "--group", "tetra:3", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 2

    def test_group_too_small(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:10", "--m", "4",
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "48" in err

    def test_missing_mode_element(self, capsys, tmp_path):
        # cyclic:81 has no involution, so order_two mode cannot start.
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:81", "--m", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 4

    def test_odd_order_has_no_involution_without_a_scan(self, capsys, tmp_path):
        # Lagrange: an element of order 2 needs 2 | |G|, so the odd group
        # of order 20000001 is rejected without looking at its elements.
        code, _, err, elapsed, peak = run_bounded(
            capsys, "synth", "--group", "cyclic:20000001", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 4
        assert err.startswith("error: ") and "order_two" in err
        assert elapsed < 0.1
        assert peak < 1_000_000

    def test_size_checked_before_the_element_scan(self, capsys, tmp_path):
        # m = 22 needs |G| >= 31039008; the involution of cyclic:20000000
        # sits at element 10000000, so a scan first would take seconds.
        code, _, err, elapsed, peak = run_bounded(
            capsys, "synth", "--group", "cyclic:20000000", "--m", "22",
            "--allow-large", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert err.startswith("error: ") and "31039008" in err
        assert elapsed < 0.1
        assert peak < 1_000_000

    def test_too_small_and_without_mode_element_exits_3(self, capsys, tmp_path):
        # cyclic:81 has no involution and m = 5 needs |G| >= 100: the size
        # test runs first, so its exit code wins.
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:81", "--m", "5",
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "100" in err

    def test_m_cap_without_allow_large(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:4000", "--m", "9",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "allow-large" in err

    def test_required_size_checked_before_allocating(self, capsys, tmp_path):
        # m = 9 needs |G| >= 2268; the group of order 2000 is never tabled.
        code, _, err, elapsed, peak = run_bounded(
            capsys, "synth", "--group", "cyclic:2000", "--m", "9",
            "--allow-large", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert err.startswith("error: ") and "2268" in err
        assert elapsed < 1.0
        assert peak < 1_000_000

    @pytest.mark.parametrize("m", ["20000", "1000000000"])
    def test_huge_m_refused_from_bit_lengths(self, capsys, tmp_path, m):
        # 2m C(m, m // 2) >= 2^m: cyclic:5 is too small without the
        # binomial, whose digits would pass the int/str limit at m = 20000.
        code, _, err, elapsed, peak = run_bounded(
            capsys, "synth", "--group", "cyclic:5", "--m", m,
            "--allow-large", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert err == (
            "error: group of order 5 is too small for mode 'order_two': "
            f"need at least 2^{m} elements\n"
        )
        assert elapsed < 1.0
        assert peak < 1_000_000
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, code", [
        (["bounds", "--n", "x" * 5000], 2),
        (["synth", "--group", "cyclic:5", "--m", "3" * 4000], 2),
        (["synth", "--group", "cyclic:5", "--m", "-" + "3" * 4000], 2),
        (["synth", "--group", "cyclic:5", "--m", "3" * 4000, "--allow-large"], 3),
        (["orders", "--m", "-" + "3" * 4000], 2),
    ])
    def test_long_arguments_are_quoted(self, capsys, argv, code):
        # Each is refused before anything is written, with a message that
        # quotes only the start of the argument.
        got, _, err = run(capsys, *argv)
        assert got == code
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200 and "..." in err

    def test_orders_built_once_by_the_kernel_and_once_by_the_verifier(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = []
        original = gshatter.orders.build_complete_orders

        def counting(m):
            calls.append(m)
            return original(m)

        for module in (gshatter.orders, gshatter.synth, gshatter.cli):
            monkeypatch.setattr(module, "build_complete_orders", counting)
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:18", "--m", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert calls == [3, 3]

    def test_preconditions_are_left_to_synth_kernel(self):
        tree = ast.parse(inspect.getsource(gshatter.cli.cmd_synth))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {
            "required_group_size", "find_order_two_element",
            "find_order_ge3_element", "_mode_element_ok", "build_complete_orders",
        }

    def test_options(self):
        assert long_options(subcommands()["synth"]) == {
            "--group", "--m", "--mode", "--out-dir", "--allow-large",
        }

    def test_bad_interval(self, capsys, tmp_path):
        # The level interval is fixed at (1, 2): an inverted pair and a
        # valid one other than (1, 2) are both usage errors.
        for interval in (["--b", "3", "--c", "2"], ["--b", "1/2", "--c", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["synth", "--group", "cyclic:8", "--m", "2", *interval,
                      "--out-dir", str(tmp_path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --b" in err
            assert "Traceback" not in err
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("m", ["0", "-3"])
    @pytest.mark.parametrize("large", [[], ["--allow-large"]], ids=["capped", "large"])
    def test_m_below_one(self, capsys, tmp_path, m, large):
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:8", "--m", m, *large,
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert err == f"error: need m >= 1, got {m}\n"
        assert not any(tmp_path.iterdir())

    def test_golden_digests(self, capsys, tmp_path):
        # Artifacts of the reference release; any refactor must keep them.
        m3_orders = {
            "orders.json": "3fb305159dd92b86e5b8ab8b541b39e5d608dc70bcfdc10123e150d448b145d3",
        }
        golden = {
            ("cyclic:18", 3, "order_two"): {
                "functions.json": "4a4b4faab32198f801b7a8cd23f4995cbd058d3906e4df8e31ae7671126d8f35",
                "kernel.json": "d034bd723a2d68d06ed33825ab6351ba77367765aa987c218990316df63683f4",
                "shatter_certificate.json": "8b8ba8b18ff9b9068e39a5406a827d7d5193e4b855045448688310e1d578fe85",
                "synth_result.json": "6c39658a1033e911cc072c91d76a309c1f755fb3a5aa5f523e5e964116a6fc20",
                "verify_report.json": "475eb1681f6e9082cd296c73e651e14347fb8d86348ed85510798fbc4c88539f",
            },
            ("dihedral:9", 3, "order_two"): {
                "functions.json": "b71166475c9111bc5ffb34d2d68faf5443e275ff8c5e8f547c553785fac6c81a",
                "kernel.json": "7e94d0cde42b01feffe2803c578fe9b38c1d0d452e1c635a7d7ec24150f15ebb",
                "shatter_certificate.json": "dab2b916719e9fc3856a682773a919575bb40777e50173971a89022a79bde629",
                "synth_result.json": "9c0e1c2f01864f8009a6d4598f3569f1bcf203f7a76a623fad3896e61a5d6892",
                "verify_report.json": "475eb1681f6e9082cd296c73e651e14347fb8d86348ed85510798fbc4c88539f",
            },
            ("cyclic:81", 3, "general"): {
                "functions.json": "a34259f1c3d8c05abaad483d73d882599ed37bd256d645175df2532e483a782a",
                "kernel.json": "fdf470d0c2461cfae23b2af877dfb7f5cfe233b6c31a25a7c5d722e15c867f34",
                "shatter_certificate.json": "a8fa59ce0ecf4ba36f838c291103cb084756c90a08e416cd8126917122b278e8",
                "synth_result.json": "3333d67a22d8443d456f040236a25fe1cef9c52206a7f0b8b2211dc7cadac68d",
                "verify_report.json": "107099ed7beb7d8d8beca105b0d639ede38af62c64bd5c0cf3cd7d598f55f673",
            },
            # The benchmark's synth-m5 case.
            ("cyclic:100", 5, "order_two"): {
                "functions.json": "fb3ac310ba3df94b623fc853ca6c3723531e1bd480187dd1c0b091f7eb5bec4d",
                "kernel.json": "7dc7f5facc6b659ec475f9a613118aa057627f833e1d4d1dcd4d274f25888812",
                "orders.json": "be4ba762794a2e477be087e62cc85acd20e120fe969aacbc1f242952db1f1438",
                "shatter_certificate.json": "2a08e80e6aef9084e270f66ef9103f5c770a2f616865ec50f042b13e3989ce16",
                "synth_result.json": "0e13814aad8ea582e04eed7afa78277a33bb894c0af020e4d7b677cdf411f2b1",
                "verify_report.json": "5ec7c1dc0a87452488b716aafb0efebd2f910ea9363f7f8627dc03ebb9d39f78",
            },
        }
        for (spec, m, mode), digests in golden.items():
            out = tmp_path / spec.replace(":", "_")
            code, _, _ = run(
                capsys, "synth", "--group", spec, "--m", str(m), "--mode", mode,
                "--out-dir", str(out),
            )
            assert code == 0, spec
            for name, digest in {**(m3_orders if m == 3 else {}), **digests}.items():
                assert sha256_of_file(out / name) == digest, (spec, name)

    def test_one_convolution_per_function(self, capsys, tmp_path, monkeypatch):
        calls = count_convolutions(monkeypatch)
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:18", "--m", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert calls == [3]  # one call, convolving the 3 functions
        calls.clear()
        code, _, _ = run(
            capsys,
            "verify",
            "--kernel", str(tmp_path / "kernel.json"),
            "--functions", str(tmp_path / "functions.json"),
        )
        assert code == 0
        assert calls == [3]

    def test_profiles_are_dead_at_the_first_artifact(self, capsys, tmp_path, monkeypatch):
        # The profiles and their tables are the bulk of the memory peak;
        # neither command may still hold one while it writes its files.
        refs, alive = watch_profiles(monkeypatch)
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert (code, len(refs), alive) == (0, 2, [0])
        refs.clear()
        alive.clear()
        code, _, _ = run(
            capsys,
            "verify",
            "--kernel", str(tmp_path / "kernel.json"),
            "--functions", str(tmp_path / "functions.json"),
            "--out", str(tmp_path / "verify" / "verdict.json"),
        )
        assert (code, len(refs), alive) == (0, 2, [0])

    def test_failed_self_check_exits_5_without_artifacts(
        self, capsys, tmp_path, monkeypatch
    ):
        fail_check(monkeypatch, "pairwise-gaps")
        with pytest.raises(SynthesisVerificationError, match="pairwise-gaps"):
            synth_kernel(build_group("cyclic:8"), 2)
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(out),
        )
        assert code == 5
        assert "pairwise-gaps" in err
        assert not out.exists()

    def test_construction_fault_caught_before_return(
        self, capsys, tmp_path, monkeypatch
    ):
        # With eps = 1/8 on cyclic:8, m = 2, every step of the construction
        # goes through (round 2's smallest target is 5/4 > B = 1), but the
        # last level condition 2 - 10/8 > B fails; only verify_synth sees it.
        monkeypatch.setattr(
            gshatter.synth, "synth_epsilon", lambda B, C, m, r: Fraction(1, 8)
        )
        with pytest.raises(SynthesisVerificationError, match="level-condition"):
            synth_kernel(build_group("cyclic:8"), 2)
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(out),
        )
        assert code == 5
        assert "level-condition" in err
        assert not out.exists()

    def test_failed_witness_recheck_exits_5_without_artifacts(
        self, capsys, tmp_path, monkeypatch
    ):
        shift_sweep_values(monkeypatch)
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(out),
        )
        assert code == 5
        assert err.startswith("error: witness re-verification failed")
        assert "Traceback" not in err
        assert not out.exists()

    def test_failed_shattering_exits_1_with_artifacts(
        self, capsys, tmp_path, monkeypatch
    ):
        fail_check(monkeypatch, "shattering")
        code, out, _ = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "FAIL  shattering" in out
        assert read_json(tmp_path / "verify_report.json")["passed"] is False
        assert (tmp_path / "shatter_certificate.json").exists()


class TestVerifyCommand:
    @pytest.fixture()
    def bundle(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        return tmp_path

    def test_agrees_on_synth_bundle(self, capsys, bundle):
        code, out, _ = run(
            capsys,
            "verify",
            "--kernel", str(bundle / "kernel.json"),
            "--functions", str(bundle / "functions.json"),
        )
        assert code == 0
        assert "shattered=True order_criterion=True agreement=True" in out

    def test_out_file(self, capsys, bundle, tmp_path):
        target = tmp_path / "verdict" / "verdict.json"
        inputs = [bundle / "kernel.json", bundle / "functions.json"]
        code, _, _ = run(
            capsys,
            "verify",
            "--kernel", str(inputs[0]),
            "--functions", str(inputs[1]),
            "--out", str(target),
        )
        assert code == 0
        verdict = read_json(target)
        assert verdict["agreement"] is True
        assert verdict["certificate"]["shattered"] is True
        manifest = read_json(target.parent / "run_manifest.json")
        assert manifest["command"] == "verify"
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs
        }

    def test_manifest_hashes_the_bytes_verified_when_out_overwrites_an_input(
        self, capsys, bundle
    ):
        kernel, functions = bundle / "kernel.json", bundle / "functions.json"
        verified = {str(p): sha256_of_file(p) for p in (kernel, functions)}
        code, _, _ = run(
            capsys, "verify", "--kernel", str(kernel), "--functions", str(functions),
            "--out", str(functions),
        )
        assert code == 0
        assert "certificate" in read_json(functions)  # the input is gone
        assert read_json(bundle / "run_manifest.json")["inputs"] == verified

    def test_zero_kernel_agreeing_negative(self, capsys, bundle, tmp_path):
        kernel = read_json(bundle / "kernel.json")
        kernel["values"] = ["0"] * len(kernel["values"])
        zeroed = tmp_path / "zero_kernel.json"
        write_json_atomic(zeroed, kernel)
        code, out, _ = run(
            capsys,
            "verify",
            "--kernel", str(zeroed),
            "--functions", str(bundle / "functions.json"),
        )
        assert code == 0
        assert "shattered=False order_criterion=False agreement=True" in out

    def test_group_nested_past_the_limit(self, capsys, tmp_path):
        depth = MAX_PRODUCT_DEPTH + 1
        spec = "product:" * depth + "cyclic:1" + ",cyclic:1" * depth
        kernel, functions = tmp_path / "kernel.json", tmp_path / "functions.json"
        write_json_atomic(kernel, {"group": spec, "values": ["1"]})
        write_json_atomic(functions, {"group": spec, "functions": [["1"]]})
        code, _, err = run(
            capsys, "verify", "--kernel", str(kernel), "--functions", str(functions)
        )
        assert code == 2
        assert err.startswith("error: cannot read inputs")
        assert "Traceback" not in err

    def test_truncated_json(self, capsys, bundle, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text((bundle / "kernel.json").read_text()[:25])
        code, _, err = run(
            capsys,
            "verify",
            "--kernel", str(broken),
            "--functions", str(bundle / "functions.json"),
        )
        assert code == 2
        assert "cannot read inputs" in err

    @pytest.mark.parametrize("which", ["kernel", "functions"])
    def test_list_shaped_input(self, capsys, bundle, tmp_path, which):
        paths = {
            "kernel": bundle / "kernel.json",
            "functions": bundle / "functions.json",
        }
        paths[which] = tmp_path / "list.json"
        write_json_atomic(paths[which], [1, 2, 3])
        code, _, err = run(
            capsys,
            "verify",
            "--kernel", str(paths["kernel"]),
            "--functions", str(paths["functions"]),
        )
        assert code == 2
        assert "error: cannot read inputs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["kernel", "functions"])
    def test_deeply_nested_input(self, capsys, cyclic8_bundle, tmp_path, which):
        paths = {
            "kernel": cyclic8_bundle / "kernel.json",
            "functions": cyclic8_bundle / "functions.json",
        }
        paths[which] = write_deep_json(tmp_path / "deep.json")
        code, _, err = run(
            capsys,
            "verify",
            "--kernel", str(paths["kernel"]),
            "--functions", str(paths["functions"]),
        )
        assert code == 2
        assert err.startswith("error: cannot read inputs")
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["values", "row"])
    def test_string_shaped_values(self, capsys, tmp_path, which):
        # A string of digits is not a list of values: "1000" must not load
        # as (1, 0, 0, 0), neither as a kernel nor as a function row.
        kernel = tmp_path / "kernel.json"
        functions = tmp_path / "functions.json"
        values = ["1", "0", "0", "0"]
        write_json_atomic(
            kernel,
            {"group": "cyclic:4", "values": "1000" if which == "values" else values},
        )
        write_json_atomic(
            functions,
            {"group": "cyclic:4", "functions": ["1000" if which == "row" else values]},
        )
        code, _, err = run(
            capsys, "verify", "--kernel", str(kernel), "--functions", str(functions),
        )
        assert code == 2
        assert "error: cannot read inputs" in err

    def test_huge_group_with_few_values(self, capsys, tmp_path):
        # A file naming a group of order 10^9 but holding 4 values is
        # rejected without building anything of the group's size.
        kernel = tmp_path / "kernel.json"
        functions = tmp_path / "functions.json"
        write_json_atomic(
            kernel, {"group": "cyclic:1000000000", "values": ["1", "0", "0", "2"]}
        )
        write_json_atomic(
            functions, {"group": "cyclic:1000000000", "functions": [["1"] * 4]}
        )
        code, _, err, elapsed, peak = run_bounded(
            capsys, "verify", "--kernel", str(kernel), "--functions", str(functions),
        )
        assert code == 2
        assert "error: cannot read inputs" in err
        assert elapsed < 1.0
        assert peak < 1_000_000

    def test_witnesses_past_the_digit_limit_are_written_and_read_back(
        self, capsys, tmp_path
    ):
        # Inputs under 2 600 digits give witnesses past the interpreter's
        # 4 300-digit int/str limit: verify writes them, bounds reads them.
        a, b, c = "7" * 2500 + "1", "3" * 2500 + "1", "9" * 2500 + "7"
        kernel, functions = tmp_path / "k.json", tmp_path / "f.json"
        write_json_atomic(kernel, {"group": "cyclic:3", "values": [f"1/{a}", f"-2/{c}", "5"]})
        write_json_atomic(functions, {"group": "cyclic:3", "functions": [
            [f"1/{b}", "1", f"-3/{a}"], [f"2/{c}", f"-1/{b}", "4"]]})
        out = tmp_path / "v" / "verify.json"
        for extra in ([], ["--out", str(out)]):
            start = time.perf_counter()
            code, stdout, err = run(
                capsys, "verify", "--kernel", str(kernel), "--functions", str(functions),
                *extra,
            )
            assert time.perf_counter() - start < 1.0
            assert (code, err) == (0, "")
            assert stdout.endswith(
                "shattered=False order_criterion=False agreement=True\n"
            )
        witnesses = [
            e[k] for e in read_json(out)["certificate"]["dichotomies"]
            for k in ("c1", "c2") if k in e
        ]
        assert max(map(len, witnesses)) > 4300
        code, stdout, err = run(capsys, "bounds", "--n", "3", "--achieved", str(out))
        assert (code, err) == (0, "")
        assert stdout.splitlines()[1].split()[0] == "3"

    def test_over_long_rational_refused_with_a_short_message(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.json"
        write_json_atomic(kernel, {"group": "cyclic:2", "values": ["1" * 10**6, "0"]})
        code, _, err, elapsed, _ = run_bounded(
            capsys, "verify", "--kernel", str(kernel), "--functions", str(kernel),
        )
        assert code == 2
        assert err.startswith("error: cannot read inputs: rational over")
        assert err.count("\n") == 1 and len(err) < 200
        assert elapsed < 1.0

    def test_certificate_is_checked_against_the_definition(
        self, capsys, bundle, monkeypatch
    ):
        # The sweep finds witnesses through NuProfile.pieces; the re-check
        # must not, so a wrong sweep cannot pass unnoticed.
        from gshatter.shatter import is_shattered

        kernel = group_function_from_json(read_json(bundle / "kernel.json"))
        fs = function_family_from_json(
            read_json(bundle / "functions.json"), kernel.group
        )
        mu = counting_measure(kernel.group)
        shift_sweep_values(monkeypatch)
        with pytest.raises(WitnessVerificationError):
            is_shattered(kernel, fs, mu)
        code, _, err = run(
            capsys,
            "verify",
            "--kernel", str(bundle / "kernel.json"),
            "--functions", str(bundle / "functions.json"),
        )
        assert code == 5
        assert "witness re-verification failed" in err

    @pytest.mark.parametrize("group", [5, ["cyclic:8"]])
    def test_non_string_group(self, capsys, bundle, tmp_path, group):
        kernel = read_json(bundle / "kernel.json")
        kernel["group"] = group
        path = tmp_path / "kernel.json"
        write_json_atomic(path, kernel)
        code, _, err = run(
            capsys,
            "verify",
            "--kernel", str(path),
            "--functions", str(bundle / "functions.json"),
        )
        assert code == 2
        assert err.startswith("error:")

    def test_mismatched_groups(self, capsys, bundle, tmp_path):
        functions = read_json(bundle / "functions.json")
        functions["group"] = "cyclic:9"
        other = tmp_path / "other_functions.json"
        write_json_atomic(other, functions)
        code, _, err = run(
            capsys,
            "verify",
            "--kernel", str(bundle / "kernel.json"),
            "--functions", str(other),
        )
        assert code == 2
        assert "different groups" in err


class TestBoundsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "16,48")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 3  # header + two rows
        assert lines[0].split()[0] == "n"
        row16 = lines[1].split()
        assert row16[0] == "16"
        assert row16[1] == "16"  # implicit upper bound at n = 16

    def test_empty_n_prints_header_only(self, capsys):
        code, out, _ = run(capsys, "bounds")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 1

    def test_failing_bundle_past_the_digit_limit_is_not_counted(
        self, capsys, tmp_path, cyclic8_bundle
    ):
        # verify_synth quotes epsilon in a check detail; a 5 000-digit one
        # used to end the command with exit 2.
        data = read_json(cyclic8_bundle / "synth_result.json")
        data["epsilon"] = "1/" + "3" * 5000
        bundle = tmp_path / "eps.json"
        bundle.write_text(json.dumps(data))
        code, out, err = run(capsys, "bounds", "--achieved", str(bundle))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 and out.split()[0] == "n"
        [check] = [c for c in verify_synth(synth_result_from_json(data)).checks
                   if c.name == "epsilon-formula"]
        assert not check.passed and check.detail == "epsilon = " + data["epsilon"]

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "bounds", "--n", "16,abc")
        assert code == 2
        code, _, _ = run(capsys, "bounds", "--n", "0")
        assert code == 2

    def test_csv_and_json_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "bounds.csv"
        json_path = tmp_path / "bounds.json"
        code, _, _ = run(
            capsys, "bounds", "--n", "16,256",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        assert csv_path.read_text().splitlines()[0].startswith("n,")
        rows = read_json(json_path)
        assert [r["n"] for r in rows] == [16, 256]
        assert rows[1]["refined_upper"] == pytest.approx(35.0)

    def test_achieved_column(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "bounds", "--n", "8,16",
            "--achieved", str(tmp_path / "shatter_certificate.json"),
        )
        assert code == 0
        row8 = next(l for l in out.splitlines() if l.strip().startswith("8"))
        assert row8.split()[-1] == "2"

    @pytest.mark.parametrize(
        "data",
        [
            5,
            {"group": "cyclic:8", "dichotomies": [], "shattered": True, "m": [2]},
            {"group": "cyclic:8", "kernel": {}, "m": None},
            {"group": "cyclic:8", "dichotomies": [], "shattered": True, "m": 2.7},
            {"group": "cyclic:8", "dichotomies": [], "shattered": True, "m": 0},
            {"group": "cyclic:8", "dichotomies": [], "shattered": True, "m": True},
            {"group": "cyclic:8", "kernel": {}, "m": 2.7},
            {"group": "cyclic:8", "kernel": {}, "m": True},
            {"group": "cyclic:8", "kernel": {}, "m": -1},
            {"group": "cyclic:8", "kernel": [1, 2], "m": 2},
            {"group": "cyclic:8", "kernel": None, "m": 2},
            {"group": "cyclic:8", "dichotomies": [], "shattered": "no", "m": 3},
            {"group": "cyclic:8", "dichotomies": [], "shattered": True, "m": 3},
            {"group": "cyclic:8", "dichotomies": [], "shattered": True, "m": 10**12},
        ],
        ids=[
            "not-an-object", "certificate-list-m", "bundle-null-m",
            "certificate-float-m", "certificate-zero-m", "certificate-bool-m",
            "bundle-float-m", "bundle-bool-m", "bundle-negative-m",
            "bundle-list-kernel", "bundle-null-kernel",
            "certificate-string-shattered", "certificate-shattered-without-witnesses",
            "certificate-huge-m",
        ],
    )
    def test_malformed_achieved_file(self, capsys, tmp_path, data):
        path = tmp_path / "achieved.json"
        write_json_atomic(path, data)
        code, _, err = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read certificate {path}")

    def test_deeply_nested_achieved_file(self, capsys, tmp_path):
        path = write_deep_json(tmp_path / "deep.json")
        code, _, err = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read certificate {path}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["dichotomies"][1].update(status="unreachable"),
            lambda d: d["dichotomies"].pop(),
            lambda d: d["dichotomies"].append(d["dichotomies"][0]),
            lambda d: d["dichotomies"].__setitem__(0, "witnessed"),
        ],
        ids=["one-not-witnessed", "one-missing", "one-extra", "entry-not-an-object"],
    )
    def test_shattered_certificate_must_witness_every_dichotomy(
        self, capsys, tmp_path, edit
    ):
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "shatter_certificate.json"
        data = read_json(path)
        edit(data)
        write_json_atomic(path, data)
        code, _, err = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read certificate {path}")

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("shatter_certificate.json",
             lambda d: d["dichotomies"][0].update(c1="1.5")),
            ("shatter_certificate.json",
             lambda d: d["dichotomies"].__setitem__(3, dict(d["dichotomies"][0]))),
            ("synth_result.json", lambda d: d.update(m=5)),
            ("synth_result.json", lambda d: d["kernel"].update(group="cyclic:9")),
            ("synth_result.json", lambda d: d.update(mode="bogus")),
            ("synth_result.json", lambda d: d.update(subsets={})),
            ("synth_result.json", lambda d: d.update(g=0)),
        ],
        ids=[
            "decimal-c1", "pattern-twice", "bundle-m-edited", "bundle-kernel-group",
            "bundle-bogus-mode", "bundle-subsets-object", "bundle-identity-g",
        ],
    )
    def test_real_artifact_edited_is_rejected(self, capsys, tmp_path, name, edit):
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / name
        data = read_json(path)
        edit(data)
        write_json_atomic(path, data)
        code, out, err = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read certificate {path}")
        assert out == ""

    def test_unshattered_certificate_is_not_counted(self, capsys, tmp_path):
        path = tmp_path / "certificate.json"
        write_json_atomic(
            path, {"group": "cyclic:8", "dichotomies": [], "shattered": False, "m": 3}
        )
        code, out, _ = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 0
        row8 = next(l for l in out.splitlines() if l.strip().startswith("8"))
        assert row8.split()[-1] == "-"

    def test_achieved_from_a_synth_bundle(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", "--group", "cyclic:8", "--m", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "bounds", "--n", "8",
            "--achieved", str(tmp_path / "synth_result.json"),
        )
        assert code == 0
        row8 = next(l for l in out.splitlines() if l.strip().startswith("8"))
        assert row8.split()[-1] == "2"

    def verify_output(self, capsys, bundle, path, edit=lambda d: None):
        code, _, _ = run(
            capsys, "verify", "--kernel", str(bundle / "kernel.json"),
            "--functions", str(bundle / "functions.json"), "--out", str(path),
        )
        assert code == 0
        data = read_json(path)
        edit(data)
        write_json_atomic(path, data)
        return run(capsys, "bounds", "--n", "8", "--achieved", str(path))

    def test_achieved_from_verify_output(self, capsys, cyclic8_bundle, tmp_path):
        code, out, _ = self.verify_output(capsys, cyclic8_bundle, tmp_path / "v.json")
        assert code == 0
        row8 = next(l for l in out.splitlines() if l.strip().startswith("8"))
        assert row8.split()[-1] == "2"

    @pytest.mark.parametrize(
        "edit",
        [lambda d: d.update(agreement=False), lambda d: d.update(shattered=False)],
        ids=["verdicts-disagree", "shattered-differs-from-certificate"],
    )
    def test_verify_output_counted_only_when_verdicts_say_so(
        self, capsys, cyclic8_bundle, tmp_path, edit
    ):
        code, out, _ = self.verify_output(
            capsys, cyclic8_bundle, tmp_path / "v.json", edit
        )
        assert code == 0
        row8 = next(l for l in out.splitlines() if l.strip().startswith("8"))
        assert row8.split()[-1] == "-"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(agreement="true"),
            lambda d: d.update(shattered=1),
            lambda d: d.pop("agreement"),
            lambda d: d["certificate"].update(shattered=False),
        ],
        ids=["string-agreement", "int-shattered", "no-agreement", "bad-certificate"],
    )
    def test_malformed_verify_output(self, capsys, cyclic8_bundle, tmp_path, edit):
        path = tmp_path / "v.json"
        code, out, err = self.verify_output(capsys, cyclic8_bundle, path, edit)
        assert code == 2
        assert err.startswith(f"error: cannot read certificate {path}")
        assert out == ""

    @pytest.mark.parametrize(
        "name",
        ["kernel.json", "functions.json", "orders.json", "verify_report.json",
         "run_manifest.json"],
    )
    def test_other_artifacts_rejected(self, capsys, cyclic8_bundle, name):
        path = cyclic8_bundle / name
        code, out, err = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 2
        assert err == (
            f"error: cannot read certificate {path}: "
            "not a certificate, verify output or synth bundle\n"
        )
        assert out == ""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(epsilon="1/1000"),
            lambda d: d["kernel"]["values"].__setitem__(d["subsets"][0][0], "0"),
            lambda d: d["ms"].__setitem__(0, "3/2"),
        ],
        ids=["epsilon", "spike-zeroed", "level-edited"],
    )
    def test_bundle_failing_verify_synth_is_not_counted(
        self, capsys, cyclic8_bundle, tmp_path, edit
    ):
        data = read_json(cyclic8_bundle / "synth_result.json")
        edit(data)
        path = tmp_path / "synth_result.json"
        write_json_atomic(path, data)
        code, out, _ = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 0
        row8 = next(l for l in out.splitlines() if l.strip().startswith("8"))
        assert row8.split()[-1] == "-"

    @pytest.mark.parametrize("group", [5, ["cyclic:8"]])
    def test_non_string_group_in_achieved(self, capsys, tmp_path, group):
        path = tmp_path / "certificate.json"
        write_json_atomic(
            path, {"group": group, "dichotomies": [], "shattered": True, "m": 2}
        )
        code, _, err = run(capsys, "bounds", "--n", "8", "--achieved", str(path))
        assert code == 2
        assert err.startswith("error:")


class TestUnwritableOutput:
    """An output path under a regular file exits 2, never 1 or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["group", "--spec", "cyclic:4", "--out", "{blocked}/report.json"],
            ["orders", "--m", "2", "--out-dir", "{blocked}/out"],
            ["synth", "--group", "cyclic:8", "--m", "2", "--out-dir", "{blocked}/out"],
            ["verify", "--kernel", "{bundle}/kernel.json",
             "--functions", "{bundle}/functions.json", "--out", "{blocked}/v.json"],
            ["bounds", "--n", "8", "--csv", "{blocked}/bounds.csv"],
            ["bounds", "--n", "8", "--json", "{blocked}/bounds.json"],
        ],
        ids=["group", "orders", "synth", "verify", "bounds-csv", "bounds-json"],
    )
    def test_exits_2(self, capsys, tmp_path, cyclic8_bundle, argv):
        blocked = tmp_path / "a-file"
        blocked.write_text("")
        argv = [a.format(blocked=blocked, bundle=cyclic8_bundle) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: cannot write {blocked}")
        assert "Traceback" not in err


# One instance of each error a command may raise, with its documented exit code.
ERROR_EXIT_CODES = [
    (GroupSpecError("unknown group spec"), 2),
    (GroupTooSmallError(10, 48, "order_two"), 3),
    (ModeElementError("group cyclic:81 has no suitable element"), 4),
    (SynthesisVerificationError("a self-check failed"), 5),
    (WitnessVerificationError("a witness failed"), 5),
    (InvariantError("an invariant failed"), 5),
    (OSError(errno.EACCES, "Permission denied", "out/kernel.json"), 2),
]


def _error_classes(cls: type) -> set[type]:
    return {cls} | {c for sub in cls.__subclasses__() for c in _error_classes(sub)}


class TestExitCodeContract:
    def test_every_error_class_has_an_exit_code(self):
        classes = _error_classes(GShatterError) - {GShatterError}
        assert classes <= {type(exc) for exc, _ in ERROR_EXIT_CODES}

    @pytest.mark.parametrize(
        "exc, code", ERROR_EXIT_CODES, ids=[type(e).__name__ for e, _ in ERROR_EXIT_CODES]
    )
    def test_raised_from_a_command(self, capsys, monkeypatch, exc, code):
        def command(args):
            raise exc

        monkeypatch.setattr(gshatter.cli, "cmd_group", command)
        got, _, err = run(capsys, "group", "--spec", "cyclic:2")
        assert got == code
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestOptimizedInterpreter:
    """The acceptance path under `python -O`, where `assert` is stripped."""

    @staticmethod
    def pipeline(directory: Path, *flags: str) -> list[str]:
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(gshatter.gfunc.__file__).parent.parent),
        }
        outputs = []
        for argv in (
            ["synth", "--group", "cyclic:18", "--m", "3", "--out-dir", "out"],
            ["verify", "--kernel", "out/kernel.json",
             "--functions", "out/functions.json"],
        ):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "gshatter.cli", *argv],
                cwd=directory, env=env, capture_output=True, text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        return outputs

    def test_synth_and_verify_match_the_plain_run(self, tmp_path):
        plain, optimized = tmp_path / "plain", tmp_path / "optimized"
        plain.mkdir()
        optimized.mkdir()
        assert self.pipeline(optimized, "-O") == self.pipeline(plain)
        names = sorted(p.name for p in (plain / "out").iterdir())
        assert names == sorted(p.name for p in (optimized / "out").iterdir())
        for name in names:
            if name != "run_manifest.json":  # holds timestamps
                assert sha256_of_file(optimized / "out" / name) == sha256_of_file(
                    plain / "out" / name
                ), name


class TestParser:
    def test_readme_names_every_option(self):
        # The options in README's "Command line" section are the parser's.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Command line")[1]
        documented = set(re.findall(r"--[a-z][a-z-]*", section.split("\n## ")[0]))
        parsed = set().union(*(long_options(p) for p in subcommands().values()))
        assert documented == parsed

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
