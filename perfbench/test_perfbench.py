"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import run as bench
import tracer
from instances import BATCH_SIZE, GROUP_SPECS, PAIRS, certify_batch
from refcheck import certificate_problems, classify, convolve, group_table

from gshatter import build_group, counting_measure, is_shattered
from gshatter.classifier import classify as package_classify
from gshatter.gfunc import GroupFunction
from gshatter.gfunc import convolve as package_convolve

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_child(job: dict, tmp_path: Path) -> dict:
    job = {"src": str(ROOT / "src"), "trace": True, **job}
    proc = subprocess.run(
        [sys.executable, str(bench.CHILD), json.dumps(job)],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "spec", [*GROUP_SPECS, "cyclic:100", "dihedral:7", "product:dihedral:3,cyclic:4"]
)
def test_reference_tables_match_the_package(spec):
    assert group_table(spec) == [list(row) for row in build_group(spec).mul_table]


def test_reference_classifier_matches_the_package():
    for spec, kernel_values, fs_values in certify_batch(seed=5, batch=0, count=30):
        group = build_group(spec)
        kernel = GroupFunction.from_values(group, kernel_values)
        mu = counting_measure(group)
        table = group_table(spec)
        for values in fs_values:
            f = GroupFunction.from_values(group, values)
            conv = convolve(table, values, kernel_values)
            assert conv == list(package_convolve(f, kernel, mu).values)
            for c1, c2 in ((Fraction(0), Fraction(0)), (Fraction(-1, 3), Fraction(1, 2))):
                assert classify(conv, c1, c2) == package_classify(kernel, f, mu, c1, c2)


def test_sign_of_zero_is_negative():
    conv = [Fraction(1), Fraction(-1)]
    assert classify(conv, Fraction(0), Fraction(-1)) == -1
    assert classify(conv, Fraction(0), Fraction(-1, 2)) == 1


def test_certificate_check_catches_a_wrong_witness_and_a_wrong_flag():
    spec, kernel_values, fs_values = next(certify_batch(seed=11, batch=0, count=1))
    group = build_group(spec)
    cert = is_shattered(
        GroupFunction.from_values(group, kernel_values),
        [GroupFunction.from_values(group, f) for f in fs_values],
        counting_measure(group),
    )
    entries = [
        {"labels": list(e.labels), "status": e.status, "c1": str(e.c1), "c2": str(e.c2)}
        for e in cert.entries
    ]
    table = group_table(spec)
    assert certificate_problems(table, kernel_values, fs_values, entries, cert.shattered) == []
    assert certificate_problems(table, kernel_values, fs_values, entries, not cert.shattered)
    witnessed = next(e for e in entries if e["status"] == "witnessed")
    witnessed["labels"] = [-label for label in witnessed["labels"]]
    assert certificate_problems(table, kernel_values, fs_values, entries, cert.shattered)


def test_instances_are_seeded_and_follow_the_distribution():
    first = list(certify_batch(seed=7, batch=0, count=50))
    assert first == list(certify_batch(seed=7, batch=0, count=50))
    assert first != list(certify_batch(seed=7, batch=1, count=50))
    assert first != list(certify_batch(seed=8, batch=0, count=50))
    for spec, kernel, fs in first:
        assert 1 <= len(fs) <= 3
        assert len(kernel) == len(group_table(spec)) <= 12
        for value in [*kernel, *(v for f in fs for v in f)]:
            assert value.denominator <= 8 and abs(value) <= 16
    batch = [(spec, len(fs)) for spec, _, fs in certify_batch(seed=7, batch=0)]
    assert sorted(batch) == sorted(PAIRS * (BATCH_SIZE // len(PAIRS)))


def test_tracer_counts_every_binding_and_repeats_exactly(tmp_path):
    m = 3
    job = {"kind": "cli", "argv": ["synth", "--group", "cyclic:18", "--m", str(m),
                                   "--out-dir", "out"]}
    first = run_child(job, tmp_path)
    second = run_child(job, tmp_path)
    assert first["exit"] == 0
    for key in ("calls", "counters"):
        assert first["trace"][key] == second["trace"][key]
    # classifier and synth import convolve by name: only wrapping their
    # bindings too gives the full count, 2 * (3rm + m) + 2 * (m + 2^m m).
    r = comb(m, m // 2)
    assert first["trace"]["calls"]["gfunc.convolve"] == 2 * (3 * r * m + m) + 2 * (m + 2 ** m * m)
    assert first["trace"]["counters"]["gfunc.convolve_distinct"] == m
    assert first["trace"]["calls"]["synth.verify_synth"] == 2
    assert first["trace"]["calls"]["shatter.is_shattered"] == 2
    assert first["trace"]["absent"] == []
    metrics = tracer.layer_metrics(first["trace"])
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert 0 < metrics["span_coverage"] <= 1


def test_certify_batch_counts_repeat_exactly(tmp_path):
    job = {"kind": "certify", "seed": 3, "batch": 0, "count": 25}
    first, second = run_child(job, tmp_path), run_child(job, tmp_path)
    assert first["results"] == second["results"]
    assert first["trace"]["counters"] == second["trace"]["counters"]
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["calls"]["shatter.is_shattered"] == 25
    assert first["trace"]["counters"]["shatter.probes"] > 0


def test_peak_rss_is_the_child_own(tmp_path):
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    result = run_child({"kind": "certify", "seed": 1, "batch": 0, "count": 1}, tmp_path)
    assert result["rss_mb"] < 100
    del ballast


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", (("gfunc", "no_such_function"),))
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["gfunc.no_such_function"]
    assert tracer.layer_metrics(t.snapshot(1.0))["gfunc.convolve_calls"] == 0
    # A function whose result changed shape still counts its calls.
    assert t._wrap("gfunc.convolve", lambda: 3)() == 3
    assert t.calls == {"gfunc.convolve": 1}
    assert t.absent == ["gfunc.no_such_function", "gfunc.convolve result"]


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.LAYER_METRICS
    e2e = bench.end_to_end(bench.Run(ROOT, 1, False), [], 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: value["unit"] for name, value in e2e.items()
    }


def test_group_build_runs_checks_and_repeats_its_counters():
    untraced = run_bench(["--workload", "group-build", "--seed", "2", "--seconds", "1",
                          "--trace", "0"], ROOT)
    result = json.loads(untraced.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])
    traced = [
        json.loads(run_bench(["--workload", "group-build", "--seed", "2", "--seconds", "1",
                              "--trace", "1"], ROOT).stdout.splitlines()[-1])
        for _ in range(2)
    ]
    assert set(traced[0]["metrics"]) == set(tracer.LAYER_METRICS)
    for name, (unit, _) in tracer.LAYER_METRICS.items():
        if unit != "s" and name != "span_coverage":
            assert traced[0]["metrics"][name] == traced[1]["metrics"][name]


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "group-build", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
