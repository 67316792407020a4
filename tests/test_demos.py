"""The narrated demos and README's Python examples run to completion
against the package in `src`."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gshatter

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(gshatter.__file__).resolve().parent.parent

DEMOS = (
    "complete_orders_walkthrough.py",
    "synthesize_and_certify.py",
    "bounds_table.py",
    "bench_point.py",
)


# The body of every ```python block in README.md.
README_EXAMPLES = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


def run_python(args, cwd):
    """A fresh interpreter with `src` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    proc = run_python([str(ROOT / "demos" / name)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_has_python_examples():
    assert README_EXAMPLES


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_runs(index, tmp_path):
    proc = run_python(["-c", README_EXAMPLES[index]], tmp_path)
    assert proc.returncode == 0, proc.stderr


def load_bench_point():
    spec = importlib.util.spec_from_file_location(
        "bench_point", ROOT / "demos" / "bench_point.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_point_flags_changed_digests():
    bench_point = load_bench_point()

    def case(m, digest, mode="order_two"):
        return {"mode": mode, "m": m, "group": f"cyclic:{m}",
                "digests": {"kernel.json": digest}}

    # A case without digests, or absent before, is not compared.
    previous = {"cases": [case(2, "a"), case(3, "b"),
                          {"mode": "general", "m": 8, "group": "cyclic:8"}]}
    point = {"cases": [case(2, "a"), case(3, "c"), case(4, "d"), case(8, "e", "general")]}
    assert bench_point.flag_digest_changes(point, previous) == ["order_two m=3 cyclic:3"]
    assert [c.get("digests_differ") for c in point["cases"]] == [False, True, None, None]


def test_bench_point_compares_the_files_the_previous_point_digested():
    bench_point = load_bench_point()

    def case(m, **digests):
        return {"mode": "order_two", "m": m, "group": f"cyclic:{m}", "digests": digests}

    # A digest added since (the verify --out report) is not compared; one
    # the previous point had is, whether changed or missing.
    report = "verified/verify.json"
    previous = {"cases": [case(2, k="a"), case(3, k="b"), case(4, k="c", r="d"),
                          case(5, k="e", r="f")]}
    point = {"cases": [case(2, k="a", **{report: "x"}), case(3, k="z", **{report: "y"}),
                       case(4, k="c"), case(5, k="e", r="g")]}
    assert bench_point.flag_digest_changes(point, previous) == [
        "order_two m=3 cyclic:3", "order_two m=4 cyclic:4", "order_two m=5 cyclic:5"
    ]
    assert [c["digests_differ"] for c in point["cases"]] == [False, True, True, True]


def test_bench_point_flags_changed_group_stdout():
    bench_point = load_bench_point()

    def group(spec, digest):
        return {"spec": spec, "stdout_sha256": digest}

    # A previous point without groups, or a spec absent before, is not compared.
    assert bench_point.flag_digest_changes(
        {"cases": [], "groups": [group("cyclic:4", "a")]}, {"cases": []}) == []
    previous = {"cases": [], "groups": [group("cyclic:4", "a"), group("dihedral:2", "b")]}
    point = {"cases": [], "groups": [group("cyclic:4", "a"), group("dihedral:2", "c"),
                                     group("cyclic:8", "d")]}
    assert bench_point.flag_digest_changes(point, previous) == ["group dihedral:2"]
    assert [g.get("stdout_differs") for g in point["groups"]] == [False, True, None]
