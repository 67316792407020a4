"""The narrated demos run to completion against the package in `src`."""

from __future__ import annotations

import os
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


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
