"""Which standard-library modules the package loads, and when.

`hashlib` maps OpenSSL's libcrypto, several MB of resident memory, and
only a run manifest with input files hashes anything (`verify --out`;
tests/test_cli.py checks its digests); `csv` serves only `bounds --csv`.
Each case runs in a fresh interpreter, because this test process has
imported both long ago.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gshatter
from gshatter.cli import main

SRC = Path(gshatter.__file__).resolve().parent.parent
LAZY = ("hashlib", "_hashlib", "csv")

# Prints the LAZY modules that the statements after the first line loaded;
# the interpreter's own start-up (site, .pth files) is not counted.
PROBE = """\
import json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(body: str, cwd: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stdout.splitlines()[-1])
    return [name for name in LAZY if name in new]


def cli_run(*argv: str) -> str:
    return f"from gshatter.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.mark.parametrize(
    "body",
    [
        "import gshatter.cli",
        "import gshatter",
        cli_run("group", "--spec", "cyclic:12"),
        cli_run("synth", "--group", "cyclic:8", "--m", "2", "--out-dir", "out"),
        cli_run("bounds", "--n", "8", "--json", "bounds.json"),
    ],
    ids=["import-cli", "import-package", "group", "synth", "bounds-json"],
)
def test_no_command_but_a_manifest_with_inputs_loads_them(body, tmp_path):
    assert loaded_by(body, tmp_path) == []


def test_verify_without_out_loads_no_hash(tmp_path):
    assert main(["synth", "--group", "cyclic:8", "--m", "2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    body = cli_run("verify", "--kernel", "out/kernel.json",
                   "--functions", "out/functions.json")
    assert loaded_by(body, tmp_path) == []

