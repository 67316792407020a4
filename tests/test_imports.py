"""Which standard-library modules the package loads, and when.

`hashlib` (with `_hashlib`) maps OpenSSL's libcrypto, several MB of
resident memory, and no command loads it.  Only a run manifest with input
files hashes anything (`verify --out`; tests/test_cli.py checks its
digests), with CPython's built-in SHA-256; `csv` serves only
`bounds --csv`.  Each case runs in a fresh interpreter, because this test
process has imported them all long ago.  The baseline of a case includes
`random`, which the package imports and which loads a built-in SHA module
for itself (`_sha2` on 3.12), so the SHA module is watched only as
`_sha256` (3.10-3.11), and `verify` without `--out` is also run with the
hash constructor made to raise.
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
from gshatter.jsonio import _sha256

SRC = Path(gshatter.__file__).resolve().parent.parent
LAZY = ("hashlib", "_hashlib", "_sha256", "csv")

# Prints the LAZY modules that the statements after the first line loaded;
# the interpreter's own start-up (site, .pth files) and what `random` loads
# for itself are not counted.
PROBE = """\
import json, random, sys
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


VERIFY = ("verify", "--kernel", "out/kernel.json", "--functions", "out/functions.json")


@pytest.fixture()
def bundle(tmp_path) -> Path:
    assert main(["synth", "--group", "cyclic:8", "--m", "2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    return tmp_path


def test_verify_without_out_loads_no_hash(bundle, monkeypatch):
    assert loaded_by(cli_run(*VERIFY), bundle) == []

    def no_hash():
        raise AssertionError("verify without --out hashed an input")

    monkeypatch.chdir(bundle)
    monkeypatch.setattr("gshatter.cli._sha256", no_hash)
    assert main(list(VERIFY)) == 0


def test_verify_out_hashes_without_openssl(bundle):
    loaded = loaded_by(cli_run(*VERIFY, "--out", "verdict.json"), bundle)
    assert not {"hashlib", "_hashlib"} & set(loaded)
    assert type(_sha256()).__module__ in {"_sha2", "_sha256"}
