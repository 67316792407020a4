"""Time `gshatter synth`, `verify` and `verify --out` at the minimum group
orders, and `gshatter group` on four specs.

Run from anywhere; it measures the checkout it lives in:

    python3 demos/bench_point.py --label my-change --append BENCH_gshatter.json

Cases: order_two mode for m = 2..8 on cyclic groups of the minimum order
(8, 18, 48, 100, 240, 490, 1120) and general mode for m = 8 on
cyclic:5040.  With --large it also runs order_two m = 9..12 (cyclic:2268,
5040, 10164 and 22176), which takes minutes and, at m = 12, about a
gigabyte of memory.  Each command runs in a fresh interpreter with this
checkout's `src` first on PYTHONPATH, in a temporary directory that is
removed afterwards.  `verify --out` writes its report, and a run
manifest with the sha256 of both inputs, beside the bundle.  A case
records wall seconds and the peak resident set size of each command
(`synth`, `verify`, `verify_out`), from wait4 (Linux carries the
parent's peak across exec, so sizes below this script's own, about
15 MB, are not resolved; hashing with CPython's built-in SHA-256
instead of hashlib keeps OpenSSL, about 4 MB, out of that floor; the
point's "sha256" names the module that hashed, so a point from a build
without the built-in module, whose floor is higher, can be told apart).  A
case also records the sha256 of every artifact synth wrote but
`run_manifest.json`, the one that differs between runs, and of the
`verify --out` report, as "verified/verify.json".  `gshatter group
--spec S --seed 1` runs on the three order-1120 specs of perfbench's
group-build workload and on `cyclic:4096`, the CLI's default order cap;
each records its exit code, wall seconds, peak RSS and the sha256 of
its stdout.  The point is printed as JSON, and with --append it is
added to the "points" list of a BENCH file; a case whose digests differ
from the same case in the file's previous point (on the files that
point digested) gets `"digests_differ": true`, a group whose stdout
digest differs gets `"stdout_differs": true`, and either is named on
stderr and makes the exit code 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:  # a build without the built-in module
        from hashlib import sha256

ROOT = Path(__file__).resolve().parent.parent
CASES = (
    *(("order_two", m, n) for m, n in
      ((2, 8), (3, 18), (4, 48), (5, 100), (6, 240), (7, 490), (8, 1120))),
    ("general", 8, 5040),
)
LARGE_CASES = tuple(
    ("order_two", m, n) for m, n in ((9, 2268), (10, 5040), (11, 10164), (12, 22176))
)
GROUP_SPECS = ("cyclic:1120", "dihedral:560", "product:dihedral:20,cyclic:28", "cyclic:4096")


def timed(argv: list[str], cwd: str, env: dict[str, str],
          stdout: object = subprocess.DEVNULL) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one command."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return proc.returncode, elapsed, usage.ru_maxrss / 1024


def commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def measure(label: str, selected) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    cli = [sys.executable, "-m", "gshatter.cli"]
    cases = []
    for mode, m, n in selected:
        with tempfile.TemporaryDirectory() as work:
            row: dict = {"mode": mode, "m": m, "group": f"cyclic:{n}"}
            for name, args in (
                ("synth", ["synth", "--group", row["group"], "--m", str(m),
                           "--mode", mode, "--out-dir", "out", "--allow-large"]),
                ("verify", ["verify", "--kernel", "out/kernel.json",
                            "--functions", "out/functions.json"]),
                ("verify_out", ["verify", "--kernel", "out/kernel.json",
                                "--functions", "out/functions.json",
                                "--out", "verified/verify.json"]),
            ):
                code, seconds, rss = timed(cli + args, work, env)
                row[f"{name}_exit"] = code
                row[f"{name}_s"] = round(seconds, 2)
                row[f"{name}_peak_rss_mb"] = round(rss, 1)
            digested = {path.name: path for path in sorted(Path(work, "out").glob("*"))
                        if path.name != "run_manifest.json"}  # none if synth failed
            report = Path(work, "verified", "verify.json")  # not its manifest
            if report.exists():
                digested["verified/verify.json"] = report
            row["digests"] = {name: sha256(path.read_bytes()).hexdigest()
                              for name, path in digested.items()}
            cases.append(row)
            print(json.dumps(row), file=sys.stderr, flush=True)
    groups = []
    for spec in GROUP_SPECS:
        with tempfile.TemporaryFile() as out:
            code, seconds, rss = timed(cli + ["group", "--spec", spec, "--seed", "1"],
                                       str(ROOT), env, stdout=out)
            out.seek(0)
            digest = sha256(out.read()).hexdigest()
        row = {"spec": spec, "exit": code, "s": round(seconds, 2),
               "peak_rss_mb": round(rss, 1), "stdout_sha256": digest}
        groups.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    return {
        "label": label,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sha256": sha256.__module__,
        "cases": cases,
        "groups": groups,
    }


def flag_digest_changes(point: dict, previous: dict) -> list[str]:
    """Mark each case of `point` whose digests differ from the same case
    (mode, m, group) in `previous`, and each group whose stdout digest
    differs from the same spec's there; returns the marked names.  A case
    is compared on the files `previous` digested: one it lacks is a
    difference, one `previous` did not digest (a digest added since) is
    not."""
    def name(case: dict) -> str:
        return f"{case['mode']} m={case['m']} {case['group']}"

    before = {name(c): c["digests"] for c in previous["cases"] if "digests" in c}
    for case in point["cases"]:
        if name(case) in before:
            case["digests_differ"] = any(case["digests"].get(file) != digest
                                         for file, digest in before[name(case)].items())
    before_groups = {g["spec"]: g["stdout_sha256"] for g in previous.get("groups", ())}
    for group in point.get("groups", ()):
        if group["spec"] in before_groups:
            group["stdout_differs"] = group["stdout_sha256"] != before_groups[group["spec"]]
    return ([name(c) for c in point["cases"] if c.get("digests_differ")]
            + [f"group {g['spec']}" for g in point.get("groups", ()) if g.get("stdout_differs")])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="name of this point")
    parser.add_argument("--append", metavar="FILE",
                        help="add the point to FILE's \"points\" list")
    parser.add_argument("--large", action="store_true",
                        help="also run order_two m = 9..12 (minutes, about 1 GB)")
    args = parser.parse_args()
    point = measure(args.label, CASES + LARGE_CASES if args.large else CASES)
    changed = []
    if args.append:
        path = Path(args.append)
        data = json.loads(path.read_text()) if path.exists() else {"points": []}
        if data["points"]:
            changed = flag_digest_changes(point, data["points"][-1])
        data["points"].append(point)
        path.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(point, indent=2))
    for name in changed:
        print(f"output differs from the previous point: {name}", file=sys.stderr)
    ok = all(c["synth_exit"] == c["verify_exit"] == c["verify_out_exit"] == 0
             for c in point["cases"]) and all(g["exit"] == 0 for g in point["groups"])
    return 0 if ok and not changed else 1


if __name__ == "__main__":
    sys.exit(main())
