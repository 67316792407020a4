"""The gshatter benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-m5 --seed 1 --seconds 20 --trace 0

A single client drives a closed loop: each operation runs in a fresh
interpreter (perfbench/child.py), one at a time, and the next starts only
when the previous one has ended and its outputs have been checked.  A
run repeats its workload's pass of operations for about --seconds
(always at least one pass) and then prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, the
median pass time, peak memory); with --trace 1 they are per-layer self
times and counters from spans recorded around each module's public
functions (perfbench/tracer.py).  The line before it holds the
workload's own figures (synth_s, verify_s, certify_per_s or group_s),
the artifact digests and, when traced, the per-operation breakdown.

Workloads:
    synth-m5        gshatter synth --group cyclic:100 --m 5, then verify
    certify-random  is_shattered + check_order_criterion on 600 seeded
                    random instances, in 5 batches of 120
    group-build     gshatter group for three groups of order 1120, and
                    two syntheses on cyclic:2000 the CLI must reject
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Optional

from instances import BATCH_SIZE, BATCHES, certify_batch
from refcheck import certificate_problems, group_table, parse_fraction
from tracer import LAYER_METRICS, layer_metrics, merge

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # every run must end within 180 s

SYNTH_GROUP, SYNTH_M = "cyclic:100", 5
# (argv, expected exit code, expected group order or None for a rejection)
GROUP_OPS = (
    (["group", "--spec", "cyclic:1120"], 0, 1120),
    (["group", "--spec", "dihedral:560"], 0, 1120),
    (["group", "--spec", "product:dihedral:20,cyclic:28"], 0, 1120),
    (["synth", "--group", "cyclic:2000", "--m", "9"], 2, None),
    (["synth", "--group", "cyclic:2000", "--m", "9", "--allow-large"], 3, None),
)


class Run:
    """One benchmark run: its children, its checks and its tallies."""

    def __init__(self, root: Path, seed: int, trace: bool):
        self.root = root
        self.seed = seed
        self.trace = trace
        self.started = time.monotonic()
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss_mb = 0.0

    def rel(self, path: Path) -> str:
        return os.path.relpath(path, self.root)

    def child(self, job: dict[str, Any]) -> Optional[dict[str, Any]]:
        """Run one operation in a fresh interpreter; None if it did not finish."""
        job = {**job, "src": str(self.root / "src"), "trace": self.trace}
        remaining = self.started + RUN_LIMIT_S - time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(job)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{job['kind']} operation timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(
                f"{job['kind']} child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
            )
            return None
        result = json.loads(lines[-1])
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        return result

    def tally(self, what: str, problems: list[str], count: int = 1) -> None:
        """Record `count` attempted operations; any problem fails them."""
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(f"{what}: {p}" for p in problems)


def read_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pass:
    """The operations of one pass: their results and the pass's own figures."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, Optional[dict[str, Any]]]] = []
        self.detail: dict[str, Any] = {}

    def add(self, name: str, result: Optional[dict[str, Any]]) -> None:
        self.ops.append((name, result))

    @property
    def complete(self) -> bool:
        return all(result is not None for _, result in self.ops)

    @property
    def seconds(self) -> float:
        return sum(result["op_s"] for _, result in self.ops if result is not None)


def pass_median(passes: list[Pass]) -> Optional[float]:
    """Median time of the passes whose every operation finished."""
    done = [p.seconds for p in passes if p.complete]
    return median(done) if done else None


# --- synth-m5 -------------------------------------------------------------

def synth_pass(run: Run, index: int) -> Pass:
    out = run.work / f"synth-{index}"
    verify_out = run.work / f"verify-{index}" / "verify.json"
    inputs = {"kernel": run.rel(out / "kernel.json"),
              "functions": run.rel(out / "functions.json")}
    p = Pass()
    synth = run.child({"kind": "cli", "argv": [
        "synth", "--group", SYNTH_GROUP, "--m", str(SYNTH_M), "--out-dir", run.rel(out)]})
    p.add("synth", synth)
    digests = {path.name: sha256(path) for path in sorted(out.glob("*.json"))
               if path.name != "run_manifest.json"}
    run.tally("synth", checked(synth_problems, synth, out) + determinism_problems(run, digests))
    verify = run.child({"kind": "cli", "critical": inputs, "argv": [
        "verify", "--kernel", inputs["kernel"], "--functions", inputs["functions"],
        "--out", run.rel(verify_out)]})
    p.add("verify", verify)
    verify_digest = {verify_out.name: sha256(verify_out)} if verify_out.is_file() else {}
    run.tally("verify", checked(verify_problems, verify, out, verify_out)
              + determinism_problems(run, verify_digest))
    p.detail["digests"] = {**digests, **verify_digest}
    return p


def checked(check: Callable[..., list[str]], *args: Any) -> list[str]:
    """A check's problems, or the reason its outputs could not be read."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _reference_inputs(out: Path):
    kernel = read_json(out / "kernel.json")
    functions = read_json(out / "functions.json")
    table = group_table(kernel["group"])
    return (table, [parse_fraction(v) for v in kernel["values"]],
            [[parse_fraction(v) for v in row] for row in functions["functions"]])


def synth_problems(result: Optional[dict[str, Any]], out: Path) -> list[str]:
    if result is None:
        return ["did not finish"]
    if result["exit"] != 0:
        return [f"exit code {result['exit']}, expected 0: {result['stderr'].strip()}"]
    problems = []
    if not read_json(out / "verify_report.json").get("passed"):
        problems.append("verify_report.json does not pass")
    cert = read_json(out / "shatter_certificate.json")
    witnessed = sum(e["status"] == "witnessed" for e in cert["dichotomies"])
    if witnessed != 2 ** SYNTH_M:
        problems.append(f"{witnessed} of {2 ** SYNTH_M} patterns witnessed")
    table, kernel, fs = _reference_inputs(out)
    problems += certificate_problems(table, kernel, fs, cert["dichotomies"], cert["shattered"])
    return problems


def verify_problems(result: Optional[dict[str, Any]], out: Path, verify_out: Path) -> list[str]:
    if result is None:
        return ["did not finish"]
    if result["exit"] != 0:
        return [f"exit code {result['exit']}, expected 0: {result['stderr'].strip()}"]
    report = read_json(verify_out)
    problems = [
        f"{key} is {report.get(key)!r}, expected True"
        for key in ("agreement", "shattered", "order_criterion")
        if report.get(key) is not True
    ]
    cert = report["certificate"]
    table, kernel, fs = _reference_inputs(out)
    problems += certificate_problems(table, kernel, fs, cert["dichotomies"], cert["shattered"])
    return problems


def source_digest(root: Path) -> str:
    """Digest of the package sources: runs with equal digests run the same code."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def determinism_problems(run: Run, digests: dict[str, str]) -> list[str]:
    """Artifacts must be byte-identical across passes and runs of the same code.

    The first run of a source tree records each artifact's digest in the
    checkout; every later pass of every run is compared with it.
    """
    ledger = run.root / ".bench_work" / f"synth-m5-{source_digest(run.root)[:16]}.json"
    expected = read_json(ledger) if ledger.is_file() else {}
    problems = [f"{name} differs from earlier runs of this source tree"
                for name, digest in digests.items() if expected.get(name, digest) != digest]
    if any(name not in expected for name in digests):
        tmp = ledger.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**digests, **expected}, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, ledger)
    return problems


def synth_detail(passes: list[Pass]) -> dict[str, Any]:
    times = {name: [r["op_s"] for p in passes for n, r in p.ops if n == name and r]
             for name in ("synth", "verify")}
    return {"synth_s": median(times["synth"]) if times["synth"] else None,
            "verify_s": median(times["verify"]) if times["verify"] else None,
            "digests": passes[-1].detail["digests"]}


# --- certify-random ---------------------------------------------------------

def certify_pass(run: Run, index: int) -> Pass:
    p = Pass()
    for batch in range(BATCHES):
        result = run.child({"kind": "certify", "seed": run.seed, "batch": batch,
                            "count": BATCH_SIZE})
        p.add(f"batch-{batch}", result)
        try:
            per_instance = certify_problems(result, run.seed, batch)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            per_instance = [[f"unreadable output: {exc!r}"]] * BATCH_SIZE
        for number, problems in enumerate(per_instance):
            run.tally(f"batch {batch} instance {number}", problems)
    return p


def certify_problems(result: Optional[dict[str, Any]], seed: int, batch: int,
                     count: int = BATCH_SIZE) -> list[list[str]]:
    """One list of problems per instance of the batch."""
    if result is None:
        return [["did not finish"]] * count
    tables: dict[str, list[list[int]]] = {}
    out = []
    for (spec, kernel, fs), got in zip(certify_batch(seed, batch, count), result["results"]):
        problems = []
        if got["shattered"] != got["criterion"]:
            problems.append(f"is_shattered says {got['shattered']}, "
                            f"check_order_criterion says {got['criterion']}")
        table = tables.setdefault(spec, group_table(spec))
        problems += certificate_problems(table, kernel, fs, got["dichotomies"], got["shattered"])
        out.append(problems)
    if len(out) != count:
        out += [["no result"]] * (count - len(out))
    return out


def certify_detail(passes: list[Pass]) -> dict[str, Any]:
    seconds = pass_median(passes)
    return {"certify_per_s": BATCHES * BATCH_SIZE / seconds if seconds else None}


# --- group-build ------------------------------------------------------------

def group_pass(run: Run, index: int) -> Pass:
    p = Pass()
    for argv, expected_exit, expected_order in GROUP_OPS:
        if argv[0] == "group":
            argv = argv + ["--seed", str(run.seed)]
        else:
            argv = argv + ["--out-dir", run.rel(run.work / f"rejected-{index}")]
        result = run.child({"kind": "cli", "argv": argv})
        p.add(" ".join(argv[:3]), result)
        run.tally(" ".join(argv),
                  checked(group_problems, result, argv, expected_exit, expected_order))
    return p


def group_problems(result: Optional[dict[str, Any]], argv: list[str],
                   expected_exit: int, expected_order: Optional[int]) -> list[str]:
    if result is None:
        return ["did not finish"]
    if result["exit"] != expected_exit:
        return [f"exit code {result['exit']}, expected {expected_exit}"]
    if "Traceback" in result["stderr"]:
        return ["printed a traceback"]
    if expected_order is None:
        return [] if result["stderr"].startswith("error:") else ["no error message"]
    report = json.loads(result["stdout"])
    problems = []
    if report["spec"] != argv[2] or report["order"] != expected_order:
        problems.append(f"built {report['spec']} of order {report['order']}")
    validation = report["validation"]
    for key in ("closure", "identity", "inverses", "associativity", "translations_bijective"):
        if validation[key] is not True:
            problems.append(f"validation {key} failed")
    if validation["failures"]:
        problems.append(f"validation failures {validation['failures']}")
    if report["order_two_element"] is None:
        problems.append("no element of order two in a group of even order")
    return problems


def group_detail(passes: list[Pass]) -> dict[str, Any]:
    return {"group_s": pass_median(passes)}


WORKLOADS: dict[str, tuple[Callable[[Run, int], Pass], Callable[[list[Pass]], dict]]] = {
    "synth-m5": (synth_pass, synth_detail),
    "certify-random": (certify_pass, certify_detail),
    "group-build": (group_pass, group_detail),
}


# --- metrics ----------------------------------------------------------------

def time_setup(run: Run, samples: int) -> list[float]:
    """Wall times of fresh interpreter starts through `import gshatter.cli`."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gshatter.cli"], cwd=run.root,
                       env=run.env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(run: Run, passes: list[Pass], setup_s: float) -> dict[str, dict[str, Any]]:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": pass_median(passes) or 0.0, "unit": "s"},
        "peak_rss_mb": {"value": run.rss_mb, "unit": "MB"},
    }


def per_layer(run: Run, passes: list[Pass], detail: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Median times over the passes; counters from the first, which the others must repeat."""
    complete = [p for p in passes if p.complete]
    if not complete:
        return {name: {"value": 0, "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
    merged = [merge([r["trace"] for _, r in p.ops]) for p in complete]
    per_pass = [layer_metrics(m) for m in merged]
    detail["absent"] = merged[0]["absent"]
    detail["ops"] = [
        {"op": name, **{key: value for key, value in layer_metrics(r["trace"]).items()
                        if not key.endswith("_s")}}
        for name, r in complete[0].ops
    ]
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if unit == "s" or name == "span_coverage":
            metrics[name] = {"value": median(values), "unit": unit}
            continue
        if any(v != values[0] for v in values):
            run.problems.append(f"{name} differs between passes: {values}")
        metrics[name] = {"value": values[0], "unit": unit}
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind like on Ctrl-C: subprocess.run then kills and
    # reaps the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "gshatter" / "cli.py").is_file():
        print(f"error: no gshatter sources under {root / 'src'}; "
              "run from the root of a gshatter checkout", file=sys.stderr)
        return 2
    run = Run(root, args.seed, bool(args.trace))
    run_pass, describe = WORKLOADS[args.workload]
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up is sampled at both ends of the run, so its median spans the
        # same stretch of machine load as the passes.
        setup = [] if run.trace else time_setup(run, SETUP_SAMPLES // 2)
        measure_start = time.monotonic()
        passes: list[Pass] = []
        while True:
            pass_start = time.monotonic()
            passes.append(run_pass(run, len(passes)))
            now = time.monotonic()
            last = now - pass_start
            # Stop where the run ends nearest to --seconds, and early
            # enough that another pass cannot overrun the run limit.
            if (now - measure_start + last / 2 >= args.seconds or not passes[-1].complete
                    or now + last > run.started + RUN_LIMIT_S):
                break
        detail = {"workload": args.workload, "seed": args.seed, "passes": len(passes),
                  **describe(passes)}
        if run.trace:
            metrics = per_layer(run, passes, detail)
        else:
            setup += time_setup(run, SETUP_SAMPLES - len(setup))
            metrics = end_to_end(run, passes, median(setup))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    detail["fail_ratio"] = run.failed / run.attempted if run.attempted else 1.0
    detail["problems"] = run.problems[:20]
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
