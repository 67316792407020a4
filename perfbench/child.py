"""Run one benchmark operation in a fresh interpreter; print its result as JSON.

Usage: python3 perfbench/child.py '<job JSON>'

The job names the checkout's source directory, which must be on
PYTHONPATH ahead of any installed copy, and one of two kinds of work:

    {"kind": "cli", "argv": [...]}      one gshatter.cli.main(argv) call
    {"kind": "certify", "seed": s, "batch": b, "count": n}
        is_shattered and check_order_criterion on each instance of a batch

Only the call (or the loop of calls) is timed.  Input preparation,
tracing set-up, critical-point counting and serialisation of the results
happen outside it.  With "trace": true, per-layer spans are recorded.
The last line printed is the result object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from time import perf_counter

from tracer import Tracer


def run_cli(job: dict, tracer: Tracer | None) -> dict:
    import gshatter.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = gshatter.cli.main(job["argv"])
        op_s = perf_counter() - start
    if tracer is not None and "critical" in job:
        from gshatter.gfunc import counting_measure
        from gshatter.jsonio import function_family_from_json, group_function_from_json

        tracer.enabled = False
        with open(job["critical"]["kernel"], encoding="utf-8") as handle:
            kernel = group_function_from_json(json.load(handle))
        with open(job["critical"]["functions"], encoding="utf-8") as handle:
            fs = function_family_from_json(json.load(handle), kernel.group)
        tracer.count_critical(kernel, fs, counting_measure(kernel.group))
    return {"op_s": op_s, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_certify(job: dict, tracer: Tracer | None) -> dict:
    import gshatter
    from instances import certify_batch

    groups: dict[str, object] = {}
    inputs = []
    for spec, kernel, fs in certify_batch(job["seed"], job["batch"], job["count"]):
        if spec not in groups:
            groups[spec] = gshatter.build_group(spec)
        group = groups[spec]
        inputs.append((
            gshatter.GroupFunction.from_values(group, kernel),
            [gshatter.GroupFunction.from_values(group, f) for f in fs],
            gshatter.counting_measure(group),
        ))
    if tracer is not None:
        tracer.install()
    verdicts = []
    start = perf_counter()
    for kernel, fs, mu in inputs:
        verdicts.append((gshatter.is_shattered(kernel, fs, mu),
                         gshatter.check_order_criterion(kernel, fs, mu)))
    op_s = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
        for kernel, fs, mu in inputs:
            tracer.count_critical(kernel, fs, mu)
    results = [
        {
            "shattered": cert.shattered,
            "criterion": criterion,
            "dichotomies": [
                {"labels": list(e.labels), "status": e.status, "c1": str(e.c1), "c2": str(e.c2)}
                for e in cert.entries
            ],
        }
        for cert, criterion in verdicts
    ]
    return {"op_s": op_s, "exit": 0, "results": results}


def peak_rss_mb() -> float:
    """This interpreter's own peak resident set size.

    Not ru_maxrss: Linux carries the parent's high-water mark into a child
    across exec, so that would report the memory of run.py, which spawned it.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    job = json.loads(sys.argv[1])
    start = perf_counter()
    import gshatter.cli

    import_s = perf_counter() - start
    source = os.path.realpath(job["src"]) + os.sep
    if not os.path.realpath(gshatter.__file__).startswith(source):
        print(f"error: imported {gshatter.__file__}, not the copy under {source}",
              file=sys.stderr)
        return 2
    tracer = Tracer() if job.get("trace") else None
    if job["kind"] == "cli":
        if tracer is not None:
            tracer.install()
        result = run_cli(job, tracer)
    else:
        result = run_certify(job, tracer)
    result["import_s"] = import_s
    result["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.snapshot(result["op_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
