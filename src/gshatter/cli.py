"""Command-line interface.

Commands: group, orders, synth, verify, bounds.  Exit codes are a stable
contract:

    0  success
    1  completed but a verification verdict is negative
    2  usage or input-parsing error
    3  group too small for the requested synthesis
    4  the requested mode's group element does not exist
    5  internal invariant violation (verdict disagreement / bad witness)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .bounds import BoundReport, build_bound_report
from .classifier import build_nu_profiles
from .errors import (
    GroupSpecError,
    GroupTooSmallError,
    InvariantError,
    ModeElementError,
    SynthesisVerificationError,
    WitnessVerificationError,
    _quoted,
)
from .groups import (
    build_group,
    find_order_ge3_element,
    find_order_two_element,
    validate_group,
)
from .jsonio import (
    certificate_from_json,
    certificate_to_json,
    function_family_from_json,
    function_family_to_json,
    group_from_json,
    group_function_from_json,
    order_set_to_json,
    read_json,
    synth_result_from_json,
    synth_result_to_json,
    write_json_atomic,
    _sha256,
)
from .orders import build_complete_orders, completeness_lower_bound, is_complete
from .shatter import attained_orders, certificate, critical_set
from .synth import MODES, synth_kernel, verify_synth

DEFAULT_M_CAP = 8
ORDERS_M_CAP = 16  # C(m, m // 2) rankings: 0.5 s at the cap, twice that per step past it
GROUP_ORDER_CAP = 4096  # `group` makes n^2 exact products: 2.6-2.8 s at the cap
SYNTH_ORDER_CAP = 65536  # `synth` holds about 1.5 KB per element: 112 MB peak at the cap
# `verify` writes all 2^m label patterns: 18 functions on cyclic:2 took
# 7.5 s and 744 MB peak, and each further function doubles both.
VERIFY_M_CAP = 20

# What reading and parsing a JSON input file may raise.
_INPUT_ERRORS = (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
                 GroupSpecError)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _input_error(exc: Exception) -> str:
    """What went wrong with an input; a KeyError is a field the file lacks."""
    if isinstance(exc, KeyError):
        return f"missing field {_quoted(exc.args[0])}"
    return str(exc)


def _utc_iso(ns: int) -> str:
    """Nanoseconds since the epoch as datetime's UTC isoformat() spells
    them: whole microseconds, shown only when not zero, and +00:00."""
    seconds, micros = divmod(ns // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


class _Run:
    """Collects inputs/outputs so every command leaves a manifest."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.args = {
            k: v for k, v in vars(args).items() if k != "func" and v is not None
        }
        self.started = _utc_iso(time.time_ns())
        self.t0 = time.monotonic()
        self.inputs: dict[str, str] = {}  # path -> sha256 of the bytes parsed
        self.outputs: list[Path] = []

    def read(self, path: str | Path) -> Any:
        digest = _sha256()
        data = read_json(path, digest)
        self.inputs[str(Path(path))] = digest.hexdigest()
        return data

    def write(self, path: Path, data: Any) -> None:
        write_json_atomic(path, data)
        self.outputs.append(path)

    def finish(self, directory: Path) -> None:
        manifest = {
            "command": self.command,
            "args": self.args,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": sorted(p.name for p in self.outputs),
            "started_utc": self.started,
            "elapsed_seconds": round(time.monotonic() - self.t0, 3),
        }
        write_json_atomic(directory / "run_manifest.json", manifest)


def cmd_group(args: argparse.Namespace) -> int:
    group = build_group(args.spec)  # closed form: no product computed yet
    if group.order > GROUP_ORDER_CAP and not args.allow_large:
        return _fail(
            f"{_quoted(group.label, str)} has more than {GROUP_ORDER_CAP} elements, "
            "the default cap (pass --allow-large to override)",
            2,
        )
    report = validate_group(group, seed=args.seed)
    validation = report._asdict()
    data = {
        "spec": group.label,
        "order": group.order,
        "identity": group.identity,
        "abelian": validation.pop("abelian"),
        "order_two_element": find_order_two_element(group),
        "order_ge3_element": find_order_ge3_element(group),
        "validation": validation,
    }
    if args.out:
        write_json_atomic(Path(args.out), data)
    print(json.dumps(data, indent=2, sort_keys=True))
    return 0 if report.passed else 1


def cmd_orders(args: argparse.Namespace) -> int:
    if not 1 <= args.m <= ORDERS_M_CAP:
        return _fail(f"--m must be in [1, {ORDERS_M_CAP}], got {_quoted(args.m, str)}", 2)
    run = _Run("orders", args)
    out_dir = Path(args.out_dir)
    order_set = build_complete_orders(args.m)
    complete = is_complete(order_set)
    expected = completeness_lower_bound(args.m)
    report = {
        "m": args.m,
        "count": len(order_set.rankings),
        "minimum_possible": expected,
        "complete": complete,
        "minimal": len(order_set.rankings) == expected,
    }
    run.write(out_dir / f"order_set_m{args.m}.json", order_set_to_json(order_set))
    run.write(out_dir / f"completeness_report_m{args.m}.json", report)
    run.finish(out_dir)
    print(
        f"m={args.m}: {report['count']} rankings "
        f"(minimum {expected}), complete={complete}"
    )
    return 0 if complete and report["minimal"] else 1


def cmd_synth(args: argparse.Namespace) -> int:
    if args.m > DEFAULT_M_CAP and not args.allow_large:
        return _fail(
            f"--m {_quoted(args.m, str)} exceeds the default cap {DEFAULT_M_CAP} "
            "(pass --allow-large to override)",
            2,
        )
    if args.m < 1:
        return _fail(f"need m >= 1, got {_quoted(args.m, str)}", 2)
    group = build_group(args.group)  # closed form: nothing per element yet
    if group.order > SYNTH_ORDER_CAP and not args.allow_large:
        return _fail(
            f"{_quoted(group.label, str)} has more than {SYNTH_ORDER_CAP} elements, "
            "the default cap for synth (pass --allow-large to override)",
            2,
        )
    run = _Run("synth", args)
    out_dir = Path(args.out_dir)
    result = synth_kernel(group, args.m, args.mode)
    report = result.report
    cert = report.certificate

    bundle = synth_result_to_json(result)
    run.write(out_dir / "synth_result.json", bundle)
    run.write(out_dir / "kernel.json", bundle["kernel"])  # formatted once
    run.write(
        out_dir / "functions.json", function_family_to_json(result.family())
    )
    run.write(out_dir / "orders.json", order_set_to_json(report.orders))
    run.write(
        out_dir / "verify_report.json",
        {"passed": report.passed, "checks": [c._asdict() for c in report.checks]},
    )
    run.write(
        out_dir / "shatter_certificate.json",
        certificate_to_json(cert, group_label=group.label),
    )
    run.finish(out_dir)

    for line in report.lines():
        print(line)
    print(
        f"shattered: {cert.shattered} "
        f"({cert.witnessed_count()}/{2 ** cert.m} dichotomies witnessed)"
    )
    return 0 if report.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    run = _Run("verify", args)
    read = run.read if args.out else read_json  # only a manifest needs digests
    try:
        kernel_data = read(args.kernel)
        functions_data = read(args.functions)
        kernel = group_function_from_json(kernel_data)
        fs = function_family_from_json(functions_data, kernel.group)
    except _INPUT_ERRORS as exc:
        return _fail(f"cannot read inputs: {_input_error(exc)}", 2)
    del kernel_data, functions_data  # parsed: their value strings go now
    if not fs:
        return _fail("functions file contains no functions", 2)
    if len(fs) > VERIFY_M_CAP:
        return _fail(
            f"{len(fs)} functions exceed the cap {VERIFY_M_CAP}: a certificate "
            "lists 2^m label patterns", 2
        )
    # One sweep, two independent conclusions: the certificate is re-checked
    # on each profile's breakpoint table, the criterion decided from rankings.
    # The sweep stops once its strict rankings are complete, which settles
    # both; a family that never gets there is swept to the end.
    critical = critical_set(build_nu_profiles(kernel, fs))
    cert = certificate(critical)
    criterion = is_complete(attained_orders(critical))
    del critical  # the profiles go before the report is built and written
    agreement = criterion == cert.shattered
    data = {
        "certificate": certificate_to_json(cert, group_label=kernel.group.label),
        "order_criterion": criterion,
        "shattered": cert.shattered,
        "agreement": agreement,
    }
    if args.out:
        out_path = Path(args.out)
        run.write(out_path, data)
        run.finish(out_path.parent)
    else:
        print(json.dumps(data, indent=2, sort_keys=True))
    print(
        f"shattered={cert.shattered} order_criterion={criterion} "
        f"agreement={agreement}"
    )
    if not agreement:
        return _fail(
            "shattering verdict and order criterion disagree (internal bug)",
            5,
        )
    return 0 if cert.shattered else 1


_BOUND_COLUMNS = (*BoundReport._fields, "achieved_m")


def _achieved_from_file(path: str) -> Optional[tuple[int, int]]:
    """(|G|, m) that a certificate, verify output or synth bundle achieves."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if "kernel" in data:  # a synth bundle, counted once it passes verify_synth
        result = synth_result_from_json(data)
        return (result.group.order, result.m) if verify_synth(result).passed else None
    verdicts = (True, True)  # a certificate's own verdict is all there is
    if "certificate" in data:  # verify --out, counted when both verdicts say so
        verdicts = data["agreement"], data["shattered"]
        if not all(isinstance(v, bool) for v in verdicts):
            raise ValueError(f"agreement and shattered must be true or false, got {verdicts}")
        data = data["certificate"]
    elif "dichotomies" not in data:
        raise ValueError("not a certificate, verify output or synth bundle")
    group = group_from_json(data)
    cert = certificate_from_json(data, group)
    return (group.order, cert.m) if cert.shattered and verdicts == (True, True) else None


def cmd_bounds(args: argparse.Namespace) -> int:
    try:
        ns = [int(x) for x in args.n.split(",") if x.strip()] if args.n else []
    except ValueError:
        return _fail(f"--n expects comma-separated integers, got {_quoted(args.n)}", 2)
    if any(n < 1 for n in ns):
        return _fail("group orders must be >= 1", 2)
    achieved: dict[int, int] = {}
    for path in args.achieved or []:
        try:
            pair = _achieved_from_file(path)
        except _INPUT_ERRORS as exc:
            return _fail(f"cannot read certificate {path}: {_input_error(exc)}", 2)
        if pair is not None:
            n, m = pair
            achieved[n] = max(achieved.get(n, 0), m)
            if n not in ns:
                ns.append(n)

    rows: list[dict[str, Any]] = [
        {**build_bound_report(n)._asdict(), "achieved_m": achieved.get(n)}
        for n in sorted(set(ns))
    ]

    def fmt(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    widths = {
        col: max(len(col), *(len(fmt(r[col])) for r in rows), 1) if rows else len(col)
        for col in _BOUND_COLUMNS
    }
    header = "  ".join(col.rjust(widths[col]) for col in _BOUND_COLUMNS)
    print(header)
    for r in rows:
        print("  ".join(fmt(r[col]).rjust(widths[col]) for col in _BOUND_COLUMNS))

    if args.csv:
        import csv  # only --csv writes one

        csv_path = Path(args.csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=_BOUND_COLUMNS)
            writer.writeheader()
            for r in rows:
                writer.writerow({k: ("" if v is None else v) for k, v in r.items()})
    if args.json:
        write_json_atomic(Path(args.json), rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gshatter",
        description=(
            "Exact shattering certificates, complete order sets, kernel "
            "synthesis and capacity bounds for group-convolution classifiers."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"gshatter {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="build and validate a finite group")
    p_group.add_argument("--spec", required=True, help="e.g. cyclic:12, dihedral:4, product:cyclic:2,cyclic:3")
    p_group.add_argument("--out", help="write the report JSON here")
    p_group.add_argument("--seed", type=int, default=0, help="seed for sampled validation of large groups")
    p_group.add_argument("--allow-large", action="store_true", help=f"permit groups beyond {GROUP_ORDER_CAP} elements")
    p_group.set_defaults(func=cmd_group)

    p_orders = sub.add_parser("orders", help="build a minimum complete set of orders")
    p_orders.add_argument("--m", type=int, required=True)
    p_orders.add_argument("--out-dir", default=".", help="directory for the JSON artifacts")
    p_orders.set_defaults(func=cmd_orders)

    p_synth = sub.add_parser("synth", help="synthesize a kernel that shatters m functions")
    p_synth.add_argument("--group", required=True, help="group spec string")
    p_synth.add_argument("--m", type=int, required=True)
    p_synth.add_argument("--mode", choices=MODES, default="order_two")
    p_synth.add_argument("--out-dir", default=".", help="directory for the JSON artifacts")
    p_synth.add_argument("--allow-large", action="store_true", help=f"permit m beyond {DEFAULT_M_CAP} and groups beyond {SYNTH_ORDER_CAP} elements")
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="certify shattering for a kernel and function family")
    p_verify.add_argument("--kernel", required=True, help="kernel JSON file")
    p_verify.add_argument("--functions", required=True, help="function family JSON file")
    p_verify.add_argument("--out", help="write certificate + verdict JSON here")
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="tabulate capacity bounds per group order")
    p_bounds.add_argument("--n", default="", help="comma-separated group orders")
    p_bounds.add_argument("--csv", help="write the table as CSV here")
    p_bounds.add_argument("--json", help="write the rows as JSON here")
    p_bounds.add_argument("--achieved", action="append", help="certificate/bundle JSON adding an achieved-m column (repeatable)")
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GroupSpecError as exc:
        return _fail(str(exc), 2)
    except GroupTooSmallError as exc:
        return _fail(str(exc), 3)
    except ModeElementError as exc:
        return _fail(str(exc), 4)
    except OSError as exc:  # inputs are read inside the commands
        return _fail(f"cannot write {exc.filename}: {exc.strerror}", 2)
    except SynthesisVerificationError as exc:
        return _fail(f"internal verification failure: {exc}", 5)
    except WitnessVerificationError as exc:
        return _fail(f"witness re-verification failed: {exc}", 5)
    except InvariantError as exc:
        return _fail(f"internal invariant violated: {exc}", 5)


if __name__ == "__main__":
    sys.exit(main())
