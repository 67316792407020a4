"""Serialization of every artifact the command line reads or writes.

Rationals travel as "p/q" strings (or "p" for integers) so nothing is
ever rounded.  Files are written atomically (temp file + rename) and
with sorted keys, so identical inputs always produce byte-identical
artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .classifier import Ranking
from .gfunc import GroupFunction
from .groups import FiniteGroup, build_group
from .orders import OrderSet
from .shatter import DichotomyEntry, ShatterCertificate
from .synth import SynthResult


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def fraction_from_str(text: str) -> Fraction:
    """Parse "p" or "p/q": ASCII digits, an optional leading '-', q > 0."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    num, sep, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if sep else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def _json_list(data: Any, what: str) -> list[Any]:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON list, got {type(data).__name__}")
    return data


def group_function_to_json(f: GroupFunction) -> dict[str, Any]:
    return {
        "group": f.group.label,
        "values": [fraction_to_str(v) for v in f.values],
    }


def group_function_from_json(
    data: dict[str, Any], group: FiniteGroup | None = None
) -> GroupFunction:
    if group is None:
        group = build_group(data["group"])
    values = tuple(fraction_from_str(v) for v in _json_list(data["values"], "values"))
    return GroupFunction(group, values)


def function_family_to_json(fs: Sequence[GroupFunction]) -> dict[str, Any]:
    if not fs:
        raise ValueError("cannot serialize an empty family")
    return {
        "group": fs[0].group.label,
        "functions": [[fraction_to_str(v) for v in f.values] for f in fs],
    }


def function_family_from_json(
    data: dict[str, Any], group: FiniteGroup | None = None
) -> list[GroupFunction]:
    if group is None:
        group = build_group(data["group"])
    return [
        GroupFunction(
            group, tuple(fraction_from_str(v) for v in _json_list(row, "a function row"))
        )
        for row in _json_list(data["functions"], "functions")
    ]


def order_set_to_json(order_set: OrderSet) -> dict[str, Any]:
    return {
        "m": order_set.m,
        "rankings": [list(r.ranks) for r in order_set.rankings],
    }


def order_set_from_json(data: dict[str, Any]) -> OrderSet:
    return OrderSet(
        int(data["m"]),
        tuple(Ranking(tuple(int(x) for x in row)) for row in data["rankings"]),
    )


def certificate_to_json(
    cert: ShatterCertificate, group_label: str | None = None
) -> dict[str, Any]:
    dichotomies = []
    for entry in cert.entries:
        item = {"labels": list(entry.labels), "status": entry.status}
        if entry.status == "witnessed":
            item.update(c1=fraction_to_str(entry.c1), c2=fraction_to_str(entry.c2))
        dichotomies.append(item)
    data = {"m": cert.m, "dichotomies": dichotomies, "shattered": cert.shattered}
    if group_label is not None:
        data["group"] = group_label
    return data


def certificate_from_json(data: dict[str, Any]) -> ShatterCertificate:
    entries = []
    for item in data["dichotomies"]:
        status = item["status"]
        entries.append(
            DichotomyEntry(
                labels=tuple(int(x) for x in item["labels"]),
                status=status,
                c1=fraction_from_str(item["c1"]) if status == "witnessed" else None,
                c2=fraction_from_str(item["c2"]) if status == "witnessed" else None,
            )
        )
    return ShatterCertificate(
        m=int(data["m"]),
        entries=tuple(entries),
        shattered=bool(data["shattered"]),
    )


def synth_result_to_json(result: SynthResult) -> dict[str, Any]:
    return {
        "group": result.group.label,
        "m": result.m,
        "mode": result.mode,
        "g": result.g,
        "B": fraction_to_str(result.B),
        "C": fraction_to_str(result.C),
        "epsilon": fraction_to_str(result.epsilon),
        "thresholds": [fraction_to_str(c) for c in result.thresholds],
        "ms": [fraction_to_str(v) for v in result.ms],
        "subsets": [list(sub) for sub in result.subsets],
        "kernel": group_function_to_json(result.kernel),
        "u": [group_function_to_json(f) for f in result.u],
    }


def synth_result_from_json(data: dict[str, Any]) -> SynthResult:
    group = build_group(data["group"])
    return SynthResult(
        kernel=group_function_from_json(data["kernel"], group),
        u=tuple(group_function_from_json(f, group) for f in data["u"]),
        subsets=tuple(tuple(int(x) for x in sub) for sub in data["subsets"]),
        epsilon=fraction_from_str(data["epsilon"]),
        thresholds=tuple(fraction_from_str(c) for c in data["thresholds"]),
        ms=tuple(fraction_from_str(v) for v in data["ms"]),
        g=int(data["g"]),
        mode=data["mode"],
        B=fraction_from_str(data["B"]),
        C=fraction_from_str(data["C"]),
        report=None,
    )


def write_json_atomic(path: Path | str, data: Any) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def read_json(path: Path | str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256_of_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
