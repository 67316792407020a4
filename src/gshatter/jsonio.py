"""Serialization of every artifact the command line reads or writes.

Rationals travel as "p/q" strings (or "p" for integers) so nothing is
ever rounded, at any length: past the interpreter's int/str digit limit
(4 300 digits by default) a number is converted by halves.  Files are
written atomically (temp file + rename) and with sorted keys, so
identical inputs always produce byte-identical artifacts.  A file is
read once, as bytes; a caller that records its sha256 (`verify --out`'s
run manifest) has the digest computed from those same bytes, by
CPython's built-in SHA-256, which maps no OpenSSL.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence

from .errors import _quoted
from .gfunc import GroupFunction, fraction_to_str, ratio_to_str
from .groups import FiniteGroup, build_group
from .orders import OrderSet
from .shatter import DichotomyEntry, ShatterCertificate
from .synth import SynthResult


# The longest rational string read, checked before int() runs: 100 times
# the ~1 000 digits a synth at m = 12 writes.  One at the cap reads in
# about 0.04 s on a 2-core Xeon; str-to-int is quadratic past it.
MAX_RATIONAL_CHARS = 100_000


def _long_int(text: str) -> int:
    """int(text) of an optional '-' and digits at any length, by halves."""
    try:
        return int(text)
    except ValueError:
        if text[0] == "-":
            return -_long_int(text[1:])
        k = len(text) // 2
        return _long_int(text[:-k]) * 10**k + _long_int(text[-k:])


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _ratio_from_str(text: str) -> tuple[int, int]:
    """(p, q) of "p" or "p/q": ASCII digits, an optional leading '-', q > 0."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {_quoted(text)}")
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"rational over {MAX_RATIONAL_CHARS} characters: {_quoted(text)}")
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {_quoted(text)}")
    num, sep, den = text.partition("/")
    q = _long_int(den) if sep else 1
    if not q:
        raise ValueError(f"malformed rational {_quoted(text)}")
    return _long_int(num), q


def fraction_from_str(text: str) -> Fraction:
    """Parse "p" or "p/q" as `_ratio_from_str` does, into a Fraction."""
    return Fraction(*_ratio_from_str(text))


def _json_list(data: Any, what: str) -> list[Any]:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON list, got {type(data).__name__}")
    return data


def _json_rationals(data: Any, what: str) -> tuple[Fraction, ...]:
    return tuple(fraction_from_str(v) for v in _json_list(data, what))


def _json_ratios(data: Any, what: str) -> list[tuple[int, int]]:
    return [_ratio_from_str(v) for v in _json_list(data, what)]


def _json_int(data: Any, what: str, least: Optional[int] = None) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"{what} must be an integer, got {_quoted(data)}")
    if least is not None and data < least:
        raise ValueError(f"{what} must be at least {least}, got {_quoted(data)}")
    return data


def group_from_json(data: dict[str, Any], group: FiniteGroup | None = None) -> FiniteGroup:
    """The group a file names, which must be `group` when one is given."""
    if group is None:
        return build_group(data["group"])
    if data["group"] != group.label:
        raise ValueError(f"different groups: {_quoted(data['group'])} and {group.label}")
    return group


def group_function_to_json(f: GroupFunction) -> dict[str, Any]:
    return {
        "group": f.group.label,
        "values": [ratio_to_str(x, f.den) for x in f.nums],
    }


def group_function_from_json(
    data: dict[str, Any], group: FiniteGroup | None = None
) -> GroupFunction:
    group = group_from_json(data, group)
    return GroupFunction.from_ratios(group, _json_ratios(data["values"], "values"))


def function_family_to_json(fs: Sequence[GroupFunction]) -> dict[str, Any]:
    if not fs:
        raise ValueError("cannot serialize an empty family")
    return {
        "group": fs[0].group.label,
        "functions": [[ratio_to_str(x, f.den) for x in f.nums] for f in fs],
    }


def function_family_from_json(
    data: dict[str, Any], group: FiniteGroup | None = None
) -> list[GroupFunction]:
    group = group_from_json(data, group)
    return [
        GroupFunction.from_ratios(group, _json_ratios(row, "a function row"))
        for row in _json_list(data["functions"], "functions")
    ]


def order_set_to_json(order_set: OrderSet) -> dict[str, Any]:
    return {
        "m": order_set.m,
        "rankings": [list(r) for r in order_set.rankings],
    }


def certificate_to_json(cert: ShatterCertificate, group_label: str) -> dict[str, Any]:
    dichotomies = []
    for entry in cert.entries:
        item = {"labels": list(entry.labels), "status": entry.status}
        if entry.status == "witnessed":
            item.update(c1=fraction_to_str(entry.c1), c2=fraction_to_str(entry.c2))
        dichotomies.append(item)
    return {"group": group_label, "m": cert.m, "dichotomies": dichotomies,
            "shattered": cert.shattered}


def _dichotomy_from_json(item: dict[str, Any], m: int) -> DichotomyEntry:
    labels = tuple(_json_list(item["labels"], "labels"))
    if len(labels) != m or any(type(x) is not int or x not in (-1, 1) for x in labels):
        raise ValueError(f"labels must be {m} values, each -1 or 1, got {_quoted(labels)}")
    if item["status"] == "unreachable":
        return DichotomyEntry(labels, "unreachable")
    if item["status"] != "witnessed":
        raise ValueError(f"status must be witnessed or unreachable: {_quoted(item['status'])}")
    c1, c2 = fraction_from_str(item["c1"]), fraction_from_str(item["c2"])
    return DichotomyEntry(labels, "witnessed", c1, c2)


def certificate_from_json(
    data: dict[str, Any], group: FiniteGroup | None = None
) -> ShatterCertificate:
    group_from_json(data, group)
    m = _json_int(data["m"], "m", 1)
    items = _json_list(data["dichotomies"], "dichotomies")
    entries = tuple(_dichotomy_from_json(item, m) for item in items)
    if len({e.labels for e in entries}) != len(entries):
        raise ValueError("a label pattern is listed twice")
    # Distinct patterns: 2^m witnessed means all listed.  The cap keeps huge m cheap.
    witnessed = sum(e.status == "witnessed" for e in entries)
    shattered = data["shattered"]
    if not isinstance(shattered, bool) or shattered != (witnessed == 1 << min(m, 64)):
        raise ValueError(f"shattered is {_quoted(shattered)}, {witnessed} of 2^{m} witnessed")
    return ShatterCertificate(m, entries, shattered)


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
    """The bundle's fields as typed values; SynthResult checks their shape."""
    group = group_from_json(data)
    m = _json_int(data["m"], "m")
    u = _json_list(data["u"], "u")
    if len(u) != 2 * m + 2:
        raise ValueError(f"m = {m} needs {2 * m + 2} tower functions, got {len(u)}")
    return SynthResult(
        kernel=group_function_from_json(data["kernel"], group),
        u=tuple(group_function_from_json(f, group) for f in u),
        subsets=tuple(
            tuple(_json_int(x, "a centre") for x in _json_list(s, "a subset"))
            for s in _json_list(data["subsets"], "subsets")
        ),
        epsilon=fraction_from_str(data["epsilon"]),
        thresholds=_json_rationals(data["thresholds"], "thresholds"),
        ms=_json_rationals(data["ms"], "ms"),
        g=_json_int(data["g"], "g"),
        mode=data["mode"],
        B=fraction_from_str(data["B"]),
        C=fraction_from_str(data["C"]),
    )


def write_json_atomic(path: Path | str, data: Any) -> Path:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`.  An OSError while the temporary file is made, written or
    renamed names `path`, the file the caller asked for, and leaves no
    temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    tmp_name = ""
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if tmp_name and os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return path


def _sha256() -> Any:
    """A new SHA-256 hash object from CPython's built-in module.

    hashlib maps OpenSSL's libcrypto, several MB of resident memory, so it
    serves only a build without `_sha2` (3.12+) or `_sha256` (3.10-3.11).
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # a build without the built-in module
            from hashlib import sha256
    return sha256()


def read_json(path: Path | str, digest: Any = None) -> Any:
    """The parsed file; nesting too deep to parse is a ValueError.

    A `digest` (a hash object) is first fed the bytes that are parsed, so
    a digest and the data it vouches for come from one read.
    """
    raw = Path(path).read_bytes()
    if digest is not None:
        digest.update(raw)
    text = raw.decode("utf-8")
    del raw  # the bytes go before the parse, as json.load's would
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply to parse") from exc
