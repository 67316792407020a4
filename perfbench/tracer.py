"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install` replaces selected public functions of gshatter's modules
with timing wrappers.  A module that imported a function by name holds
its own reference (classifier and synth import `convolve`, cli imports
`read_json`), so the wrapper is installed under every name, in every
loaded gshatter module, that is bound to the original function object.

Each call is a span.  A span's self time is its duration minus the time
its direct child spans cover, so nested layers are never counted twice.
The tracer's own bookkeeping is timed, excluded from the enclosing span
and reported as `trace_overhead_s`.  A function that the package no
longer has is listed in `absent`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter
from typing import Any, Callable, Optional

# (module, function) pairs whose calls become spans named "module.function".
TRACED = (
    ("cli", "main"),
    ("gfunc", "convolve"),
    ("classifier", "nu"),
    ("classifier", "build_nu_profile"),
    ("classifier", "classify"),
    ("shatter", "is_shattered"),
    ("shatter", "check_order_criterion"),
    ("synth", "synth_kernel"),
    ("synth", "verify_synth"),
    ("groups", "build_group"),
    ("groups", "validate_group"),
    ("orders", "build_complete_orders"),
    ("jsonio", "write_json_atomic"),
    ("jsonio", "read_json"),
)

# Per-layer metrics of a traced run: name -> (unit, better).
LAYER_METRICS = {
    "gfunc.convolve_s": ("s", "lower"),
    "gfunc.convolve_calls": ("count", "lower"),
    "gfunc.convolve_distinct": ("count", "lower"),
    "gfunc.convolve_useful_ratio": ("ratio", "higher"),
    "gfunc.value_max_bits": ("bits", "lower"),
    "classifier.nu_s": ("s", "lower"),
    "classifier.nu_calls": ("count", "lower"),
    "classifier.build_nu_profile_s": ("s", "lower"),
    "classifier.breakpoints": ("count", "lower"),
    "classifier.classify_calls": ("count", "lower"),
    "shatter.is_shattered_s": ("s", "lower"),
    "shatter.is_shattered_calls": ("count", "lower"),
    "shatter.check_order_criterion_s": ("s", "lower"),
    "shatter.critical_points": ("count", "lower"),
    "shatter.probes": ("count", "lower"),
    "synth.synth_kernel_s": ("s", "lower"),
    "synth.verify_synth_s": ("s", "lower"),
    "synth.verify_synth_calls": ("count", "lower"),
    "synth.kernel_max_bits": ("bits", "lower"),
    "groups.build_group_s": ("s", "lower"),
    "groups.validate_group_s": ("s", "lower"),
    "orders.build_complete_orders_s": ("s", "lower"),
    "jsonio.write_s": ("s", "lower"),
    "jsonio.read_s": ("s", "lower"),
    "jsonio.bytes_written": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "span_coverage": ("ratio", "higher"),
    "trace_overhead_s": ("s", "lower"),
}

# Stands for the result of a call that raised.
_RAISED = object()

# Counters that keep a maximum rather than a sum.
MAX_COUNTERS = ("gfunc.value_max_bits", "synth.kernel_max_bits")


def _add_count(counters: dict[str, int], name: str, amount: int) -> None:
    if name in MAX_COUNTERS:
        counters[name] = max(counters.get(name, 0), amount)
    else:
        counters[name] = counters.get(name, 0) + amount


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.top_level_s = 0.0
        self.overhead_s = 0.0
        self.absent: list[str] = []
        self._child_s: list[float] = []  # one entry per open span
        self._convolutions: set[tuple] = set()

    def count(self, name: str, amount: int) -> None:
        _add_count(self.counters, name, amount)

    def install(self) -> None:
        """Wrap every TRACED function wherever a gshatter module bound it."""
        for module_name, function_name in TRACED:
            name = f"{module_name}.{function_name}"
            module = importlib.import_module(f"gshatter.{module_name}")
            original = getattr(module, function_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "")
                if loaded_name != "gshatter" and not loaded_name.startswith("gshatter."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

    def _wrap(self, name: str, function: Callable) -> Callable:
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            entered = perf_counter()
            stack = self._child_s
            stack.append(0.0)
            result = _RAISED
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                children = stack.pop()
                duration = end - start
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
                self.calls[name] = self.calls.get(name, 0) + 1
                if hook is not None and result is not _RAISED:
                    try:
                        hook(result)
                    except (AttributeError, TypeError):
                        # The function now returns something else: its
                        # counters are absent, the call itself still counts.
                        if f"{name} result" not in self.absent:
                            self.absent.append(f"{name} result")
                done = perf_counter()
                overhead = (start - entered) + (done - end)
                self.overhead_s += overhead
                if stack:
                    stack[-1] += duration + overhead
                else:
                    self.top_level_s += duration

        return wrapper

    def _after_gfunc_convolve(self, result) -> None:
        if result.values not in self._convolutions:
            self._convolutions.add(result.values)
            self.count("gfunc.convolve_distinct", 1)
            self.count("gfunc.value_max_bits", max_bits(result.values))

    def _after_classifier_build_nu_profile(self, result) -> None:
        self.count("classifier.breakpoints", len(result.breakpoints))

    def _after_synth_synth_kernel(self, result) -> None:
        self.count("synth.kernel_max_bits", max_bits(result.kernel.values))

    def _after_jsonio_write_json_atomic(self, result) -> None:
        # The run manifest records timestamps, so its size varies by run.
        if os.path.basename(result) != "run_manifest.json":
            self.count("jsonio.bytes_written", os.path.getsize(result))

    def count_critical(self, kernel, fs, mu) -> None:
        """Critical points and probes of one instance, from an untimed call."""
        from gshatter import shatter

        critical_points: Optional[Callable] = getattr(shatter, "critical_points", None)
        if critical_points is None:
            if "shatter.critical_points" not in self.absent:
                self.absent.append("shatter.critical_points")
            return
        enabled, self.enabled = self.enabled, False
        try:
            critical = critical_points(kernel, fs, mu)
        finally:
            self.enabled = enabled
        self.count("shatter.critical_points", len(critical.points))
        self.count("shatter.probes", len(critical.probes))

    def snapshot(self, op_s: float) -> dict[str, Any]:
        return {
            "op_s": op_s,
            "self_s": self.self_s,
            "calls": self.calls,
            "counters": self.counters,
            "top_level_s": self.top_level_s,
            "overhead_s": self.overhead_s,
            "absent": self.absent,
        }


def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum the snapshots of several operations (maxima stay maxima)."""
    total: dict[str, Any] = {
        "op_s": 0.0, "self_s": {}, "calls": {}, "counters": {},
        "top_level_s": 0.0, "overhead_s": 0.0, "absent": [],
    }
    for snap in snapshots:
        for key in ("op_s", "top_level_s", "overhead_s"):
            total[key] += snap[key]
        for key in ("self_s", "calls"):
            for name, value in snap[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, value in snap["counters"].items():
            _add_count(total["counters"], name, value)
        total["absent"] = sorted(set(total["absent"]) | set(snap["absent"]))
    return total


def layer_metrics(snap: dict[str, Any]) -> dict[str, float]:
    """Per-layer metric values from one (possibly merged) snapshot."""
    self_s, calls, counters = snap["self_s"], snap["calls"], snap["counters"]
    convolve_calls = calls.get("gfunc.convolve", 0)
    distinct = counters.get("gfunc.convolve_distinct", 0)
    cli_self = self_s.get("cli.main", 0.0)
    return {
        "gfunc.convolve_s": self_s.get("gfunc.convolve", 0.0),
        "gfunc.convolve_calls": convolve_calls,
        "gfunc.convolve_distinct": distinct,
        "gfunc.convolve_useful_ratio": distinct / convolve_calls if convolve_calls else 0.0,
        "gfunc.value_max_bits": counters.get("gfunc.value_max_bits", 0),
        "classifier.nu_s": self_s.get("classifier.nu", 0.0),
        "classifier.nu_calls": calls.get("classifier.nu", 0),
        "classifier.build_nu_profile_s": self_s.get("classifier.build_nu_profile", 0.0),
        "classifier.breakpoints": counters.get("classifier.breakpoints", 0),
        "classifier.classify_calls": calls.get("classifier.classify", 0),
        "shatter.is_shattered_s": self_s.get("shatter.is_shattered", 0.0),
        "shatter.is_shattered_calls": calls.get("shatter.is_shattered", 0),
        "shatter.check_order_criterion_s": self_s.get("shatter.check_order_criterion", 0.0),
        "shatter.critical_points": counters.get("shatter.critical_points", 0),
        "shatter.probes": counters.get("shatter.probes", 0),
        "synth.synth_kernel_s": self_s.get("synth.synth_kernel", 0.0),
        "synth.verify_synth_s": self_s.get("synth.verify_synth", 0.0),
        "synth.verify_synth_calls": calls.get("synth.verify_synth", 0),
        "synth.kernel_max_bits": counters.get("synth.kernel_max_bits", 0),
        "groups.build_group_s": self_s.get("groups.build_group", 0.0),
        "groups.validate_group_s": self_s.get("groups.validate_group", 0.0),
        "orders.build_complete_orders_s": self_s.get("orders.build_complete_orders", 0.0),
        "jsonio.write_s": self_s.get("jsonio.write_json_atomic", 0.0),
        "jsonio.read_s": self_s.get("jsonio.read_json", 0.0),
        "jsonio.bytes_written": counters.get("jsonio.bytes_written", 0),
        "cli.self_s": cli_self,
        "span_coverage": (snap["top_level_s"] - cli_self) / snap["op_s"] if snap["op_s"] else 0.0,
        "trace_overhead_s": snap["overhead_s"],
    }
