"""Source checks: invariants must survive ``python -O``.

``assert`` statements vanish under ``-O``, and a bare AssertionError ends
the command line in a traceback instead of a mapped exit code, so the
package raises typed ``GShatterError`` subclasses instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gshatter

SOURCES = sorted(Path(gshatter.__file__).parent.glob("*.py"))


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"groups.py", "orders.py", "synth.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and _raises_assertion_error(node))
    ]
    assert not offenders, f"{path.name}: assert or AssertionError at lines {offenders}"
