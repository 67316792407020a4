"""Source checks on the package.

Invariants must survive ``python -O``: ``assert`` statements vanish under
``-O``, and a bare AssertionError ends the command line in a traceback
instead of a mapped exit code, so the package raises typed
``GShatterError`` subclasses instead.  And no name outlives its last
use: a private module-level one must be read somewhere in the package, a
public function or class read in the package, its demos or its benchmark
(exporting it from ``gshatter`` is no use) unless ``UNREAD_EXPORTS`` names
it with its reason, a public method or property of a package class read
as an attribute in the package, its demos or its benchmark, and an
imported name read in the module that imports it.  The counting measure
stays at the API's edge: `Measure`, `counting_measure` and a parameter
`mu` occur only where ``MEASURE_SITES`` names them.  Only ``cli.py``
catches a ``GShatterError``, to map it to an exit code: a check reports
its finding by returning it, not by raising for its caller to catch.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gshatter
import gshatter.errors

SOURCES = sorted(Path(gshatter.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# Everything that may call the package: itself, its demos and its benchmark.
READERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


# Public functions that no package module, demo or benchmark reads yet,
# each with the reason it stays.
UNREAD_EXPORTS = {
    "indicator": "K = 1_e, the kernel of the small-order capacity search",
    "lower_bound_at_most": "the exact lower-bound verdict of the bounds table",
}


# The only places, by module and top-level definition, that name the
# measure: the entry points that still take one, and the imports they need.
MEASURE_SITES = {
    ("gfunc.py", "Measure"), ("gfunc.py", "counting_measure"), ("gfunc.py", "convolve"),
    ("classifier.py", "import"), ("classifier.py", "classify"),
    ("shatter.py", "import"), ("shatter.py", "critical_points"),
    ("shatter.py", "is_shattered"), ("shatter.py", "check_order_criterion"),
    ("__init__.py", "import"),
}


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


def _group_constructions(tree: ast.Module) -> list[int]:
    """Lines that call ``FiniteGroup(...)``, by name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "FiniteGroup" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "groups.py"], ids=lambda p: p.name
)
def test_every_group_comes_from_a_spec(path):
    """Only ``groups.py`` builds a ``FiniteGroup``, so every group has a spec label."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = _group_constructions(tree)
    assert not calls, f"{path.name}: FiniteGroup(...) called at lines {calls}"


def test_group_construction_is_caught():
    tree = ast.parse(
        "from . import groups\nfrom .groups import FiniteGroup\n"
        "def table(n: int) -> FiniteGroup:\n"
        "    return FiniteGroup(n, 0, mul, inv, 'table')\n"
        "other = groups.FiniteGroup(1, 0, mul, inv, 'x')\n"
        "isinstance(other, FiniteGroup)\n"
    )
    assert _group_constructions(tree) == [4, 5]


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level ``_name`` definitions: functions, classes, assignments."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [
            (name, node.lineno)
            for name in names
            if name.startswith("_") and not name.startswith("__")
        ]
    return found


def _uses(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported anywhere in a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _public_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level public functions and classes."""
    return [
        (node.name, node.lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused(definitions, sources=SOURCES, readers=SOURCES) -> list[str]:
    """Names `definitions` finds in `sources` that no module of `readers`
    reads or imports.  An ``__init__.py`` is no reader: exporting a name
    is no use of it."""
    used = set().union(*(_uses(_parse(p)) for p in readers if p.name != "__init__.py"))
    return [
        f"{path.name}:{lineno} {ident}"
        for path in sources
        for ident, lineno in definitions(_parse(path))
        if ident not in used
    ]


def test_every_private_name_is_used():
    unused = _unused(_private_definitions)
    assert not unused, f"private names nothing in the package uses: {unused}"


def test_every_public_name_is_used():
    unused = [
        name for name in _unused(_public_definitions, readers=READERS)
        if name.rpartition(" ")[2] not in UNREAD_EXPORTS
    ]
    assert not unused, (
        f"public functions and classes nothing in the package, demos or "
        f"perfbench uses: {unused}"
    )


def test_every_unread_export_is_unread_and_exported():
    """An allow-listed name leaves the list once something reads it."""
    exported = _uses(_parse(Path(gshatter.__file__)))
    unread = {
        name.rpartition(" ")[2] for name in _unused(_public_definitions, readers=READERS)
    }
    assert set(UNREAD_EXPORTS) <= unread & exported


def _public_methods(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, name, line) of each public method or property of a module-level class."""
    return [
        (cls.name, node.name, node.lineno)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _attributes_read(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_readers_are_found():
    assert {p.parent.name for p in READERS} == {"gshatter", "demos", "perfbench"}


def test_every_public_method_is_read():
    read = set().union(
        *(_attributes_read(ast.parse(p.read_text(encoding="utf-8"))) for p in READERS)
    )
    unread = [
        f"{path.name}:{lineno} {cls}.{name}"
        for path in SOURCES
        for cls, name, lineno in _public_methods(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if name not in read
    ]
    assert not unread, (
        f"public methods nothing in the package, demos or perfbench reads: {unread}"
    )


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Names a module imports and never reads; ``from __future__`` is exempt."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        found += [(name, node.lineno) for name in names if name not in read]
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_read(path):
    """``__init__.py`` is exempt: its imports are the export list."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name}: imported names it never reads: {unused}"


def test_unused_import_is_caught():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\n"
        "from itertools import chain, groupby\n"
        "os.path.join(js.dumps(list(chain())))\n"
    )
    assert _unused_imports(tree) == [("groupby", 4)]
    assert _unused_imports(ast.parse("import csv\n")) == [("csv", 1)]


def test_unused_private_name_is_caught():
    tree = ast.parse("def _window_offsets():\n    pass\n\ndef used():\n    pass\n")
    assert _private_definitions(tree) == [("_window_offsets", 1)]
    assert "_window_offsets" not in _uses(tree)


def test_unused_public_name_is_caught():
    tree = ast.parse(
        "def order_set_from_json(data):\n    pass\n\n"
        "class Used:\n    pass\n\nUsed()\n"
    )
    assert _public_definitions(tree) == [("order_set_from_json", 1), ("Used", 4)]
    assert "order_set_from_json" not in _uses(tree)
    assert "Used" in _uses(tree)
    exported = ast.parse("from .jsonio import order_set_from_json\n")
    assert "order_set_from_json" in _uses(exported)


def test_exported_unread_function_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import planted, used\n")
    (package / "mod.py").write_text("def planted():\n    pass\n\ndef used():\n    pass\n")
    demo = tmp_path / "demo.py"
    demo.write_text("from pkg import used\n\nused()\n")
    sources = sorted(package.glob("*.py"))
    assert _unused(_public_definitions, sources, [*sources, demo]) == ["mod.py:1 planted"]
    assert _unused(_public_definitions, sources, sources) == [
        "mod.py:1 planted", "mod.py:4 used"
    ]


def test_unread_public_method_is_caught():
    tree = ast.parse(
        "class Tower:\n"
        "    def u_tilde(self, i, k):\n        pass\n\n"
        "    @property\n    def p(self):\n        pass\n\n"
        "    def _spread(self):\n        pass\n\n"
        "Tower().p\n"
    )
    assert _public_methods(tree) == [("Tower", "u_tilde", 2), ("Tower", "p", 6)]
    assert _attributes_read(tree) == {"p"}
    assert "u_tilde" in _attributes_read(ast.parse("tower.u_tilde(2, k)\n"))
    assert not _attributes_read(ast.parse("tower.u_tilde = None\n"))


def _site(top: ast.stmt) -> str:
    """A top-level statement's name: its definition's, "import", or its line."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return top.name
    return "import" if isinstance(top, (ast.Import, ast.ImportFrom)) else f"line {top.lineno}"


def _measure_sites(tree: ast.Module) -> set[str]:
    """The top-level statements that name `Measure` or `counting_measure`,
    define either, or take a parameter `mu`."""
    names = {"Measure", "counting_measure"}
    return {
        _site(top)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
        or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
        or isinstance(node, ast.arg) and node.arg == "mu"
    }


def test_the_measure_stays_at_the_edge():
    found = {(path.name, site) for path in SOURCES for site in _measure_sites(_parse(path))}
    assert found <= MEASURE_SITES, f"the measure reached further: {found - MEASURE_SITES}"


def test_a_measure_past_the_edge_is_caught():
    tree = ast.parse(
        "from .gfunc import Measure, counting_measure\n"
        "def build(kernel, fs, mu):\n    pass\n\n"
        "def run(kernel, fs):\n    return build(kernel, fs, gfunc.counting_measure(kernel.group))\n\n"
        "def mean(xs):\n    return sum(xs) / len(xs)\n\n"
        "DEFAULT = Measure(group)\n"
    )
    assert _measure_sites(tree) == {"import", "build", "run", "line 11"}


# GShatterError and its subclasses, by name.
PACKAGE_ERRORS = {
    name
    for name, obj in vars(gshatter.errors).items()
    if isinstance(obj, type) and issubclass(obj, gshatter.errors.GShatterError)
}


def _package_errors_caught(tree: ast.Module) -> list[int]:
    """Lines of the ``except`` clauses that name a package error."""
    return sorted(
        handler.lineno
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        and any(
            isinstance(node, ast.Name) and node.id in PACKAGE_ERRORS
            or isinstance(node, ast.Attribute) and node.attr in PACKAGE_ERRORS
            for node in ast.walk(handler.type)
        )
    )


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name
)
def test_only_the_command_line_catches_package_errors(path):
    lines = _package_errors_caught(_parse(path))
    assert not lines, f"{path.name}: a package error is caught at lines {lines}"


def test_a_caught_package_error_is_caught():
    tree = ast.parse(
        "try:\n    check()\nexcept SynthesisVerificationError as exc:\n    pass\n"
        "try:\n    check()\nexcept (ValueError, errors.GShatterError):\n    pass\n"
        "try:\n    check()\nexcept ValueError:\n    pass\n"
        "try:\n    check()\nexcept:\n    pass\n"
    )
    assert PACKAGE_ERRORS >= {"GShatterError", "SynthesisVerificationError"}
    assert _package_errors_caught(tree) == [3, 7]
