"""The exit-code contract under fuzzing: every input ends in 0..5.

Hypothesis draws the inputs, derandomized, so a run is repeatable:
mutations of the artifacts of `synth --group cyclic:18 --m 3` and of that
bundle's `verify --out` file, fed to `verify` and `bounds --achieved`;
group spec strings (groups of at most 32 elements, and product specs
nested past MAX_PRODUCT_DEPTH) with `--m`, `--mode` and `--seed` values,
fed to `group` and `synth`; 4 000-digit `--m` values of both signs, fed
to `synth` and `orders`, and any text as `bounds --n`.  Every call must
return a code in 0..5, no exception may escape `cli.main`, and no line
on stderr may be longer than 500 characters.  Drawn arguments are
well-formed for the parser, whose own usage errors (SystemExit 2)
`TestParser` covers.  The drawn specs also check that a group's label
builds the same group again, since the label is what files store.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gshatter.cli import main
from gshatter.groups import MAX_PRODUCT_DEPTH, build_group
from gshatter.synth import MODES

ARTIFACTS = (
    "synth_result.json",
    "kernel.json",
    "functions.json",
    "shatter_certificate.json",
    "verify_out.json",
)
FUZZ = settings(
    derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run(*argv: str) -> tuple[int, str]:
    """main(argv) and its stdout; the test fails on an exception, and on
    a stderr line over 500 characters: a message quotes only the start
    of a long input."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert type(code) is int and 0 <= code <= 5, (argv, code)
    longest = max(map(len, err.getvalue().splitlines()), default=0)
    assert longest <= 500, ([a[:40] for a in argv], longest)
    return code, out.getvalue()


def exit_code(*argv: str) -> int:
    return run(*argv)[0]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """The cyclic:18, m = 3 bundle, its verify --out file, and room for mutants."""
    out = tmp_path_factory.mktemp("fuzz")
    assert exit_code("synth", "--group", "cyclic:18", "--m", "3", "--out-dir", str(out)) == 0
    assert exit_code(
        "verify", "--kernel", str(out / "kernel.json"),
        "--functions", str(out / "functions.json"), "--out", str(out / "verify_out.json"),
    ) == 0
    return out


def paths(doc: Any, prefix: tuple = ()) -> list[tuple]:
    """The path of every value inside a JSON document, the root first."""
    found = [prefix]
    if isinstance(doc, dict):
        for key, value in doc.items():
            found += paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            found += paths(value, prefix + (index,))
    return found


LONG_DIGITS = "3" * 5000
LONG_RATIONALS = ["1/" + LONG_DIGITS, "-" + LONG_DIGITS, LONG_DIGITS + "/7", "-7/" + LONG_DIGITS]
long_rationals = st.sampled_from(LONG_RATIONALS)
small_rationals = st.sampled_from(["0", "1", "-1", "1/2", "-7/3", "2/4", "0/5", "1/0"])
rationals = st.one_of(small_rationals, long_rationals, st.sampled_from(["+1", "1.5", "1e3", ""]))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False), rationals,
    st.sampled_from(["cyclic:18", "dihedral:9", "cyclic:1", "cyclic:x",
                     "order_two", "general", "witnessed", "unreachable"]),
)
json_values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def shape(path: tuple) -> tuple:
    """A path with its list indices blanked: which field it reaches."""
    return tuple("*" if isinstance(step, int) else step for step in path)


def at(doc: Any, path: tuple) -> Any:
    for step in path:
        doc = doc[step]
    return doc


RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
MUTATIONS = {"long": long_rationals, "small": small_rationals, "replace": json_values}


def mutate(data: st.DataObject, doc: Any) -> Any:
    """doc with one value replaced, one key or item removed, or one list
    item repeated.  A rational is replaced by a 5 000-digit or a small
    rational ("long", "small"), any value by any JSON value.  The field is
    drawn first and the item in it second, so a scalar field is as likely
    as the values of a function."""
    action = data.draw(st.sampled_from(["long", "small", "replace", "delete", "repeat"]))
    everywhere = paths(doc)[1:]
    if action in ("long", "small"):
        numbers = [p for p in everywhere
                   if isinstance(at(doc, p), str) and RATIONAL.fullmatch(at(doc, p))]
        everywhere = numbers or everywhere
    if not everywhere:
        return doc
    field = data.draw(st.sampled_from(sorted({shape(p) for p in everywhere}, key=repr)))
    path = data.draw(st.sampled_from([p for p in everywhere if shape(p) == field]))
    parent, last = at(doc, path[:-1]), path[-1]
    if action in MUTATIONS:
        parent[last] = data.draw(MUTATIONS[action])
    elif action == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.append(parent[last])
    return doc


@settings(FUZZ, max_examples=100)
@given(data=st.data(), name=st.sampled_from(ARTIFACTS), count=st.integers(1, 3))
def test_mutated_artifacts(workdir, data, name, count):
    doc = json.loads((workdir / name).read_text())
    for _ in range(count):
        doc = mutate(data, doc)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 9)) == 9:  # now and then, a file cut short
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    mutant = workdir / f"mutant-{name}"
    mutant.write_text(text)
    if name in VERIFY_INPUTS:
        out = data.draw(st.sampled_from([[], ["--out", str(workdir / "out" / "v.json")]]))
        verify_with(workdir, name, mutant, *out)
    else:
        exit_code("bounds", "--achieved", str(mutant))


VERIFY_INPUTS = {"kernel.json": "--kernel", "functions.json": "--functions"}


def verify_with(workdir: Path, name: str, mutant: Path, *extra: str) -> int:
    """`verify` on the bundle's kernel and functions, `mutant` in place of `name`."""
    inputs = {flag: str(mutant if n == name else workdir / n) for n, flag in VERIFY_INPUTS.items()}
    return exit_code("verify", *(x for item in inputs.items() for x in item), *extra)


def with_value(doc: Any, path: tuple, value: Any) -> Any:
    at(doc, path[:-1])[path[-1]] = value
    return doc


# Fields a changed value makes the bundle fail verify_synth; B and C get
# values that keep 0 < B < C, so the bundle's shape stays valid.
BUNDLE_FIELDS = [("epsilon",), ("ms", 0), ("thresholds", 2), ("kernel", "values", 9),
                 ("u", 2, "values", 0)]
LONG_BOUNDS = [(("B",), "1/" + LONG_DIGITS), (("C",), LONG_DIGITS)]


def test_long_rational_in_every_field(workdir):
    """Each rational field in turn holds a 5 000-digit number.  A bundle
    then fails verify_synth, so `bounds --achieved` exits 0 and prints
    only the table header; certificates are read, and `verify` runs."""
    original = {name: (workdir / name).read_text() for name in ARTIFACTS}
    cases = [(path, value) for path in BUNDLE_FIELDS for value in LONG_RATIONALS]
    for path, value in cases + LONG_BOUNDS:
        mutant = workdir / "long-bundle.json"
        mutant.write_text(json.dumps(with_value(json.loads(original["synth_result.json"]), path, value)))
        code, out = run("bounds", "--achieved", str(mutant))
        assert (code, len(out.splitlines())) == (0, 1), (path, value[:8])
    # A negative B breaks the bundle's shape: the file is refused.
    mutant.write_text(json.dumps(with_value(json.loads(original["synth_result.json"]), ("B",), "-" + LONG_DIGITS)))
    assert exit_code("bounds", "--achieved", str(mutant)) == 2
    for name, path in [("shatter_certificate.json", ("dichotomies", 3, "c1")),
                       ("verify_out.json", ("certificate", "dichotomies", 3, "c2"))]:
        for value in LONG_RATIONALS:
            mutant = workdir / f"long-{name}"
            mutant.write_text(json.dumps(with_value(json.loads(original[name]), path, value)))
            assert exit_code("bounds", "--achieved", str(mutant)) == 0, (name, value[:8])
    # verify runs to a verdict on each, and exits 1 where it is negative.
    for name, path, codes in [("kernel.json", ("values", 9), (1, 1, 1, 1)),
                              ("functions.json", ("functions", 1, 3), (0, 1, 1, 0))]:
        for value, want in zip(LONG_RATIONALS, codes):
            mutant = workdir / f"long-{name}"
            mutant.write_text(json.dumps(with_value(json.loads(original[name]), path, value)))
            assert verify_with(workdir, name, mutant) == want, (name, value[:8])


def nested(depth: int) -> str:
    return "product:" * depth + "cyclic:1" + ",cyclic:1" * depth


@st.composite
def small_specs(draw, budget: int = 32) -> str:
    """A spec string of a group with at most `budget` elements."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "product"] if budget >= 4 else ["cyclic"]))
    if kind == "cyclic":
        return f"cyclic:{draw(st.integers(1, budget))}"
    if kind == "dihedral":
        return f"dihedral:{draw(st.integers(1, budget // 2))}"
    first_budget = draw(st.integers(1, budget // 2))
    first = draw(small_specs(first_budget))
    return f"product:{first},{draw(small_specs(budget // first_budget))}"


@settings(FUZZ, max_examples=60)
@given(spec=small_specs(), data=st.data())
def test_a_label_builds_its_group_again(spec, data):
    group = build_group(spec)  # every spec small_specs draws builds
    again = build_group(group.label)
    assert (again.label, again.order, again.identity) == (
        group.label, group.order, group.identity)
    sample = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=6))
    for x in sample:
        assert again.inv(x) == group.inv(x)
        assert [again.mul(x, y) for y in sample] == [group.mul(x, y) for y in sample]


specs = st.one_of(
    small_specs(),
    st.integers(MAX_PRODUCT_DEPTH - 1, MAX_PRODUCT_DEPTH + 3).map(nested),
    st.sampled_from([nested(990), "cyclic:0", "dihedral:0", "cyclic:" + LONG_DIGITS,
                     "product:cyclic:2", "cyclic:-3", ""]),
    st.text(alphabet="cyclidhraptou:,0123456789", max_size=30),
)


@settings(FUZZ, max_examples=60)
@given(
    spec=specs,
    m=st.one_of(st.integers(-2, 4), st.sampled_from([9, 65, 10**9])),
    mode=st.sampled_from(MODES),
    seed=st.one_of(st.integers(-5, 5), st.just(-10**40), st.just(10**40)),
)
def test_specs_and_flags(workdir, spec, m, mode, seed):
    exit_code("group", "--spec", spec, "--seed", str(seed))
    exit_code("synth", "--group", spec, "--m", str(m), "--mode", mode,
              "--out-dir", str(workdir / "synth"))


LONG_M = ["3" * 4000, "-" + "3" * 4000]


@settings(FUZZ, max_examples=30)
@given(
    m=st.sampled_from(LONG_M + ["0", "2", "9"]),
    large=st.booleans(),
    n=st.one_of(st.text(max_size=30), st.sampled_from([LONG_DIGITS, "x" * 5000, "8," + LONG_DIGITS])),
)
def test_long_arguments(workdir, m, large, n):
    allow = ["--allow-large"] if large else []
    code = exit_code("synth", "--group", "cyclic:18", "--m", m, *allow,
                     "--out-dir", str(workdir / "synth"))
    orders = exit_code("orders", "--m", m, "--out-dir", str(workdir / "orders"))
    if m in LONG_M:  # refused before any work: too large for the group, or for the cap
        assert (code, orders) == (3 if large and m[0] != "-" else 2, 2)
    exit_code("bounds", f"--n={n}")
