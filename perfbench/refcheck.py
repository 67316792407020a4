"""Independent re-checks of the benchmark's outputs.

Nothing here imports gshatter.  Group tables, the group convolution and
the two-bias classifier are re-derived from their definitions, densely
and without shortcuts, so a defect in the package cannot hide inside its
own re-check:

    (f*K)(g) = sum_h f(g h^-1) K(h)
    H_{c1,c2}(K)(f) = sign( sum_g ReLU((f*K)(g) + c1) + c2 ),  sign(0) = -1

under the counting measure.  Element indices follow the package's
documented conventions: ``cyclic:n`` is Z/n, element ``i + n*e`` of
``dihedral:n`` is the rotation by i steps composed with e reflections,
and the pair (a, b) of ``product:A,B`` has index ``a * |B| + b``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Sequence


def parse_fraction(text: str) -> Fraction:
    """A rational written as ``"p"`` or ``"p/q"``."""
    num, sep, den = str(text).partition("/")
    return Fraction(int(num), int(den)) if sep else Fraction(int(num))


def group_table(spec: str) -> list[list[int]]:
    """Multiplication table of the group a spec string names."""
    table, pos = _table_at(spec, 0)
    if pos != len(spec):
        raise ValueError(f"trailing characters in group spec {spec!r}")
    return table


def _number_at(text: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise ValueError(f"expected an integer at position {pos} in {text!r}")
    return int(text[pos:end]), end


def _table_at(text: str, pos: int) -> tuple[list[list[int]], int]:
    if text.startswith("cyclic:", pos):
        n, pos = _number_at(text, pos + len("cyclic:"))
        return [[(a + b) % n for b in range(n)] for a in range(n)], pos
    if text.startswith("dihedral:", pos):
        n, pos = _number_at(text, pos + len("dihedral:"))

        def compose(x: int, y: int) -> int:
            (e1, i1), (e2, i2) = divmod(x, n), divmod(y, n)
            i = (i1 - i2) % n if e1 else (i1 + i2) % n
            return i + n * ((e1 + e2) % 2)

        return [[compose(x, y) for y in range(2 * n)] for x in range(2 * n)], pos
    if text.startswith("product:", pos):
        first, pos = _table_at(text, pos + len("product:"))
        if not text.startswith(",", pos):
            raise ValueError(f"product spec needs ',' at position {pos} in {text!r}")
        second, pos = _table_at(text, pos + 1)
        n2 = len(second)
        table = [
            [
                first[x // n2][y // n2] * n2 + second[x % n2][y % n2]
                for y in range(len(first) * n2)
            ]
            for x in range(len(first) * n2)
        ]
        return table, pos
    raise ValueError(f"unknown group spec at position {pos} in {text!r}")


def convolve(table: Sequence[Sequence[int]], f: Sequence[Fraction],
             kernel: Sequence[Fraction]) -> list[Fraction]:
    """Dense group convolution under the counting measure."""
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][g] == g for g in range(n)))
    inverse = [next(h for h in range(n) if table[g][h] == identity) for g in range(n)]
    return [
        sum((f[table[g][inverse[h]]] * kernel[h] for h in range(n)), Fraction(0))
        for g in range(n)
    ]


def classify(conv: Sequence[Fraction], c1: Fraction, c2: Fraction) -> int:
    """The classifier's label from a convolution, with sign(0) = -1."""
    total = sum((v + c1 for v in conv if v + c1 > 0), Fraction(0))
    return 1 if total + c2 > 0 else -1


def certificate_problems(
    table: Sequence[Sequence[int]],
    kernel: Sequence[Fraction],
    fs: Sequence[Sequence[Fraction]],
    dichotomies: Sequence[dict[str, Any]],
    shattered: bool,
) -> list[str]:
    """Every way a certificate disagrees with the definition.

    The certificate must list each of the 2^m label patterns once, its
    `shattered` flag must say whether all are witnessed, and every
    witness (c1, c2) must produce its pattern on re-evaluation.
    """
    m = len(fs)
    problems: list[str] = []
    patterns = [tuple(entry["labels"]) for entry in dichotomies]
    if sorted(patterns) != sorted(product((-1, 1), repeat=m)):
        problems.append(f"certificate does not list each of the {2 ** m} patterns once")
    witnessed = [e for e in dichotomies if e["status"] == "witnessed"]
    if shattered != (len(witnessed) == 2 ** m):
        problems.append(
            f"shattered={shattered} but {len(witnessed)} of {2 ** m} witnessed"
        )
    convs = [convolve(table, f, kernel) for f in fs]
    for entry in witnessed:
        c1, c2 = parse_fraction(entry["c1"]), parse_fraction(entry["c2"])
        labels = [classify(conv, c1, c2) for conv in convs]
        if labels != list(entry["labels"]):
            problems.append(
                f"witness ({c1}, {c2}) gives {labels}, not {entry['labels']}"
            )
    return problems
