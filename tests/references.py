"""Slow reference implementations that the package's fast paths must match.

Each function here is the straightforward form of something the package
computes faster: the dense convolution loop, the bisect-based crossing
search over every pair on every grid piece, the ReLU sum term by term,
the witness table by comparing every value with every cut, and ranks by
counting.  The differential tests assert identical results.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from gshatter.gfunc import GroupFunction, Measure


def dense_convolve(
    f: GroupFunction, kernel: GroupFunction, mu: Measure
) -> tuple[Fraction, ...]:
    """(f * K)(g) = sum_h f(g h^-1) K(h) mu(h), every g against supp(K mu)."""
    group = f.group
    terms = [
        (h, kernel.values[h] * mu.weights[h])
        for h in range(group.order)
        if kernel.values[h] != 0 and mu.weights[h] != 0
    ]
    values = []
    for g in range(group.order):
        acc = Fraction(0)
        for h, kw in terms:
            acc += f.values[group.mul(g, group.inv(h))] * kw
        values.append(acc)
    return tuple(values)


def bisect_critical_set(profiles):
    """(points, probes, values): every pair tested on every grid piece.

    Each profile's piece on a grid piece is found by bisecting at a
    representative point inside it, and every probe is evaluated with
    its own bisect.
    """
    criticals: set[Fraction] = set()
    for p in profiles:
        criticals.update(p.breakpoints)
    grid = sorted(criticals)
    reps: list[Fraction] = []
    if grid:
        reps.append(grid[0] - 1)
        for lo, hi in zip(grid, grid[1:]):
            reps.append((lo + hi) / 2)
        reps.append(grid[-1] + 1)
    for rep_index, rep in enumerate(reps):
        lo = grid[rep_index - 1] if rep_index > 0 else None
        hi = grid[rep_index] if rep_index < len(grid) else None
        for i, j in combinations(range(len(profiles)), 2):
            pi, pj = profiles[i], profiles[j]
            si = pi.slopes[pi.piece_at(rep)]
            oi = pi.offsets[pi.piece_at(rep)]
            sj = pj.slopes[pj.piece_at(rep)]
            oj = pj.offsets[pj.piece_at(rep)]
            if si == sj:
                continue
            c = (oj - oi) / (si - sj)
            if (lo is None or lo < c) and (hi is None or c < hi):
                criticals.add(c)
    points = tuple(sorted(criticals))
    probes = [points[0] - 1] if points else [Fraction(0)]
    for lo, hi in zip(points, points[1:]):
        probes += [lo, (lo + hi) / 2]
    if points:
        probes += [points[-1], points[-1] + 1]
    values = tuple([[p.evaluate(c) for p in profiles] for c in probes])
    return points, tuple(probes), values


def termwise_relu_sum(
    conv: GroupFunction, mu: Measure, c: Fraction
) -> Fraction:
    """sum_g max(0, conv(g) + c) * mu(g), one term at a time."""
    total = Fraction(0)
    for v, w in zip(conv.values, mu.weights):
        if w != 0 and v + c > 0:
            total += (v + c) * w
    return total


def cut_witnesses(probes, values):
    """First (c1, c2) per label pattern, comparing each value with each cut."""
    found: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    for c1, row in zip(probes, values):
        cuts = sorted(set(row), reverse=True)
        cuts.append(cuts[-1] - 1)
        for threshold in cuts:
            labels = tuple(1 if v > threshold else -1 for v in row)
            found.setdefault(labels, (c1, -threshold))
    return found


def counted_ranks(values) -> tuple[int, ...]:
    """rank(k) = 1 + #{l : value_l < value_k}, counted pair by pair."""
    return tuple(1 + sum(1 for other in values if other < v) for v in values)
