"""Seeded random certification instances for the certify-random workload.

The distribution is that of the package's order-criterion acceptance
test: a group drawn uniformly from cyclic groups of order 2..12, dihedral
groups of order 4..12 and four small products; m drawn uniformly from
1..3; and every kernel and function value an independent p/q with p in
[-16, 16] and q in 1..8.

The (group, m) pairs are drawn stratified rather than independently:
each run of 60 instances takes every pair once, in a seeded order.  The
cost of an instance depends mostly on its group order and m, so this
keeps the seed from changing the mix of cheap and costly instances, and
the work per pass, while it still changes every value.

Instances are plain data (a spec string and lists of Fractions), so the
benchmark can hand them to the package in one process and re-check the
results independently in another.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from refcheck import group_table

GROUP_SPECS = (
    *(f"cyclic:{n}" for n in range(2, 13)),
    "dihedral:2",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "product:cyclic:2,cyclic:2",
    "product:cyclic:2,cyclic:3",
    "product:cyclic:3,cyclic:3",
    "product:cyclic:2,cyclic:6",
)

PAIRS = tuple((spec, m) for spec in GROUP_SPECS for m in (1, 2, 3))

# One pass of the workload certifies BATCHES * BATCH_SIZE instances, each
# batch in its own interpreter.  A batch holds every (group, m) pair twice.
BATCHES = 5
BATCH_SIZE = 2 * len(PAIRS)


Instance = tuple[str, list[Fraction], list[list[Fraction]]]


def certify_batch(seed: int, batch: int, count: int = BATCH_SIZE) -> Iterator[Instance]:
    """The batch-th batch of a seed: (group spec, kernel values, function values)."""
    rng = random.Random(f"certify-random/{seed}/{batch}")
    for index in range(count):
        if index % len(PAIRS) == 0:
            pairs = rng.sample(PAIRS, len(PAIRS))
        spec, m = pairs[index % len(PAIRS)]
        n = len(group_table(spec))

        def values() -> list[Fraction]:
            return [Fraction(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(n)]

        kernel = values()
        yield spec, kernel, [values() for _ in range(m)]
