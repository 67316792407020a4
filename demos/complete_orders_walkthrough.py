"""How a minimum complete set of orders is built, step by step.

A ranking of [m] "separates" a subset A when everything in A ranks
strictly below everything outside it.  A complete set separates all 2^m
subsets; the smallest possible size is the middle binomial coefficient
C(m, floor(m/2)).  This walkthrough shows the peeling maps that achieve
that size for m = 4.
"""

from math import comb

from gshatter.orders import (
    build_complete_orders,
    completeness_lower_bound,
    is_complete,
    mask_elements,
    peel_chain,
    separated_masks,
)


def show(m: int = 4) -> None:
    print(f"target: every subset of [{m}] separated by some ranking")
    print(f"minimum possible: C({m}, {m // 2}) = {completeness_lower_bound(m)}\n")

    orders = build_complete_orders(m)
    print(f"built {len(orders.rankings)} rankings:")
    for r in orders.rankings:
        bottom_up = sorted(range(1, m + 1), key=lambda e: r[e - 1])
        chain = " < ".join(str(e) for e in bottom_up)
        print(f"  ranks {r}   i.e. {chain}")

    print("\neach ranking separates its chain of bottom prefixes:")
    example = orders.rankings[0]
    for mask in sorted(separated_masks(example)):
        print(f"  {mask_elements(mask) or '{}'}")

    print("\nthe prefixes are peel chains: F drops one element per step,")
    full = (1 << m) - 1
    print(f"  e.g. [{m}] peels as", [mask_elements(s) for s in peel_chain(full, m)])

    assert is_complete(orders)
    assert len(orders.rankings) == comb(m, m // 2)
    print(f"\nverified: complete over all {2 ** m} subsets at the minimum size")


if __name__ == "__main__":
    show()
