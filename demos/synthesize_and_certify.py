"""Synthesize a kernel on cyclic:18 that shatters three functions.

The construction plants spike pairs round by round, one round per target
order, each round one exact "level" m_l below the previous.  The script
prints the levels, the verification report, and the final certificate
with one rational witness (c1, c2) per label pattern.
"""

from gshatter.groups import build_group
from gshatter.synth import synth_kernel


def show(spec: str = "cyclic:18", m: int = 3) -> None:
    group = build_group(spec)
    # The group and m fix the involution g and the target orders.
    result = synth_kernel(group, m)
    report = result.report  # synth_kernel's own verify_synth pass
    orders = report.orders
    print(f"group {spec} (order {group.order}), m = {m}, involution g = {result.g}")
    print(f"target orders ({len(orders.rankings)}):")
    for r in orders.rankings:
        print(f"  {r}")

    print(f"\nlevel separation epsilon = {result.epsilon}")
    print("levels and thresholds:")
    for l, (ml, cl) in enumerate(zip(result.ms, result.thresholds), start=1):
        print(f"  round {l}: m_{l} = {ml}   c_{l} = {cl}")
    print(f"kernel support: {result.kernel.support()}")

    print("\nindependent re-derivation of every claim:")
    for line in report.lines():
        print(f"  {line}")
    assert report.passed

    cert = report.certificate  # cut from the levels: every c1 is some -c_l
    print(f"\nshattered: {cert.shattered}")
    print("witnesses (labels -> c1, c2):")
    for entry in cert.entries:
        print(f"  {entry.labels} -> ({entry.c1}, {entry.c2})")


if __name__ == "__main__":
    show()
