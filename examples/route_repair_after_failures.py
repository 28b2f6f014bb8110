#!/usr/bin/env python3
"""Route repair without sequence-number resets — SRP's dense-label insertion.

The scenario the paper motivates (Example 2, and the reason SRP's Fig. 7 curve
is exactly zero): a wireless network where links keep breaking and new nodes
keep appearing.  A protocol whose loop prevention relies on sequence numbers
(AODV) must keep inflating them; SRP instead *splits* the dense label space
locally, so the destination never has to issue a reset.

This example runs the same failure-heavy static scenario under SRP, LDR and
AODV:

* a 5x4 grid of nodes carrying three CBR flows,
* every 10 simulated seconds a relay node "crashes" (its radio goes silent),

and then reports delivery, overhead and — the point of the exercise — how far
each protocol's sequence numbers had to grow to survive the churn.

Run with:  python examples/route_repair_after_failures.py
"""

from __future__ import annotations

import random

from repro.protocols import protocol_factory
from repro.sim.faults import FaultSpec
from repro.sim.network import run_trial
from repro.workloads.scenario import scaled_scenario

PROTOCOLS = ("SRP", "LDR", "AODV")
CRASH_INTERVAL = 10.0
DURATION = 60.0


def run_with_crashes(protocol_name: str, seed: int = 13):
    """One static trial where a random relay crashes every CRASH_INTERVAL s."""
    scenario = scaled_scenario(
        node_count=20,
        flow_count=3,
        duration=DURATION,
        pause_time=DURATION,  # static placement; failures drive the churn
        terrain_width=1000.0,
        terrain_height=400.0,
        seed=seed,
    )
    rng = random.Random(seed)
    crash_candidates = list(range(scenario.node_count))[4:16]
    rng.shuffle(crash_candidates)
    crashes = []
    for index, victim in enumerate(crash_candidates):
        start = CRASH_INTERVAL * (index + 1)
        if start >= DURATION:
            break
        # A node_crash powers the radio off and wipes the routing state; the
        # reboot would fall after the trial ends, so the node stays down.
        crashes.append(
            FaultSpec.node_crash(node=victim, start=start, duration=DURATION)
        )
        print(f"    t={start:5.1f}s  {protocol_name}: node {victim} crashes")
    return run_trial(scenario.with_faults(crashes), protocol_factory(protocol_name))


def main() -> None:
    print("Failure-injection comparison: SRP vs LDR vs AODV")
    print("(a relay node crashes every 10 s; same placement and traffic for all)")
    print()
    results = {}
    for protocol in PROTOCOLS:
        print(f"  running {protocol} ...")
        results[protocol] = run_with_crashes(protocol)
    print()
    header = (
        f"{'protocol':8s} {'delivery':>9s} {'net load':>9s} "
        f"{'latency':>9s} {'avg seqno':>10s}"
    )
    print(header)
    print("-" * len(header))
    for protocol, summary in results.items():
        print(
            f"{protocol:8s} {summary.delivery_ratio:9.3f} "
            f"{summary.network_load:9.3f} {summary.mean_latency:9.3f} "
            f"{summary.average_sequence_number:10.2f}"
        )
    print()
    print("SRP repairs every break by splitting labels locally, so its average")
    print("sequence number stays at zero (Fig. 7); AODV must inflate sequence")
    print("numbers on every discovery and route loss.")


if __name__ == "__main__":
    main()
