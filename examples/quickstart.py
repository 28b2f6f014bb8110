#!/usr/bin/env python3
"""Quickstart: Split Label Routing in a few dozen lines.

This example walks the two halves of the library:

1. The *abstract* SLR machinery of Section II — a dense label set, a request /
   reply route computation, and the topological-order invariant — reproducing
   the paper's Example 1 and Example 2 exactly.
2. The *full protocol* (SRP) running inside the discrete-event wireless
   simulator: a small static network, one CBR flow, and the resulting
   delivery / overhead / sequence-number metrics.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import SlrNetwork, UnboundedFractionLabelSet
from repro.protocols import protocol_factory
from repro.sim import run_trial
from repro.workloads import scaled_scenario


def path_graph(nodes):
    """A chain's connectivity as the ``{node: neighbours}`` mapping SLR floods
    over (a ``networkx.Graph`` would do as well; the library needs neither)."""
    links = {node: [] for node in nodes}
    for left, right in zip(nodes, nodes[1:]):
        links[left].append(right)
        links[right].append(left)
    return links


def example_1_and_2() -> None:
    """The paper's Fig. 1 and Fig. 2 label assignments."""
    print("=" * 66)
    print("Section II, Example 1: initial graph labelling (Fig. 1)")
    print("=" * 66)
    label_set = UnboundedFractionLabelSet()
    network = SlrNetwork(label_set, "T")

    chain = path_graph(["E", "D", "C", "B", "A", "T"])
    result = network.compute_route(
        "E", chain, request_path=["E", "D", "C", "B", "A", "T"]
    )
    print(f"request by E succeeded: {result.succeeded}, replier: {result.replier}")
    for node in ["E", "D", "C", "B", "A", "T"]:
        print(f"  label({node}) = {network.label(node)}")
    print(f"loop-free: {network.is_loop_free()}, "
          f"topologically ordered: {network.is_topologically_ordered()}")

    print()
    print("=" * 66)
    print("Section II, Example 2: nodes F, G, H join the DAG (Fig. 2)")
    print("=" * 66)
    # F, G and H once had routes to T, so they carry labels but no successors.
    from fractions import Fraction

    network.state("F").label = Fraction(2, 3)
    network.state("G").label = Fraction(2, 3)
    network.state("H").label = Fraction(3, 4)
    joined = path_graph(["H", "G", "F", "B", "A", "T"])
    result = network.compute_route("H", joined, request_path=["H", "G", "F", "B", "A"])
    print(
        f"request by H answered by {result.replier}; "
        f"relabelled: {sorted(result.relabelled)}"
    )
    for node in ["H", "G", "F", "B", "A", "T"]:
        print(f"  label({node}) = {network.label(node)}")
    print(f"loop-free: {network.is_loop_free()}, "
          f"topologically ordered: {network.is_topologically_ordered()}")


def srp_in_the_simulator() -> None:
    """One small SRP trial in the wireless discrete-event simulator."""
    print()
    print("=" * 66)
    print("SRP inside the wireless simulator (small static-ish scenario)")
    print("=" * 66)
    scenario = scaled_scenario(
        node_count=20,
        flow_count=4,
        duration=30.0,
        pause_time=30.0,  # effectively static
        seed=7,
    )
    summary = run_trial(scenario, protocol_factory("SRP"))
    print(f"data packets sent       : {summary.data_sent}")
    print(f"data packets delivered  : {summary.data_delivered}")
    print(f"delivery ratio          : {summary.delivery_ratio:.3f}")
    print(
        f"network load            : {summary.network_load:.3f} "
        "control tx per delivered packet"
    )
    print(f"mean latency            : {summary.mean_latency * 1000:.1f} ms")
    print(
        f"avg sequence number     : {summary.average_sequence_number:.1f} "
        "(SRP's destination-controlled reset was never needed)"
    )


if __name__ == "__main__":
    example_1_and_2()
    srp_in_the_simulator()
