#!/usr/bin/env python3
"""Quickstart: Split Label Routing in a few dozen lines.

This example walks the two halves of the library:

1. The paper's worked examples of Section II, on the code SRP runs:
   Example 1 (Fig. 1) is SRP labelling a static six-node chain inside the
   simulator; Example 2 (Fig. 2) is Algorithm 1 (``new_order``) walked hop by
   hop along a reply path.
2. The *full protocol* (SRP) in a small wireless trial: a 20-node scenario,
   four CBR flows, and the resulting delivery / overhead / sequence-number
   metrics.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro.core.fractions import ProperFraction
from repro.core.neworder import new_order
from repro.core.ordering import UNASSIGNED, Ordering, ordering_min
from repro.protocols import protocol_factory
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.mac import Mac
from repro.sim.mobility import StaticMobility
from repro.sim.network import run_trial
from repro.sim.node import Node
from repro.sim.phy import PhyConfig
from repro.sim.space import Position
from repro.sim.stats import TrialStats
from repro.workloads.scenario import scaled_scenario

#: Fig. 1's chain, requester first; T is the destination.
CHAIN = ["E", "D", "C", "B", "A", "T"]


def label(ordering: Ordering) -> str:
    return f"({ordering.sequence_number}, {ordering.fraction})"


def static_chain(count: int, spacing: float = 200.0):
    """SRP routers on a line ``spacing`` metres apart (radio range 250 m)."""
    simulator = Simulator()
    channel = Channel(simulator, PhyConfig())
    stats = TrialStats()
    srp = protocol_factory("SRP")
    nodes = {}
    for node_id in range(count):
        mac = Mac(
            node_id,
            simulator,
            channel,
            random.Random(node_id),
            position_provider=lambda nid=node_id: nodes[nid].position(),
        )
        mobility = StaticMobility(Position(node_id * spacing, 0.0))
        nodes[node_id] = Node(node_id, simulator, mobility, mac, stats)
        nodes[node_id].attach_protocol(srp(node_id))
    return simulator, nodes


def example_1() -> None:
    """Fig. 1: E's request floods to T; the reply labels the chain."""
    print("=" * 66)
    print("Section II, Example 1 (Fig. 1): E requests a route to T")
    print("=" * 66)
    simulator, nodes = static_chain(len(CHAIN))
    for node in nodes.values():
        node.protocol.start()
    destination = len(CHAIN) - 1
    nodes[0].originate_data(destination, 512)
    simulator.run(until=5.0)
    for node_id, name in enumerate(CHAIN):
        protocol = nodes[node_id].protocol
        line = f"  {name}: {label(protocol.own_ordering(destination))}"
        successor = protocol.next_hop(destination)
        if successor is not None:
            line += f"  successor {CHAIN[successor]}"
        print(line)


def example_2() -> None:
    """Fig. 2: F, G, H rejoin the DAG; A answers; only B and F relabel."""
    print()
    print("=" * 66)
    print("Section II, Example 2 (Fig. 2): H requests via G, F, B; A answers")
    print("=" * 66)
    labels = {
        name: Ordering(1, ProperFraction(m, n))
        for name, (m, n) in {
            "A": (1, 2),
            "B": (2, 3),
            "F": (2, 3),  # F, G and H once had routes to T: they keep labels
            "G": (2, 3),
            "H": (3, 4),
        }.items()
    }
    request_path = ["H", "G", "F", "B"]
    # Eq. 10: every relay caches the ordering it received and relays the
    # minimum of that and its own.
    cached = {"H": UNASSIGNED}
    carried = labels["H"]
    for name in request_path[1:]:
        cached[name] = carried
        carried = ordering_min(labels[name], carried)
    # The reply walks back; each hop runs Algorithm 1 and re-advertises.
    advertised = labels["A"]
    for name in reversed(request_path):
        result = new_order(labels[name], cached[name], advertised)
        print(
            f"  {name}: {label(labels[name])} -> {label(result.ordering)}"
            f"  [{result.case}]"
        )
        labels[name] = advertised = result.ordering


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
    example_1()
    example_2()
    srp_in_the_simulator()
