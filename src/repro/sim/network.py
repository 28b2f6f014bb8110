"""Network assembly and trial execution.

``build_network`` wires together everything one trial needs — simulator,
channel, mobility models, MACs, nodes, routing protocols and the CBR traffic
manager — from a :class:`~repro.workloads.scenario.Scenario` and a protocol
factory.  ``run_trial`` builds and runs a network and returns the
:class:`~repro.sim.stats.TrialSummary` the experiment harness consumes.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, TYPE_CHECKING

from .channel import Channel
from .engine import Simulator
from .faults import FaultSchedule
from .mac import Mac
from .mobility import RandomWaypointMobility, StaticMobility
from .node import Node
from .rng import RngStreams
from .stats import TrialStats, TrialSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..protocols.base import RoutingProtocol
    from ..workloads.scenario import Scenario

__all__ = ["Network", "build_network", "run_trial", "ProtocolFactory"]

NodeId = Hashable

#: Creates a fresh protocol instance for one node.
ProtocolFactory = Callable[[NodeId], "RoutingProtocol"]


@dataclass
class Network:
    """Everything belonging to one trial, ready to run."""

    simulator: Simulator
    channel: Channel
    nodes: Dict[NodeId, Node]
    stats: TrialStats
    scenario: "Scenario"
    traffic: Optional[object] = None

    def run(self) -> TrialSummary:
        """Execute the trial and roll up the statistics.

        Starts with one full garbage collection.  A trial itself leaves no
        cyclic garbage, but a finished network is cyclic by construction
        (MAC and channel, node and protocol, simulator and queue hold each
        other), so the previous trial of this process is freed here rather
        than whenever the collector next reaches its oldest generation —
        which, with no cyclic garbage being made, can be trials later, with
        each dead network still resident.
        """
        gc.collect()
        for node in self.nodes.values():
            node.protocol.start()
        if self.traffic is not None:
            self.traffic.start()
        self.simulator.run(until=self.scenario.duration)
        for node in self.nodes.values():
            node.protocol.finalize()
            self.stats.record_mac_drops(node.node_id, node.mac.stats.drops)
            self.stats.record_sequence_number(
                node.node_id, node.protocol.sequence_number_metric()
            )
        return self.stats.summary()


def build_network(
    scenario: "Scenario",
    protocol_factory: ProtocolFactory,
    *,
    with_traffic: bool = True,
    static_positions: bool = False,
) -> Network:
    """Assemble a ready-to-run :class:`Network` for one trial.

    ``static_positions`` replaces the random-waypoint model with static nodes
    at the same initial positions; integration tests use it to study protocol
    behaviour without mobility.
    """
    from ..workloads.cbr import CbrTrafficManager  # local import to avoid a cycle

    simulator = Simulator()
    streams = RngStreams(scenario.seed)
    # Random-waypoint legs floor the drawn speed at 0.1 m/s, so the channel's
    # drift bound must too; static trials never move nodes at all.
    max_node_speed = 0.0 if static_positions else max(scenario.max_speed, 0.1)
    channel = Channel(simulator, scenario.phy, max_node_speed=max_node_speed)
    stats = TrialStats()
    terrain = scenario.terrain
    mobility_rng = streams.get("mobility")

    nodes: Dict[NodeId, Node] = {}
    for node_id in range(scenario.node_count):
        initial = terrain.random_position(mobility_rng)
        if static_positions:
            mobility = StaticMobility(initial)
        else:
            mobility = RandomWaypointMobility(
                terrain,
                streams.get(f"mobility:{node_id}"),
                min_speed=scenario.min_speed,
                max_speed=scenario.max_speed,
                pause_time=scenario.pause_time,
                initial_position=initial,
            )
        # The position provider looks the node up lazily, so it is safe to
        # construct the MAC before the Node object exists.
        mac = Mac(
            node_id,
            simulator,
            channel,
            streams.get(f"mac:{node_id}"),
            position_provider=lambda nid=node_id: nodes[nid].position(),
        )
        node = Node(node_id, simulator, mobility, mac, stats)
        nodes[node_id] = node
        node.attach_protocol(protocol_factory(node_id))
        # Let the channel interpolate this node from precompiled segments
        # instead of calling through mac -> node -> mobility on every
        # position-cache miss.
        channel.register_segment_provider(node_id, mobility.segment_for)

    if scenario.faults:
        # Compile the declarative fault plan into simulator events now, before
        # any traffic is scheduled, so the fault flips hold the earliest
        # sequence numbers and the whole trial remains a pure function of the
        # scenario.  Fault-free scenarios never construct any of this and the
        # hot paths stay on their original instruction sequence.
        schedule = FaultSchedule(scenario.faults)
        schedule.install(simulator, channel, nodes, rng=streams.get("faults"))
        stats.configure_faults(
            schedule.activity_windows(),
            heal_time=schedule.heal_time(),
            burst_window=min(10.0, 0.2 * scenario.duration),
        )

    traffic = None
    if with_traffic and scenario.flow_count > 0:
        traffic = CbrTrafficManager(
            simulator,
            nodes,
            streams.get("traffic"),
            flow_count=scenario.flow_count,
            packets_per_second=scenario.packets_per_second,
            packet_size_bytes=scenario.packet_size_bytes,
            mean_flow_duration=scenario.mean_flow_duration,
            end_time=scenario.duration,
        )

    return Network(
        simulator=simulator,
        channel=channel,
        nodes=nodes,
        stats=stats,
        scenario=scenario,
        traffic=traffic,
    )


def run_trial(
    scenario: "Scenario",
    protocol_factory: ProtocolFactory,
    *,
    static_positions: bool = False,
) -> TrialSummary:
    """Build a network for ``scenario``, run it, and return the summary."""
    network = build_network(
        scenario, protocol_factory, static_positions=static_positions
    )
    return network.run()
