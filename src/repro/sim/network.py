"""Network assembly and trial execution.

``build_network`` wires together everything one trial needs — simulator,
channel, mobility models, MACs, nodes, routing protocols and the CBR traffic
manager — from a :class:`~repro.workloads.scenario.Scenario` and a protocol
factory.  ``run_trial`` builds and runs a network and returns the
:class:`~repro.sim.stats.TrialSummary` the experiment harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, TYPE_CHECKING

from .channel import Channel
from .engine import Simulator
from .faults import FaultSchedule
from .mac import Mac
from .mobility import RandomWaypointMobility, StaticMobility
from .node import Node
from .pdes import ShardPlan, ShardedSimulator
from .rng import RngStreams
from .stats import TrialStats, TrialSummary
from .tuning import EngineTuning, FastPaths

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
        """Execute the trial and roll up the statistics."""
        # Under the sharded backend each protocol starts in its node's
        # owner-shard context so its timer chain is queued (and attributed)
        # there; traffic is global work and starts from the coordinator
        # shard.  The serial engine has no such seam and starts directly.
        set_context = getattr(self.simulator, "set_node_context", None)
        for node in self.nodes.values():
            if set_context is not None:
                set_context(node.node_id)
            node.protocol.start()
        if self.traffic is not None:
            if set_context is not None:
                set_context(None)
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
    use_spatial_index: bool = True,
    fast_paths: Optional[FastPaths] = None,
    tuning: Optional[EngineTuning] = None,
) -> Network:
    """Assemble a ready-to-run :class:`Network` for one trial.

    ``static_positions`` replaces the random-waypoint model with static nodes
    at the same initial positions; integration tests use it to study protocol
    behaviour without mobility.  ``use_spatial_index=False`` keeps the
    channel on its brute-force O(N) geometry scans — results are identical
    either way (the equivalence tests rely on this); it exists for A/B
    benchmarking and as a fallback.  ``fast_paths`` selects the exact
    hot-path optimizations (:class:`~repro.sim.tuning.FastPaths`; default:
    all on) under the same bit-identical contract.  ``tuning`` selects the
    engine configuration (:class:`~repro.sim.tuning.EngineTuning`: event
    queue and MAC model); when omitted it is resolved from the environment
    via :meth:`EngineTuning.from_env`, which is how CI's ``mac-model-gate``
    job and A/B sweeps flip a whole run without new CLI flags.
    """
    from ..workloads.cbr import CbrTrafficManager  # local import to avoid a cycle

    fp = FastPaths() if fast_paths is None else fast_paths
    engine_tuning = EngineTuning.from_env() if tuning is None else tuning
    if engine_tuning.engine_backend == "processes":
        from .pdes import PdesError

        raise PdesError(
            "engine_backend='processes' launches whole trials via "
            "repro.sim.pdes.run_trial_sharded_processes and cannot back a "
            "single in-process network; dispatch at the trial runner (the "
            "sweep executor does this) or use 'serial'/'sharded' here"
        )
    sharded = engine_tuning.engine_backend == "sharded"
    if sharded:
        plan = ShardPlan.for_scenario(scenario, engine_tuning.resolved_shard_count())
        simulator: Simulator = ShardedSimulator(
            plan, event_queue=engine_tuning.event_queue
        )
    else:
        simulator = Simulator(event_queue=engine_tuning.event_queue)
    streams = RngStreams(scenario.seed)
    # Random-waypoint legs floor the drawn speed at 0.1 m/s, so the channel's
    # drift bound must too; static trials never move nodes at all.
    max_node_speed = 0.0 if static_positions else max(scenario.max_speed, 0.1)
    channel = Channel(
        simulator,
        scenario.phy,
        max_node_speed=max_node_speed,
        use_spatial_index=use_spatial_index,
        use_reception_memo=fp.reception_memo,
        use_airtime_memo=fp.airtime_memo,
        use_object_pool=fp.frame_pool,
        use_grid_prefilter=fp.grid_prefilter,
        use_batch_receptions=fp.batch_receptions,
    )
    stats = TrialStats()
    terrain = scenario.terrain
    mobility_rng = streams.get("mobility")

    nodes: Dict[NodeId, Node] = {}
    initial_positions: Dict[NodeId, tuple] = {}
    for node_id in range(scenario.node_count):
        initial = terrain.random_position(mobility_rng)
        initial_positions[node_id] = initial
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
                use_segment_table=fp.mobility_segments,
            )
        # The position provider looks the node up lazily, so it is safe to
        # construct the MAC before the Node object exists.
        mac = Mac(
            node_id,
            simulator,
            channel,
            streams.get(f"mac:{node_id}"),
            position_provider=lambda nid=node_id: nodes[nid].position(),
            use_frame_pool=fp.frame_pool,
        )
        node = Node(node_id, simulator, mobility, mac, stats, rng_streams=streams)
        nodes[node_id] = node
        node.attach_protocol(protocol_factory(node_id))
        if fp.mobility_segments:
            # Let the channel interpolate this node from precompiled
            # segments instead of calling through mac -> node -> mobility
            # on every position-cache miss.
            channel.register_segment_provider(node_id, mobility.segment_for)

    if sharded:
        # Ownership follows the nodes: bind initial shard owners and the
        # live position providers the barrier-time refresh re-derives them
        # from, and let the channel switch delivery context at the seams.
        simulator.bind_nodes(
            initial_positions,
            {
                node_id: (lambda nid=node_id: nodes[nid].position())
                for node_id in nodes
            },
        )
        channel.install_pdes(simulator)

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
    use_spatial_index: bool = True,
    fast_paths: Optional[FastPaths] = None,
    tuning: Optional[EngineTuning] = None,
) -> TrialSummary:
    """Build a network for ``scenario``, run it, and return the summary."""
    network = build_network(
        scenario,
        protocol_factory,
        static_positions=static_positions,
        use_spatial_index=use_spatial_index,
        fast_paths=fast_paths,
        tuning=tuning,
    )
    return network.run()
