"""Shared helpers for protocol tests: small static networks with placed nodes."""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Mapping, Tuple

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.mac import Mac
from repro.sim.mobility import StaticMobility
from repro.sim.monitor import LoopFreedomMonitor
from repro.sim.node import Node
from repro.sim.phy import PhyConfig
from repro.sim.space import Position
from repro.sim.stats import TrialStats

NodeId = Hashable


class StaticNetwork:
    """A hand-placed static network for deterministic protocol tests.

    ``positions`` maps node ids to (x, y) coordinates in metres; the default
    radio range is 250 m, so chains like ``{0: (0, 0), 1: (200, 0), ...}``
    give exact control over the connectivity graph.
    """

    def __init__(
        self,
        positions: Dict[NodeId, Tuple[float, float]],
        protocol_factory: Callable[[NodeId], object],
        *,
        phy: PhyConfig | None = None,
        seed: int = 1,
    ) -> None:
        self.simulator = Simulator()
        self.phy = phy or PhyConfig()
        self.channel = Channel(self.simulator, self.phy)
        self.stats = TrialStats()
        self.nodes: Dict[NodeId, Node] = {}
        rng = random.Random(seed)
        for node_id, (x, y) in positions.items():
            mac = Mac(
                node_id,
                self.simulator,
                self.channel,
                random.Random(rng.random()),
                position_provider=lambda nid=node_id: self.nodes[nid].position(),
            )
            node = Node(
                node_id,
                self.simulator,
                StaticMobility(Position(x, y)),
                mac,
                self.stats,
            )
            self.nodes[node_id] = node
            node.attach_protocol(protocol_factory(node_id))

    def start(self) -> None:
        """Call every protocol's start hook."""
        for node in self.nodes.values():
            node.protocol.start()

    def run(self, until: float) -> None:
        """Advance the simulation to ``until`` seconds."""
        self.simulator.run(until=until)

    def protocol(self, node_id: NodeId):
        """The protocol instance of one node."""
        return self.nodes[node_id].protocol

    def send_data(
        self, source: NodeId, destination: NodeId, *, size: int = 512
    ) -> None:
        """Originate one application packet at ``source``."""
        self.nodes[source].originate_data(destination, size)

    def summary(self):
        """Roll up statistics (also collects per-node protocol metrics)."""
        for node in self.nodes.values():
            node.protocol.finalize()
            self.stats.record_mac_drops(node.node_id, node.mac.stats.drops)
            self.stats.record_sequence_number(
                node.node_id, node.protocol.sequence_number_metric()
            )
        return self.stats.summary()


def chain_positions(
    count: int, spacing: float = 200.0
) -> Dict[int, Tuple[float, float]]:
    """Node ids 0..count-1 on a line, each ``spacing`` metres apart."""
    return {i: (i * spacing, 0.0) for i in range(count)}


def grid_positions(
    rows: int, columns: int, spacing: float = 200.0
) -> Dict[int, Tuple[float, float]]:
    """A rows x columns grid with the given spacing."""
    positions = {}
    for row in range(rows):
        for column in range(columns):
            positions[row * columns + column] = (column * spacing, row * spacing)
    return positions


def protocols_of(nodes: Mapping[NodeId, Node]) -> Dict[NodeId, object]:
    """``{node_id: protocol}``, what :class:`LoopFreedomMonitor` is built over."""
    return {node_id: node.protocol for node_id, node in nodes.items()}


def srp_route_violations(nodes: Mapping[NodeId, Node]) -> List[str]:
    """Theorem 3 on the SRP routing state of ``nodes`` at this instant.

    Per destination: the successor graph has no cycle (the loop monitor's
    check); every successor edge satisfies Eq. 5 (``entry.ordering ≺
    successor.ordering``, the successor is strictly closer); and no node
    holds a sequence number the destination has not issued itself (only a
    destination raises its own).
    """
    violations = []
    destinations = {
        destination
        for node in nodes.values()
        for destination in node.protocol.table.destinations()
    }
    for destination in sorted(destinations):
        issued = nodes[destination].protocol.own_sequence_number
        for node_id, node in nodes.items():
            entry = node.protocol.table.lookup(destination)
            if entry is None:
                continue
            if entry.ordering.sequence_number > issued:
                violations.append(
                    f"{node_id} holds {entry.ordering} for {destination}, "
                    f"which has only issued sn {issued}"
                )
            for successor in entry.successors.values():
                if not entry.ordering.precedes(successor.ordering):
                    violations.append(
                        f"Eq. 5 broken toward {destination}: {node_id} "
                        f"{entry.ordering} -> {successor.neighbor} "
                        f"{successor.ordering}"
                    )
    now = next(iter(nodes.values())).clock.now
    for loop in LoopFreedomMonitor(protocols_of(nodes)).check(now):
        violations.append(f"successor cycle toward {loop.destination}: {loop.cycle}")
    return violations


def audit_routes(
    simulator: Simulator,
    check: Callable[[], object],
    *,
    until: float,
    interval: float = 0.25,
) -> List[object]:
    """Call ``check()`` every ``interval`` s of simulated time up to ``until``.

    Returns the list the results are appended to as the simulation runs, the
    first one at the current time.
    """
    results: List[object] = []

    def tick() -> None:
        results.append(check())
        if simulator.now + interval <= until:
            simulator.schedule_in(interval, tick)

    simulator.schedule_in(0.0, tick)
    return results
