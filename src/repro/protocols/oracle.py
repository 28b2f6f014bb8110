"""A global-knowledge shortest-path "oracle" protocol.

The oracle is not part of the paper's comparison; it exists as a testing and
calibration aid.  At every forwarding decision it runs breadth-first search
over the channel's *true* current connectivity graph, so it delivers whenever
a path physically exists and pays zero control overhead.  Integration tests
use it to separate simulator effects (connectivity, MAC contention) from
routing-protocol effects, and the experiment harness can use it as an upper
bound on achievable delivery ratio for a scenario.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Optional

from ..sim.packet import Packet
from .base import RoutingProtocol

__all__ = ["OracleProtocol"]

NodeId = Hashable


class OracleProtocol(RoutingProtocol):
    """Forwarding by BFS over the true connectivity graph (no control packets)."""

    name = "Oracle"

    def __init__(self) -> None:
        super().__init__()
        self.data_drops = 0

    # -- helpers ----------------------------------------------------------------------

    def _channel(self):
        return self.node.mac._channel  # noqa: SLF001 - deliberate test-support access

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        """First hop of the current shortest path, or None when disconnected."""
        channel = self._channel()
        if destination == self.node_id:
            return None
        parents: Dict[NodeId, NodeId] = {self.node_id: self.node_id}
        frontier = deque([self.node_id])
        while frontier:
            node = frontier.popleft()
            for neighbor in channel.neighbors_of(node):
                if neighbor in parents:
                    continue
                parents[neighbor] = node
                if neighbor == destination:
                    # Walk back to find the first hop out of this node.
                    hop = neighbor
                    while parents[hop] != self.node_id:
                        hop = parents[hop]
                    return hop
                frontier.append(neighbor)
        return None

    # -- RoutingProtocol interface -----------------------------------------------------

    def originate_data(self, packet: Packet) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        self._forward(packet)

    def _handle_data(self, packet: Packet, from_node: NodeId) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        self._forward(packet.copy_for_forwarding())

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        if packet.is_data:
            # The topology may have changed; try the (new) shortest path once.
            self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        next_hop = self.next_hop(packet.destination)
        if next_hop is None or packet.hops > 64:
            self.data_drops += 1
            return
        self.node.send_unicast(packet, next_hop)
