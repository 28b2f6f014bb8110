"""A simulated wireless node: mobility + MAC + routing protocol + applications.

The node is mostly glue: it owns a mobility model, a MAC instance attached to
the shared channel, and a routing-protocol instance.  Application traffic
(the CBR flow agents in :mod:`repro.workloads.cbr`) calls
:meth:`Node.originate_data`; the routing protocol eventually calls back into
:meth:`Node.deliver_data` at the destination, which records delivery and
latency in the trial statistics.

``Node`` is the simulator's implementation of the
:class:`~repro.runtime.base.Runtime` seam: its ``clock`` is the
:class:`Simulator` itself (which satisfies the ``Clock`` protocol verbatim),
and all time reads on the statistics paths go through ``self.clock.now`` so
the node-side code has no sim-specific time dependency.
"""

from __future__ import annotations

from typing import Hashable, Optional, TYPE_CHECKING

from ..runtime.base import Runtime
from .engine import Simulator
from .mac import Mac
from .mobility import MobilityModel
from .packet import Packet, PacketKind
from .stats import TrialStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..protocols.base import RoutingProtocol

__all__ = ["Node"]

NodeId = Hashable


class Node(Runtime):
    """One wireless node participating in a trial."""

    def __init__(
        self,
        node_id: NodeId,
        simulator: Simulator,
        mobility: MobilityModel,
        mac: Mac,
        stats: TrialStats,
    ) -> None:
        self.node_id = node_id
        self.simulator = simulator
        # The Runtime clock: the simulator object itself (same reference, so
        # protocols scheduling through ``clock`` hit identical engine state).
        self.clock = simulator
        self.mobility = mobility
        self.mac = mac
        self.stats = stats
        self.protocol: Optional["RoutingProtocol"] = None
        # Fault-injection lifecycle flag; while down the node neither
        # originates traffic nor transmits (see go_down/go_up).
        self.is_down = False

    # -- wiring -----------------------------------------------------------------------

    def attach_protocol(self, protocol: "RoutingProtocol") -> None:
        """Install the routing protocol and connect it to the MAC callbacks."""
        self.protocol = protocol
        protocol.attach(self)
        self.mac.set_handlers(protocol.handle_packet, protocol.handle_link_failure)

    # -- fault lifecycle ---------------------------------------------------------------

    def go_down(self) -> None:
        """Fault injection: crash the node.

        The MAC drops its queue and invalidates in-flight continuations, and
        the routing protocol is told to forget its volatile state — the
        semantics of a power loss, not a graceful shutdown.
        """
        if self.is_down:
            return
        self.is_down = True
        self.mac.power_down()
        if self.protocol is not None:
            self.protocol.on_node_down()

    def go_up(self) -> None:
        """Fault injection: reboot the node with empty tables and queues."""
        if not self.is_down:
            return
        self.is_down = False
        self.mac.power_up()
        if self.protocol is not None:
            self.protocol.on_node_up()

    # -- geometry ----------------------------------------------------------------------

    def position(self) -> "tuple[float, float]":
        """Current (x, y) position from the mobility model.

        The channel's fallback for a node without a registered segment
        provider (``build_network`` registers one for every node).
        """
        point = self.mobility.position_at(self.clock.now)
        return (point.x, point.y)

    # -- application data path ---------------------------------------------------------

    def originate_data(
        self, destination: NodeId, size_bytes: int, flow_id: Optional[int] = None
    ) -> None:
        """Create one application data packet and hand it to the routing protocol."""
        if self.protocol is None:
            raise RuntimeError(f"node {self.node_id!r} has no routing protocol")
        if self.is_down:
            # A crashed application offers no load: the packet is neither
            # created nor counted as sent.
            return
        packet = Packet(
            kind=PacketKind.DATA,
            source=self.node_id,
            destination=destination,
            size_bytes=size_bytes,
            created_at=self.clock.now,
            flow_id=flow_id,
        )
        self.stats.record_data_sent(self.clock.now)
        self.protocol.originate_data(packet)

    def deliver_data(self, packet: Packet) -> None:
        """Called by the routing protocol when a data packet reaches this node."""
        latency = self.clock.now - packet.created_at
        self.stats.record_data_delivered(
            packet.uid, latency, created_at=packet.created_at
        )

    # -- transmission helpers used by protocols ----------------------------------------

    def send_unicast(self, packet: Packet, next_hop: NodeId) -> None:
        """Transmit ``packet`` to a specific neighbour (with MAC retries)."""
        if self.is_down:
            return
        if packet.is_control:
            self.stats.record_control_transmission(self.clock.now)
        self.mac.send(packet, next_hop)

    def send_broadcast(self, packet: Packet) -> None:
        """Transmit ``packet`` to every neighbour in range (no retries)."""
        if self.is_down:
            return
        if packet.is_control:
            self.stats.record_control_transmission(self.clock.now)
        self.mac.send(packet, None)
