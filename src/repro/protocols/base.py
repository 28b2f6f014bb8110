"""The routing-protocol interface every protocol in this repository implements.

A protocol instance belongs to exactly one node.  Its runtime — the simulated
``Node`` or a live router daemon — interacts with it through four entry
points:

* :meth:`RoutingProtocol.start` — called once when the trial starts (proactive
  protocols schedule their periodic advertisements here).
* :meth:`RoutingProtocol.originate_data` — the application wants a data packet
  delivered; the protocol forwards it, queues it while discovering a route, or
  drops it.
* :meth:`RoutingProtocol.handle_packet` — the link layer decoded a packet
  addressed to this node (or a broadcast).
* :meth:`RoutingProtocol.handle_link_failure` — the link layer exhausted
  retries for a unicast to a neighbour; the protocol treats the link as broken
  (the paper's "link-layer unicast loss detection").  Transports without
  delivery feedback (UDP) simply never call it.

Code outside ``repro.protocols`` reads route state only through two route
queries: :meth:`RoutingProtocol.next_hop` (the live routing-table dump) and
:meth:`RoutingProtocol.successors` (the loop monitor; SRP's successor set,
the singleton of ``next_hop`` elsewhere).

``handle_packet`` is implemented once, here: data goes to the protocol's
``_handle_data`` and a control payload to the handler its class lists in
:attr:`RoutingProtocol.control_handlers` (payloads of any other type — another
protocol's messages — are ignored).  The families share more than that; their
skeletons live in :mod:`repro.protocols.common`.

Protocols see their environment only through the
:class:`~repro.runtime.base.Runtime` seam (clock, sends, identity, RNG), so
the same classes run inside the discrete-event simulator and as live asyncio
daemons.  The base class also provides the shared helpers all implementations
use: a packet-buffer for data awaiting routes, control-packet constructors
and the per-destination statistics hooks used by Fig. 7 (sequence-number
accounting).
"""

from __future__ import annotations

import abc
from collections import defaultdict, deque
from typing import (
    Callable,
    ClassVar,
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
)

from ..runtime.base import Clock, Runtime
from ..sim.packet import Packet, PacketKind

__all__ = ["RoutingProtocol", "ProtocolConfig", "PacketBuffer"]

NodeId = Hashable


class ProtocolConfig:
    """Base class for protocol configuration dataclasses.

    Every concrete config is a frozen dataclass; sweeps and live runs use
    the defaults, and tests pass instances.
    """


class PacketBuffer:
    """Data packets waiting for a route, bounded per destination.

    AODV, DSR, LDR and SRP all queue data while route discovery runs; packets
    are dropped when discovery ultimately fails or the buffer overflows.
    """

    def __init__(self, max_per_destination: int = 64) -> None:
        self._max = max_per_destination
        self._buffers: Dict[NodeId, Deque[Packet]] = defaultdict(deque)

    def push(self, packet: Packet) -> bool:
        """Buffer a packet; returns False (and drops it) when full."""
        queue = self._buffers[packet.destination]
        if len(queue) >= self._max:
            return False
        queue.append(packet)
        return True

    def pop_all(self, destination: NodeId) -> List[Packet]:
        """Remove and return every buffered packet for ``destination``."""
        queue = self._buffers.pop(destination, deque())
        return list(queue)

    def drop_all(self, destination: NodeId) -> int:
        """Discard the buffer for ``destination``; returns how many were lost."""
        return len(self._buffers.pop(destination, deque()))


class RoutingProtocol(abc.ABC):
    """Abstract per-node routing protocol."""

    #: Human-readable protocol name used in reports ("SRP", "AODV", ...).
    name: str = "abstract"

    #: Control payload type -> the function handling it, called as
    #: ``handler(self, payload, from_node)``.  One table per protocol class,
    #: shared by all its instances.
    control_handlers: ClassVar[Mapping[type, Callable[..., None]]] = {}

    def __init__(self) -> None:
        self.node: Optional[Runtime] = None

    # -- lifecycle -----------------------------------------------------------------

    def attach(self, node: Runtime) -> None:
        """Bind this protocol instance to its runtime (sim node or live router)."""
        self.node = node

    def start(self) -> None:
        """Hook called at simulation start; default is a no-op."""

    def finalize(self) -> None:
        """Hook called at simulation end, before statistics are rolled up."""

    def on_node_down(self) -> None:
        """Fault injection: the node crashed (power loss).

        Implementations should forget volatile state — routing tables,
        request caches, buffered data — as a real reboot would, but keep
        durable counters (a node's own sequence number survives in
        non-volatile storage in every protocol modelled here, which keeps
        Fig. 7's metric monotone under churn).  Default: no-op.
        """

    def on_node_up(self) -> None:
        """Fault injection: the node rebooted; re-establish initial state."""

    # -- required behaviour ------------------------------------------------------------

    @abc.abstractmethod
    def originate_data(self, packet: Packet) -> None:
        """Handle an application packet originated at this node."""

    def handle_packet(self, packet: Packet, from_node: NodeId) -> None:
        """Handle a packet received from a neighbour (data or control)."""
        if packet.is_data:
            self._handle_data(packet, from_node)
            return
        payload = packet.payload
        handler = self.control_handlers.get(type(payload))
        if handler is not None:
            handler(self, payload, from_node)

    @abc.abstractmethod
    def _handle_data(self, packet: Packet, from_node: NodeId) -> None:
        """Deliver or forward a data packet received from ``from_node``."""

    @abc.abstractmethod
    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        """React to MAC-level unicast failure toward ``next_hop``."""

    @abc.abstractmethod
    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        """The neighbour data for ``destination`` goes to now; ``None`` if none."""

    def successors(self, destination: NodeId) -> FrozenSet[NodeId]:
        """Every neighbour this node may forward ``destination``'s data to now.

        A single-path protocol has at most one: its :meth:`next_hop`.
        """
        next_hop = self.next_hop(destination)
        return frozenset() if next_hop is None else frozenset((next_hop,))

    # -- statistics hooks --------------------------------------------------------------

    def sequence_number_metric(self) -> int:
        """The node's sequence-number growth for Fig. 7 (0 when not applicable).

        Protocols report how far their *own* sequence number advanced beyond
        its initial value, matching the paper's normalisation ("we have
        subtracted one from SRP so all protocols have a base of zero").
        """
        return 0

    # -- helpers for subclasses --------------------------------------------------------

    @property
    def clock(self) -> Clock:
        """The runtime's clock (valid after :meth:`attach`).

        Inside a trial this is the :class:`~repro.sim.engine.Simulator`
        itself; live it is the asyncio-backed clock.  Either way ``now`` and
        the ``schedule_*`` calls behave identically from the protocol's side.
        """
        return self.node.clock

    @property
    def node_id(self) -> NodeId:
        """This node's identifier."""
        return self.node.node_id

    def make_control_packet(
        self, destination: NodeId, payload, size_bytes: int
    ) -> Packet:
        """Build a control packet originating at this node."""
        return Packet(
            kind=PacketKind.CONTROL,
            source=self.node_id,
            destination=destination,
            size_bytes=size_bytes,
            created_at=self.node.clock.now,
            payload=payload,
        )

    def deliver_or_forward_hook(self, packet: Packet) -> bool:
        """Deliver ``packet`` locally when this node is its destination.

        Returns True when the packet was consumed here.
        """
        if packet.destination == self.node_id:
            self.node.deliver_data(packet)
            return True
        return False
