"""The live runtime: routing protocols as real asyncio router daemons.

The same :class:`~repro.protocols.base.RoutingProtocol` classes that run
inside the discrete-event simulator run here unchanged, against wall-clock
asyncio timers and a real transport.  Two transports are provided:

``loopback``
    Every router lives in one process on one event loop; "datagrams" are
    asyncio timer callbacks with a configurable per-hop latency.  No
    sockets, no scheduling noise beyond the event loop's — the deterministic
    choice for CI soaks and the sim-vs-live parity tests.

``udp``
    Every router is its own OS process running its own event loop and UDP
    socket (``repro-experiments live --transport udp`` launches N of them).
    Radio range is emulated by a sender-side adjacency filter, latency by
    the kernel's loopback path, and cross-process latency measurement by a
    shared wall-clock epoch all routers align their clocks to.

Flood control lives in the runtime, below the protocols, exactly as in the
SNIPPETS exemplars: every broadcast reception is deduplicated on a
``(source, uid)`` message id held in an :class:`ExpiringSet`, and every
transmission carries a hop budget (TTL).  The counters distinguish routine
*drops* (a duplicate or an exhausted TTL — normal flood behaviour) from
*violations* (a duplicate that slipped past an expired dedup entry, or a
received packet whose hop count exceeds what any conforming sender could
have transmitted).  Violations are structurally zero in a correct run; the
CI live-smoke soak asserts exactly that.

Time is *scaled*: ``time_scale`` is wall seconds per protocol second, so a
40-protocol-second soak runs in 2 wall seconds at ``time_scale=0.05`` while
every protocol still sees its configured hello/LSA intervals.  Protocols
read time only through the :class:`~repro.runtime.base.Clock` seam, so they
cannot tell the difference.

Import discipline: this module may import the runtime seam, the protocol
registry and the runtime-agnostic data models (``repro.sim.packet``,
``repro.sim.stats``, ``repro.sim.rng``) — never the simulator's engine,
node, MAC or channel.  ``tests/test_import_hygiene.py`` enforces this.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import pickle
import random
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..protocols import protocol_factory
from ..sim.packet import Packet, PacketKind
from ..sim.rng import derive_seed
from ..sim.stats import TrialStats, TrialSummary
from .base import TOPOLOGIES, TRANSPORTS, Runtime, TimerHandle

__all__ = [
    "LiveClock",
    "ExpiringSet",
    "LiveCounters",
    "LiveNode",
    "LoopbackHub",
    "UdpTransport",
    "CbrFlow",
    "plan_flows",
    "topology_positions",
    "adjacency_from_positions",
    "LiveRunConfig",
    "LiveRunReport",
    "LoopbackNetwork",
    "run_soak",
]

NodeId = Hashable


# ---------------------------------------------------------------------------
# Clock


class LiveClock:
    """The :class:`~repro.runtime.base.Clock` over an asyncio event loop.

    ``now`` is *protocol time*: scaled seconds since the epoch.  Timers map
    onto ``loop.call_later`` (whose handles already satisfy
    :class:`~repro.runtime.base.TimerHandle`); the sim-only ``priority``
    argument is accepted and ignored — wall-clock simultaneity has no exact
    meaning, which is precisely why the protocols treat it as advisory.
    """

    __slots__ = ("_loop", "_scale", "_epoch")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        *,
        time_scale: float = 1.0,
        epoch: Optional[float] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self._loop = loop
        self._scale = time_scale
        self._epoch = loop.time() if epoch is None else epoch

    @classmethod
    def from_wall_epoch(
        cls,
        loop: asyncio.AbstractEventLoop,
        wall_epoch: float,
        *,
        time_scale: float = 1.0,
    ) -> "LiveClock":
        """A clock whose t=0 is a shared ``time.time()`` instant.

        UDP router processes each run their own loop with its own monotonic
        base; aligning every clock to one wall epoch makes ``created_at``
        stamps comparable across processes, so end-to-end latency of a
        packet delivered in another process is meaningful.
        """
        return cls(
            loop,
            time_scale=time_scale,
            epoch=loop.time() - (time.time() - wall_epoch),
        )

    @property
    def now(self) -> float:
        """Current protocol time in seconds since the epoch."""
        return (self._loop.time() - self._epoch) / self._scale

    def schedule_in(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> TimerHandle:
        """Run ``callback`` after ``delay`` protocol seconds."""
        return self._loop.call_later(max(delay, 0.0) * self._scale, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> TimerHandle:
        """Run ``callback`` at protocol time ``time`` (immediately if past)."""
        return self.schedule_in(time - self.now, callback)


# ---------------------------------------------------------------------------
# Flood control


class ExpiringSet:
    """Set membership with per-entry expiry, for message-id deduplication.

    ``add`` returns True for a key not currently in the set (and inserts
    it), False for a live duplicate.  Entries expire ``window`` protocol
    seconds after insertion.  Eviction is O(1) amortised: with a constant
    window, insertion order is expiry order, so a deque of ``(expiry, key)``
    pairs drains from the left; a stale pair whose key was re-added after
    expiring is skipped by comparing the recorded expiry.
    """

    __slots__ = ("_clock", "_window", "_expiry", "_order")

    def __init__(self, clock, window: float) -> None:
        if window <= 0:
            raise ValueError("dedup window must be positive")
        self._clock = clock
        self._window = window
        self._expiry: Dict[Any, float] = {}
        self._order: Deque[Tuple[float, Any]] = deque()

    def __len__(self) -> int:
        self._evict(self._clock.now)
        return len(self._expiry)

    def __contains__(self, key: Any) -> bool:
        expiry = self._expiry.get(key)
        return expiry is not None and expiry > self._clock.now

    def add(self, key: Any) -> bool:
        """Insert ``key``; True when it was not already live in the set."""
        now = self._clock.now
        self._evict(now)
        existing = self._expiry.get(key)
        if existing is not None and existing > now:
            return False
        expiry = now + self._window
        self._expiry[key] = expiry
        self._order.append((expiry, key))
        return True

    def _evict(self, now: float) -> None:
        order = self._order
        expiry_map = self._expiry
        while order and order[0][0] <= now:
            expiry, key = order.popleft()
            if expiry_map.get(key) == expiry:
                del expiry_map[key]


# ---------------------------------------------------------------------------
# Counters


@dataclass
class LiveCounters:
    """Per-node runtime counters, split into routine drops and violations.

    ``ttl_drops``/``dedup_drops`` are expected flood-control work.  The two
    violation counters flag flood-control *failures* and must be zero:

    * ``ttl_violations`` — a received packet's hop count exceeds the TTL,
      which no conforming sender can transmit (senders drop after the
      increment), so a nonzero count means a router forwarded past the
      budget;
    * ``dedup_violations`` — a broadcast message id was accepted as new but
      had been seen before the dedup window expired it, i.e. a duplicate
      outlived the ``ExpiringSet`` and slipped through (window too small
      for the network's actual flood latency).

    ``rejected_datagrams`` counts UDP datagrams dropped unread: sent from an
    address outside the router's address book, or not a decodable frame.
    """

    unicast_sent: int = 0
    broadcast_sent: int = 0
    received: int = 0
    ttl_drops: int = 0
    dedup_drops: int = 0
    ttl_violations: int = 0
    dedup_violations: int = 0
    undeliverable: int = 0
    rejected_datagrams: int = 0

    @property
    def violations(self) -> int:
        """Total flood-control failures (the live gate asserts zero)."""
        return self.ttl_violations + self.dedup_violations

    def merge(self, other: "LiveCounters") -> None:
        """Accumulate another node's counters into this roll-up."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> Dict[str, int]:
        """A JSON-safe dict of every counter."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "LiveCounters":
        """Rebuild counters written by :meth:`to_dict`."""
        return cls(**dict(data))


# ---------------------------------------------------------------------------
# The live node (Runtime implementation)


class LiveNode(Runtime):
    """One live router: the :class:`Runtime` over a live transport.

    Mirrors the sim ``Node``'s statistics discipline exactly — data sent
    recorded at origination, delivery keyed so duplicates are counted not
    double-credited, control transmissions counted per send — so a live
    :class:`TrialSummary` is comparable to a simulated one.  On top it adds
    the transport-level flood control (TTL, broadcast dedup) the simulator
    delegates to its MAC/channel physics.

    Delivery dedup keys on ``(source, uid)`` rather than bare ``uid``
    because UDP routers are separate processes with independent packet-id
    counters: uids collide across processes, (origin, uid) pairs cannot.
    """

    def __init__(
        self,
        node_id: NodeId,
        clock: LiveClock,
        transport: "LiveTransportBase",
        stats: TrialStats,
        *,
        max_ttl: int = 16,
        dedup_window: float = 30.0,
    ) -> None:
        if max_ttl < 1:
            raise ValueError("max_ttl must be at least 1")
        self.node_id = node_id
        self.clock = clock
        self.transport = transport
        self.stats = stats
        self.max_ttl = max_ttl
        self.counters = LiveCounters()
        self._seen = ExpiringSet(clock, dedup_window)
        #: Every broadcast message id ever accepted, for violation auditing.
        #: Unbounded by design: a soak is finite, and trading the audit away
        #: would make ``dedup_violations`` unobservable.
        self._audit: set = set()
        self.protocol = None
        self.closed = False

    # -- wiring -----------------------------------------------------------------------

    def attach_protocol(self, protocol) -> None:
        """Install the routing protocol (same contract as the sim node's)."""
        self.protocol = protocol
        protocol.attach(self)

    def start(self) -> None:
        """Start the routing protocol's timers."""
        if self.protocol is None:
            raise RuntimeError(f"router {self.node_id!r} has no routing protocol")
        self.protocol.start()

    def close(self) -> None:
        """Stop transmitting and receiving (drain phase / shutdown)."""
        self.closed = True

    # -- application data path ---------------------------------------------------------

    def originate_data(
        self, destination: NodeId, size_bytes: int, flow_id: Optional[int] = None
    ) -> None:
        """Create one application data packet and hand it to the protocol."""
        if self.protocol is None:
            raise RuntimeError(f"router {self.node_id!r} has no routing protocol")
        if self.closed:
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
        """A data packet reached this router (called by the protocol)."""
        latency = self.clock.now - packet.created_at
        self.stats.record_data_delivered(
            (packet.source, packet.uid), latency, created_at=packet.created_at
        )

    # -- transmission ------------------------------------------------------------------

    def send_unicast(self, packet: Packet, next_hop: NodeId) -> None:
        """Fire-and-forget datagram to one neighbour (no link-layer feedback)."""
        self._send(packet, next_hop)

    def send_broadcast(self, packet: Packet) -> None:
        """Datagram to every neighbour inside radio range."""
        self._send(packet, None)

    def _send(self, packet: Packet, receiver: Optional[NodeId]) -> None:
        if self.closed:
            return
        # Mirror the sim MAC: ``hops`` counts transmissions of this packet.
        packet.hops += 1
        if packet.hops > self.max_ttl:
            self.counters.ttl_drops += 1
            return
        if packet.is_control:
            self.stats.record_control_transmission(self.clock.now)
        if receiver is None:
            self.counters.broadcast_sent += 1
        else:
            self.counters.unicast_sent += 1
        self.transport.send(self.node_id, packet, receiver)

    # -- reception ---------------------------------------------------------------------

    def receive(self, packet: Packet, from_node: NodeId, was_broadcast: bool) -> None:
        """Transport callback: run flood control, then hand to the protocol."""
        if self.closed or self.protocol is None:
            return
        self.counters.received += 1
        if packet.hops > self.max_ttl:
            # No conforming sender transmits past the budget; receiving one
            # means a peer's TTL enforcement failed.
            self.counters.ttl_violations += 1
            return
        if was_broadcast:
            message_id = (packet.source, packet.uid)
            if not self._seen.add(message_id):
                self.counters.dedup_drops += 1
                return
            if message_id in self._audit:
                # The ExpiringSet had already forgotten this id: a duplicate
                # outlived the window.  Still dropped — but as a violation.
                self.counters.dedup_violations += 1
                self.counters.dedup_drops += 1
                return
            self._audit.add(message_id)
        self.protocol.handle_packet(packet, from_node)


class LiveTransportBase:
    """The transport surface a :class:`LiveNode` sends through.

    Radio range is a sender-side filter over the static adjacency map
    (``_adjacency``); ``_nodes`` holds the routers this transport serves.
    """

    _adjacency: Mapping[int, Sequence[int]]
    _nodes: Dict[NodeId, LiveNode]

    def send(
        self, origin: NodeId, packet: Packet, receiver: Optional[NodeId]
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _targets(self, origin: NodeId, receiver: Optional[NodeId]) -> Sequence[NodeId]:
        """Who hears ``origin``: every neighbour for a broadcast (``receiver``
        None), else ``receiver`` if it is in range.  A unicast beyond radio
        range is lost, counted in the sender's ``undeliverable``."""
        neighbors = self._adjacency.get(origin, ())
        if receiver is None:
            return neighbors
        if receiver in neighbors:
            return (receiver,)
        sender = self._nodes.get(origin)
        if sender is not None:
            sender.counters.undeliverable += 1
        return ()


# ---------------------------------------------------------------------------
# Topology

#: Router spacing and radio range of every soak topology (protocol units): a
#: line or grid router hears only its adjacent routers.
SPACING = 1.0
RADIO_RANGE = 1.25
#: One loopback hop's delivery delay, in protocol seconds.
HOP_LATENCY = 0.002
#: Traffic-free seconds at the end of a soak, so in-flight packets can land.
DRAIN = 4.0
#: Every data packet's size in bytes (the paper's 512-byte CBR packets).
PACKET_SIZE = 512


def topology_positions(
    kind: str, count: int, *, seed: int = 1
) -> Dict[int, Tuple[float, float]]:
    """Static router positions for a named topology.

    ``random`` draws positions uniformly in a square sized for roughly
    constant density, re-drawing (deterministically, from the seed) until
    the resulting radio graph is connected — a disconnected soak would
    report a delivery floor violation that says nothing about the protocol.
    """
    if count < 2:
        raise ValueError("a live run needs at least two routers")
    if kind == "line":
        return {i: (i * SPACING, 0.0) for i in range(count)}
    if kind == "ring":
        radius = SPACING / (2.0 * math.sin(math.pi / count))
        return {
            i: (
                radius * math.cos(2.0 * math.pi * i / count),
                radius * math.sin(2.0 * math.pi * i / count),
            )
            for i in range(count)
        }
    if kind == "grid":
        columns = math.ceil(math.sqrt(count))
        return {
            i: ((i % columns) * SPACING, (i // columns) * SPACING)
            for i in range(count)
        }
    if kind == "random":
        side = math.sqrt(count) * SPACING
        for attempt in range(256):
            rng = random.Random(derive_seed(seed, f"live-topology:{attempt}"))
            positions = {
                i: (rng.uniform(0.0, side), rng.uniform(0.0, side))
                for i in range(count)
            }
            if _connected(adjacency_from_positions(positions)):
                return positions
        raise ValueError(
            f"no connected random topology for {count} routers with radio "
            f"range {RADIO_RANGE:g} (side {side:g}); raise the range"
        )
    raise ValueError(f"unknown topology {kind!r}; expected one of {TOPOLOGIES}")


def adjacency_from_positions(
    positions: Mapping[int, Tuple[float, float]],
) -> Dict[int, Tuple[int, ...]]:
    """node -> neighbours within :data:`RADIO_RANGE` (sorted, symmetric)."""
    ids = sorted(positions)
    limit = RADIO_RANGE * RADIO_RANGE
    adjacency: Dict[int, Tuple[int, ...]] = {}
    for a in ids:
        ax, ay = positions[a]
        neighbors = []
        for b in ids:
            if b == a:
                continue
            bx, by = positions[b]
            if (ax - bx) ** 2 + (ay - by) ** 2 <= limit:
                neighbors.append(b)
        adjacency[a] = tuple(neighbors)
    return adjacency


def _connected(adjacency: Mapping[int, Sequence[int]]) -> bool:
    ids = list(adjacency)
    if not ids:
        return False
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(ids)


# ---------------------------------------------------------------------------
# Loopback transport


class LoopbackHub(LiveTransportBase):
    """In-process transport: delivery is an asyncio timer on a shared loop.

    Radio range is the static adjacency map; a unicast to a node outside it
    is silently lost (counted in the sender's ``undeliverable``), matching a
    datagram sent beyond radio range.  Each receiver gets its own packet
    copy (sharing uid/hops, via ``copy_for_forwarding``) so routers never
    alias mutable state — the property the UDP transport gets from
    serialization for free.
    """

    def __init__(
        self,
        clock: LiveClock,
        adjacency: Mapping[int, Sequence[int]],
    ) -> None:
        self._clock = clock
        self._adjacency = adjacency
        self._nodes: Dict[NodeId, LiveNode] = {}

    def register(self, node: LiveNode) -> None:
        """Add a router to the hub (idempotent per node id)."""
        self._nodes[node.node_id] = node

    def send(
        self, origin: NodeId, packet: Packet, receiver: Optional[NodeId]
    ) -> None:
        was_broadcast = receiver is None
        for target in self._targets(origin, receiver):
            node = self._nodes.get(target)
            if node is None:
                continue
            self._clock.schedule_in(
                HOP_LATENCY,
                partial(
                    node.receive, packet.copy_for_forwarding(), origin, was_broadcast
                ),
            )


# ---------------------------------------------------------------------------
# UDP transport


class _UdpReceiver(asyncio.DatagramProtocol):
    """Datagram callbacks -> the node's receive path.

    Unpickling runs code chosen by the sender, so only datagrams from the
    routers of this soak (``peers``, their ``(host, port)`` addresses) are
    decoded; anything else, and anything that does not decode to a frame,
    is dropped and counted in ``rejected_datagrams``.
    """

    def __init__(self, node: LiveNode, peers: Set[Tuple[str, int]]) -> None:
        self._node = node
        self._peers = peers

    def datagram_received(self, data: bytes, addr) -> None:
        if tuple(addr) not in self._peers:
            self._node.counters.rejected_datagrams += 1
            return
        try:
            origin, was_broadcast, packet = pickle.loads(data)
        except Exception:
            self._node.counters.rejected_datagrams += 1
            return
        self._node.receive(packet, origin, was_broadcast)


class UdpTransport(LiveTransportBase):
    """Real datagrams between router processes on localhost.

    The sender serialises ``(origin, was_broadcast, packet)`` with pickle —
    protocol payloads are plain module-level dataclasses, so the wire format
    needs no per-protocol marshalling code — and applies the same
    sender-side adjacency filter as the loopback hub: radio range on a wire
    that physically reaches everyone.
    """

    def __init__(
        self,
        node_id: NodeId,
        adjacency: Mapping[int, Sequence[int]],
        address_book: Mapping[int, Tuple[str, int]],
    ) -> None:
        self.node_id = node_id
        self._adjacency = adjacency
        self._book = dict(address_book)
        self._peers = {tuple(address) for address in self._book.values()}
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._nodes: Dict[NodeId, LiveNode] = {}

    async def open(self, node: LiveNode, sock: socket.socket) -> None:
        """Bind the datagram endpoint on an already-bound socket."""
        self._nodes[node.node_id] = node
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _UdpReceiver(node, self._peers), sock=sock
        )

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def send(
        self, origin: NodeId, packet: Packet, receiver: Optional[NodeId]
    ) -> None:
        if self._transport is None:
            return
        targets = self._targets(origin, receiver)
        if not targets:
            return
        payload = pickle.dumps(
            (origin, receiver is None, packet), protocol=pickle.HIGHEST_PROTOCOL
        )
        for target in targets:
            address = self._book.get(target)
            if address is not None:
                self._transport.sendto(payload, address)


# ---------------------------------------------------------------------------
# Traffic


@dataclass(frozen=True, slots=True)
class CbrFlow:
    """One constant-bit-rate flow of the soak workload."""

    flow_id: int
    source: int
    destination: int
    start: float
    end: float


def plan_flows(
    node_ids: Sequence[int],
    *,
    flows: int,
    seed: int,
    warmup: float,
    duration: float,
) -> List[CbrFlow]:
    """The soak's deterministic CBR flow plan.

    Flows start after ``warmup`` (routing must be allowed to converge — the
    soak measures steady-state forwarding, not cold-start discovery, which
    reactive protocols exercise anyway on each flow's first packet) and end
    :data:`DRAIN` seconds before the run does, so in-flight packets can land.
    The plan is a pure function of the seed: every UDP router process
    derives the identical plan and originates only its own flows.
    """
    window_start = warmup
    window_end = duration - DRAIN
    if window_end <= window_start:
        raise ValueError(
            "duration too short: no traffic window between warmup and drain"
        )
    rng = random.Random(derive_seed(seed, "live-traffic"))
    plan: List[CbrFlow] = []
    for flow_id in range(flows):
        source, destination = rng.sample(list(node_ids), 2)
        start = window_start + rng.uniform(0.0, (window_end - window_start) * 0.25)
        plan.append(
            CbrFlow(
                flow_id=flow_id,
                source=source,
                destination=destination,
                start=start,
                end=window_end,
            )
        )
    return plan


def _schedule_flow_packets(
    clock: LiveClock,
    flow: CbrFlow,
    originate: Callable[..., None],
    *,
    rate: float,
) -> int:
    """Schedule every packet of one flow; returns how many were scheduled."""
    count = 0
    t = flow.start
    while t < flow.end:
        clock.schedule_at(
            t, partial(originate, flow.destination, PACKET_SIZE, flow.flow_id)
        )
        count += 1
        t = flow.start + count / rate
    return count


# ---------------------------------------------------------------------------
# Run configuration and report


@dataclass
class LiveRunConfig:
    """Everything one live soak run depends on (JSON-safe, seed included).

    Durations are protocol seconds; ``time_scale`` maps them to wall time.
    The defaults describe a small but honest soak: five routers in a line,
    three flows, 40 protocol seconds.
    """

    protocol: str = "LSR"
    transport: str = "loopback"
    routers: int = 5
    topology: str = "line"
    duration: float = 40.0
    warmup: float = 12.0
    time_scale: float = 1.0
    flows: int = 3
    rate: float = 4.0
    seed: int = 1
    max_ttl: int = 16
    dedup_window: float = 30.0
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; expected one of {TRANSPORTS}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.routers < 2:
            raise ValueError("a live run needs at least two routers")
        if self.flows < 1:
            raise ValueError("a soak needs at least one flow")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.max_ttl < 1:
            raise ValueError("max_ttl must be at least 1")
        if self.dedup_window <= 0:
            raise ValueError("dedup window must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.duration - DRAIN <= self.warmup:
            raise ValueError(
                f"duration too short: no traffic window between warmup "
                f"({self.warmup:g} s) and drain ({DRAIN:g} s) in "
                f"{self.duration:g} s"
            )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (the UDP handshake ships configs this way)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LiveRunConfig":
        """Rebuild a config written by :meth:`to_dict`."""
        return cls(**dict(data))

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """The soak's radio graph: router -> neighbours within range."""
        adjacency = adjacency_from_positions(
            topology_positions(self.topology, self.routers, seed=self.seed)
        )
        if not _connected(adjacency):
            raise ValueError(
                f"{self.topology} topology with {self.routers} routers is "
                f"not connected at radio range {RADIO_RANGE:g}"
            )
        return adjacency

    def flow_plan(self) -> List[CbrFlow]:
        """The soak's CBR flows (:func:`plan_flows` over routers 0..N-1)."""
        return plan_flows(
            range(self.routers),
            flows=self.flows,
            seed=self.seed,
            warmup=self.warmup,
            duration=self.duration,
        )


@dataclass
class LiveRunReport:
    """The outcome of one live soak: sim-comparable summary plus counters."""

    config: LiveRunConfig
    summary: TrialSummary
    counters: LiveCounters
    flows: List[CbrFlow] = field(default_factory=list)

    @property
    def violations(self) -> int:
        """Flood-control failures (dedup + TTL); must be zero."""
        return self.counters.violations

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict for ``live --json`` artifacts."""
        return {
            "config": self.config.to_dict(),
            "summary": self.summary.to_dict(),
            "counters": self.counters.to_dict(),
            "violations": self.violations,
            "flows": [dataclasses.asdict(flow) for flow in self.flows],
        }


# ---------------------------------------------------------------------------
# Loopback soak


class LoopbackNetwork:
    """An assembled single-process live network (build/run split for tests).

    The parity tests build one without traffic, let it converge, and read
    the protocols' routing tables; :func:`run_soak` drives the full soak.
    Must be constructed with an event loop running (``async`` context).
    """

    def __init__(self, config: LiveRunConfig) -> None:
        if config.transport != "loopback":
            raise ValueError("LoopbackNetwork is the loopback transport")
        self.config = config
        loop = asyncio.get_running_loop()
        self.clock = LiveClock(loop, time_scale=config.time_scale)
        self.adjacency = config.adjacency()
        self.stats = TrialStats()
        self.hub = LoopbackHub(self.clock, self.adjacency)
        factory = protocol_factory(config.protocol)
        self.nodes: Dict[int, LiveNode] = {}
        for node_id in sorted(self.adjacency):
            node = LiveNode(
                node_id,
                self.clock,
                self.hub,
                self.stats,
                max_ttl=config.max_ttl,
                dedup_window=config.dedup_window,
            )
            node.attach_protocol(factory(node_id))
            self.hub.register(node)
            self.nodes[node_id] = node

    def start(self) -> None:
        """Start every router's protocol."""
        for node in self.nodes.values():
            node.start()

    def schedule_traffic(self) -> List[CbrFlow]:
        """Plan the CBR flows and schedule every packet origination."""
        config = self.config
        flows = config.flow_plan()
        for flow in flows:
            _schedule_flow_packets(
                self.clock,
                flow,
                self.nodes[flow.source].originate_data,
                rate=config.rate,
            )
        return flows

    async def run_for(self, protocol_seconds: float) -> None:
        """Let the network run for a span of protocol time."""
        await asyncio.sleep(protocol_seconds * self.config.time_scale)

    def finish(self) -> Tuple[TrialSummary, LiveCounters]:
        """Close every router and roll up the trial statistics."""
        counters = LiveCounters()
        for node in self.nodes.values():
            node.close()
            node.protocol.finalize()
            self.stats.record_sequence_number(
                node.node_id, node.protocol.sequence_number_metric()
            )
            self.stats.record_mac_drops(node.node_id, 0)
            counters.merge(node.counters)
        return self.stats.summary(), counters

    def routing_tables(self) -> Dict[int, Dict[NodeId, NodeId]]:
        """Each router's next hop to every other router it has a route to."""
        tables: Dict[int, Dict[NodeId, NodeId]] = {}
        for node_id, node in self.nodes.items():
            table = tables[node_id] = {}
            for destination in self.nodes:
                if destination != node_id:
                    next_hop = node.protocol.next_hop(destination)
                    if next_hop is not None:
                        table[destination] = next_hop
        return tables


async def _loopback_soak(config: LiveRunConfig) -> LiveRunReport:
    network = LoopbackNetwork(config)
    network.start()
    flows = network.schedule_traffic()
    await network.run_for(config.duration)
    summary, counters = network.finish()
    return LiveRunReport(
        config=config, summary=summary, counters=counters, flows=flows
    )


# ---------------------------------------------------------------------------
# UDP soak (one OS process per router)


def _udp_router_main(node_id: int, config_dict: Dict[str, Any], conn) -> None:
    """Entry point of one router process (multiprocessing target).

    Handshake: bind UDP port -> send it to the launcher -> receive the full
    address book, the radio graph and the shared wall epoch -> run the
    router until the configured duration -> send the local statistics back.
    """
    config = LiveRunConfig.from_dict(config_dict)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind((config.host, 0))
        sock.setblocking(False)
        conn.send(("port", node_id, sock.getsockname()[1]))
        handshake = conn.recv()
        payload = asyncio.run(_udp_router_async(node_id, config, sock, **handshake))
        conn.send(("stats", node_id, payload))
    finally:
        sock.close()
        conn.close()


async def _udp_router_async(
    node_id: int,
    config: LiveRunConfig,
    sock: socket.socket,
    *,
    book: Dict[int, Tuple[str, int]],
    adjacency: Dict[int, Tuple[int, ...]],
    epoch: float,
) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    clock = LiveClock.from_wall_epoch(loop, epoch, time_scale=config.time_scale)
    stats = TrialStats()
    transport = UdpTransport(node_id, adjacency, book)
    node = LiveNode(
        node_id,
        clock,
        transport,
        stats,
        max_ttl=config.max_ttl,
        dedup_window=config.dedup_window,
    )
    node.attach_protocol(protocol_factory(config.protocol)(node_id))
    await transport.open(node, sock)
    # Align every router's protocol start to the shared epoch (t = 0).
    clock.schedule_at(0.0, node.start)
    # Every process derives the identical flow plan; this one originates
    # only the flows whose source it is.
    for flow in config.flow_plan():
        if flow.source == node_id:
            _schedule_flow_packets(
                clock,
                flow,
                node.originate_data,
                rate=config.rate,
            )
    remaining = config.duration - clock.now
    if remaining > 0:
        await asyncio.sleep(remaining * config.time_scale)
    node.close()
    node.protocol.finalize()
    transport.close()
    return {
        "data_sent": stats.data_sent,
        "data_delivered": stats.data_delivered,
        "duplicate_deliveries": stats.duplicate_deliveries,
        "control_transmissions": stats.control_transmissions,
        "latencies": list(stats.latencies),
        "sequence_number": node.protocol.sequence_number_metric(),
        "counters": node.counters.to_dict(),
    }


def _udp_soak(config: LiveRunConfig) -> LiveRunReport:
    """Launch one process per router, run the soak, merge their statistics."""
    import multiprocessing

    adjacency = config.adjacency()
    ctx = multiprocessing.get_context()
    routers = []
    try:
        for node_id in range(config.routers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_udp_router_main,
                args=(node_id, config.to_dict(), child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            routers.append((node_id, process, parent_conn))

        book: Dict[int, Tuple[str, int]] = {}
        for node_id, _, conn in routers:
            if not conn.poll(30.0):
                raise RuntimeError(f"router {node_id} never reported its port")
            tag, reported_id, port = conn.recv()
            if tag != "port":  # pragma: no cover - protocol error
                raise RuntimeError(f"router {node_id}: unexpected {tag!r}")
            book[reported_id] = (config.host, port)

        # Give every process time to receive the book before t = 0.
        epoch = time.time() + 0.5
        for _, _, conn in routers:
            conn.send({"book": book, "adjacency": adjacency, "epoch": epoch})

        wall_budget = 0.5 + config.duration * config.time_scale + 30.0
        deadline = time.time() + wall_budget
        stats = TrialStats()
        counters = LiveCounters()
        for node_id, _, conn in routers:
            timeout = max(deadline - time.time(), 0.1)
            if not conn.poll(timeout):
                raise RuntimeError(
                    f"router {node_id} did not report statistics within "
                    f"{wall_budget:.0f}s"
                )
            tag, reported_id, payload = conn.recv()
            if tag != "stats":  # pragma: no cover - protocol error
                raise RuntimeError(f"router {node_id}: unexpected {tag!r}")
            stats.data_sent += payload["data_sent"]
            stats.data_delivered += payload["data_delivered"]
            stats.duplicate_deliveries += payload["duplicate_deliveries"]
            stats.control_transmissions += payload["control_transmissions"]
            stats.latencies.extend(payload["latencies"])
            stats.record_sequence_number(reported_id, payload["sequence_number"])
            stats.record_mac_drops(reported_id, 0)
            counters.merge(LiveCounters.from_dict(payload["counters"]))

        for _, process, _ in routers:
            process.join(timeout=10.0)
    finally:
        for _, process, conn in routers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            conn.close()

    return LiveRunReport(
        config=config,
        summary=stats.summary(),
        counters=counters,
        flows=config.flow_plan(),
    )


def run_soak(config: LiveRunConfig) -> LiveRunReport:
    """Run one live soak (loopback in-process, or one UDP process per router)."""
    if config.transport == "loopback":
        return asyncio.run(_loopback_soak(config))
    return _udp_soak(config)
