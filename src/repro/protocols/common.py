"""Machinery shared by the routing protocols: three skeletons and their parts.

**The on-demand skeleton** (:class:`OnDemandProtocol`) is the outer shape
SRP, LDR, AODV and DSR share.  Data with a route is forwarded; data without
one waits in a per-destination buffer while a
:class:`DiscoveryController` floods RREQs, retries them on a timer and
finally gives up, dropping the buffer (Procedure 1).  A route reply at the
source flushes the buffer.  A relay that cannot forward data answers with a
route error, a broken next hop sends the node's own data back to discovery
and drops relayed data, and a crash wipes the buffer, the discoveries and
the RREQ dedup (:class:`SeenSequences`).  LDR and SRP add a
**route-request cache** (:class:`RreqCache`) with the passive / engaged /
active states of one ``(source, rreq_id)`` computation, its reverse-path
last hop and any per-computation ordering.

**The distance-vector skeleton** (:class:`DistanceVectorProtocol`) adds the
one table LDR and AODV share, a :class:`RouteEntry` per destination, with its
expiry tick, route refresh, link-break invalidation and route-error broadcast.

**The link-state skeleton** (:class:`LinkStateProtocol`) is what OLSR and
LSR share: hello soft state for neighbours, a link-state database
(:class:`LsdbEntry` per origin, flood dedup on :class:`SeenSequences`),
desynchronised periodic emissions, a route tick that reruns the
shortest-path computation only when its result could differ, split-horizon
forwarding under a hop limit, and reroute-or-drop on a broken link.

A protocol module holds only what differs: its messages and their handlers,
its loop-prevention state (sequence numbers, feasible distances, fraction
orderings, source routes) and its reply/accept conditions, or, for the link
state pair, its flooding discipline and shortest-path computation.  Every
protocol drives its periodic maintenance with :class:`PeriodicTimer`.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..sim.packet import Packet
from .base import PacketBuffer, ProtocolConfig, RoutingProtocol

__all__ = [
    "ComputationState",
    "RreqCacheEntry",
    "RreqCache",
    "DiscoveryController",
    "DiscoveryState",
    "PeriodicTimer",
    "SeenSequences",
    "LsdbEntry",
    "OnDemandProtocol",
    "DistanceVectorConfig",
    "DistanceVectorProtocol",
    "RouteEntry",
    "LinkStateProtocol",
    "CONTROL_SIZES",
    "INFINITE_DISTANCE",
]

NodeId = Hashable

_NEVER = float("inf")

#: Distance of a route a node never had (for LDR's feasible distance: anything
#: is in order).
INFINITE_DISTANCE = float("inf")

#: Nominal control-packet sizes in bytes (IP + UDP + protocol header), used
#: only for transmission-time computation.
CONTROL_SIZES = {
    "rreq": 52,
    "rrep": 44,
    "rerr": 32,
    "hello": 40,
    "tc": 60,
}


class PeriodicTimer:
    """One repeating timer event driving a per-node maintenance scan.

    Every protocol in the repository aggregates its per-entry timeouts
    (route lifetimes, RREQ-cache ages, discovery retries that expired) into
    one periodic tick per node instead of one timer event per entry —
    the timer-wheel idea at its coarsest.  This class is that tick: it
    calls ``callback(now)`` every ``interval`` seconds, rescheduling itself
    *after* the callback exactly as the protocols' hand-rolled maintenance
    loops did (so event sequence numbers, and with them same-instant
    tie-breaking, are unchanged).  ``clock`` is any
    :class:`~repro.runtime.base.Clock` — the simulator in a trial, the
    asyncio clock live.

    ``start(first_delay=...)`` supports the desynchronised first firings
    the periodic protocols use (OLSR's per-node hello/TC offsets).
    """

    __slots__ = ("_clock", "_interval", "_callback")

    def __init__(self, clock, interval: float, callback) -> None:
        self._clock = clock
        self._interval = interval
        self._callback = callback

    def start(self, first_delay: Optional[float] = None) -> None:
        """Schedule the first tick (default: one full interval from now)."""
        delay = self._interval if first_delay is None else first_delay
        self._clock.schedule_in(delay, self._tick)

    def _tick(self) -> None:
        self._callback(self._clock.now)
        self._clock.schedule_in(self._interval, self._tick)


class SeenSequences:
    """The ``(origin, seq)`` pairs a flooding node has already handled.

    Exactly the membership of a ``set`` of tuples — out-of-order and
    duplicate arrivals included — stored as one int bitmask per origin
    (bit ``seq`` set once seen).  Every flood here numbers each origin's
    messages 1, 2, 3, … (link-state advertisements, and RREQ ids from a
    node's :class:`DiscoveryController`), so a node's whole dedup memory is
    one small int per origin instead of one tuple per flood it ever
    relayed, and nothing is forgotten to keep it bounded.  A mask costs one
    bit per sequence number up to the highest seen.
    """

    __slots__ = ("_masks",)

    def __init__(self) -> None:
        self._masks: Dict[NodeId, int] = {}

    def add(self, origin: NodeId, seq: int) -> bool:
        """Record ``(origin, seq)``; True when it was not seen before."""
        if seq < 0:
            raise ValueError(f"sequence number must be >= 0, got {seq!r}")
        masks = self._masks
        mask = masks.get(origin, 0)
        bit = 1 << seq
        if mask & bit:
            return False
        masks[origin] = mask | bit
        return True

    def clear(self) -> None:
        """Forget everything (a crashed node's volatile state)."""
        self._masks.clear()


class ComputationState(enum.Enum):
    """LDR/SRP route-computation states for one ``(source, rreq_id)`` pair."""

    PASSIVE = "passive"
    ENGAGED = "engaged"
    ACTIVE = "active"


@dataclass
class RreqCacheEntry:
    """What a node remembers about one route computation it participates in."""

    source: NodeId
    rreq_id: int
    state: ComputationState
    last_hop: Optional[NodeId] = None
    cached_ordering: Any = None
    replied: bool = False
    created_at: float = 0.0


class RreqCache:
    """The per-node table of route computations, keyed by ``(source, rreq_id)``.

    A node enters each computation at most once (Theorem 7's argument for
    control packets not looping), so :meth:`try_engage` refuses a second entry
    for the same key.
    """

    def __init__(self, *, max_age: float = 60.0) -> None:
        self._entries: Dict[Tuple[NodeId, int], RreqCacheEntry] = {}
        self._max_age = max_age

    def state_of(self, source: NodeId, rreq_id: int) -> ComputationState:
        """Current state for the pair; PASSIVE when never seen."""
        entry = self._entries.get((source, rreq_id))
        return entry.state if entry else ComputationState.PASSIVE

    def get(self, source: NodeId, rreq_id: int) -> Optional[RreqCacheEntry]:
        """The cache entry, or ``None`` when the node is passive for the pair."""
        return self._entries.get((source, rreq_id))

    def activate(self, source: NodeId, rreq_id: int, now: float) -> RreqCacheEntry:
        """Record that this node originated the computation (state ACTIVE)."""
        entry = RreqCacheEntry(
            source, rreq_id, ComputationState.ACTIVE, created_at=now
        )
        self._entries[(source, rreq_id)] = entry
        return entry

    def try_engage(
        self,
        source: NodeId,
        rreq_id: int,
        now: float,
        *,
        last_hop: Optional[NodeId],
        cached_ordering: Any = None,
    ) -> Optional[RreqCacheEntry]:
        """Move PASSIVE -> ENGAGED and return the entry; ``None`` if not passive."""
        if self.state_of(source, rreq_id) is not ComputationState.PASSIVE:
            return None
        entry = RreqCacheEntry(
            source,
            rreq_id,
            ComputationState.ENGAGED,
            last_hop=last_hop,
            cached_ordering=cached_ordering,
            created_at=now,
        )
        self._entries[(source, rreq_id)] = entry
        return entry

    def expire(self, now: float) -> None:
        """Drop entries older than the cache lifetime (DELETE_PERIOD).

        Entries are inserted with ``created_at = now`` and never re-keyed,
        so dict insertion order is creation order and the stale entries are
        exactly a prefix: the scan stops at the first live entry instead of
        walking the whole table once per maintenance tick per node.
        """
        entries = self._entries
        stale = []
        max_age = self._max_age
        for key, entry in entries.items():
            if now - entry.created_at <= max_age:
                break
            stale.append(key)
        for key in stale:
            del entries[key]


@dataclass
class DiscoveryState:
    """The source-side state of one in-progress route discovery."""

    destination: NodeId
    rreq_id: int
    attempts: int = 1
    timer: Any = None


class DiscoveryController:
    """Runs route-discovery attempts and retries for a source node.

    The caller supplies ``send_request(destination, rreq_id, attempt)`` which
    actually floods the RREQ, and ``give_up(destination)`` which is invoked
    when the final retry times out (the protocol then drops buffered data, as
    Procedure 1 prescribes).
    """

    def __init__(
        self,
        clock,
        *,
        send_request: Callable[[NodeId, int, int], None],
        give_up: Callable[[NodeId], None],
        timeout: float = 1.0,
        max_attempts: int = 3,
    ) -> None:
        self._clock = clock
        self._send_request = send_request
        self._give_up = give_up
        self._timeout = timeout
        self._max_attempts = max_attempts
        self._next_rreq_id = 0
        self._active: Dict[NodeId, DiscoveryState] = {}

    def is_active(self, destination: NodeId) -> bool:
        """True while a discovery for ``destination`` is outstanding."""
        return destination in self._active

    def next_rreq_id(self) -> int:
        """A fresh, node-locally unique RREQ identifier."""
        self._next_rreq_id += 1
        return self._next_rreq_id

    def begin(self, destination: NodeId) -> Optional[DiscoveryState]:
        """Start a discovery unless one is already active (Procedure 1)."""
        if self.is_active(destination):
            return None
        state = DiscoveryState(destination, self.next_rreq_id())
        self._active[destination] = state
        self._send_request(destination, state.rreq_id, state.attempts)
        self._arm_timer(state)
        return state

    def _arm_timer(self, state: DiscoveryState) -> None:
        state.timer = self._clock.schedule_in(
            self._timeout * state.attempts, lambda: self._on_timeout(state)
        )

    def _on_timeout(self, state: DiscoveryState) -> None:
        if state.destination not in self._active:
            return
        if state.attempts >= self._max_attempts:
            del self._active[state.destination]
            self._give_up(state.destination)
            return
        state.attempts += 1
        state.rreq_id = self.next_rreq_id()
        self._send_request(state.destination, state.rreq_id, state.attempts)
        self._arm_timer(state)

    def complete(self, destination: NodeId) -> None:
        """A route was found; cancel the retry timer."""
        state = self._active.pop(destination, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()

    def abandon_all(self) -> None:
        """Drop every outstanding discovery without invoking ``give_up``.

        Used by the fault layer when a node crashes: the in-flight
        computations die with the node (their retry timers are cancelled so
        a rebooted node does not resurrect pre-crash solicitations).
        """
        for state in self._active.values():
            if state.timer is not None:
                state.timer.cancel()
        self._active.clear()


class OnDemandProtocol(RoutingProtocol):
    """Route discovery on demand: the skeleton of SRP, LDR, AODV and DSR.

    A protocol built on it supplies its route state and these hooks:

    * :meth:`next_hop`, its route lookup;
    * ``_forward_data(packet, next_hop)``, which sends data along that route
      (refreshing the route, or stamping DSR's source route);
    * ``_send_rreq(destination, rreq_id, attempt)``, which floods one RREQ
      for the discovery controller;
    * ``_report_no_route(destination, from_node)``, the route error a relay
      returns for data it cannot forward (DSR source-routes, so it overrides
      ``_handle_data`` instead);
    * ``handle_link_failure``, which passes the stranded data packet to
      :meth:`_rediscover_or_drop` when it has no other route for it.

    ``config`` must carry ``buffer_size``, ``discovery_timeout`` and
    ``max_discovery_attempts``.
    """

    def __init__(self, config) -> None:
        super().__init__()
        self.config = config
        self.buffer = PacketBuffer(max_per_destination=config.buffer_size)
        #: ``(source, rreq_id)`` of every foreign RREQ this node handled.
        #: SRP's :class:`RreqCache` does this job for SRP.
        self.seen_rreqs = SeenSequences()
        self.discovery: Optional[DiscoveryController] = None
        self.data_drops = 0

    def attach(self, node) -> None:
        super().attach(node)
        self.discovery = DiscoveryController(
            node.clock,
            send_request=self._send_rreq,
            give_up=self._discovery_failed,
            timeout=self.config.discovery_timeout,
            max_attempts=self.config.max_discovery_attempts,
        )

    def on_node_down(self) -> None:
        """Crash: RREQ dedup state, buffered data and discoveries are lost.

        Each protocol extends this to wipe its routes and says what it keeps.
        """
        self.seen_rreqs.clear()
        self.buffer = PacketBuffer(max_per_destination=self.config.buffer_size)
        if self.discovery is not None:
            self.discovery.abandon_all()

    # -- data path -------------------------------------------------------------------

    def originate_data(self, packet: Packet) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        next_hop = self.next_hop(packet.destination)
        if next_hop is not None:
            self._forward_data(packet, next_hop)
            return
        self._await_route(packet)

    def _handle_data(self, packet: Packet, from_node: NodeId) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        next_hop = self.next_hop(packet.destination)
        if next_hop is None:
            self.data_drops += 1
            self._report_no_route(packet.destination, from_node)
            return
        self._forward_data(packet.copy_for_forwarding(), next_hop)

    def _rediscover_or_drop(self, packet: Packet) -> None:
        """A data packet's next hop broke and no other route is known.

        This node's own packet waits for a fresh discovery; a relayed one is
        dropped.
        """
        if packet.source == self.node_id:
            self._await_route(packet)
        else:
            self.data_drops += 1

    def _await_route(self, packet: Packet) -> None:
        """Buffer ``packet`` (a drop when full) and discover its route."""
        if not self.buffer.push(packet):
            self.data_drops += 1
        self.discovery.begin(packet.destination)

    def _discovery_failed(self, destination: NodeId) -> None:
        self.data_drops += self.buffer.drop_all(destination)

    def _route_found(self, destination: NodeId) -> None:
        """The source's route is up: stop discovering, send the buffer."""
        self.discovery.complete(destination)
        next_hop = self.next_hop(destination)
        if next_hop is not None:
            for packet in self.buffer.pop_all(destination):
                self._forward_data(packet, next_hop)

    # -- control helpers -------------------------------------------------------------

    def _first_sight(self, rreq) -> bool:
        """True (and recorded) for a live foreign RREQ this node has not handled."""
        return (
            rreq.source != self.node_id
            and rreq.ttl > 0
            and self.seen_rreqs.add(rreq.source, rreq.rreq_id)
        )

    def _broadcast_rreq(self, rreq) -> None:
        self.node.send_broadcast(
            self.make_control_packet(rreq.destination, rreq, CONTROL_SIZES["rreq"])
        )

    def _send_rrep(self, rrep, next_hop: NodeId) -> None:
        """Unicast a route reply one hop back toward its RREQ's source."""
        self.node.send_unicast(
            self.make_control_packet(rrep.source, rrep, CONTROL_SIZES["rrep"]),
            next_hop,
        )

    # -- hooks -----------------------------------------------------------------------

    @abc.abstractmethod
    def _forward_data(self, packet: Packet, next_hop: NodeId) -> None:
        """Send data along this node's route (``next_hop`` is its first hop)."""

    @abc.abstractmethod
    def _send_rreq(self, destination: NodeId, rreq_id: int, attempt: int) -> None:
        """Flood one route request for ``destination`` (Procedure 1)."""

    def _report_no_route(self, destination: NodeId, from_node: NodeId) -> None:
        """Tell ``from_node`` this node has no route to ``destination``."""


@dataclass(frozen=True, slots=True)
class DistanceVectorConfig(ProtocolConfig):
    """The timers and limits AODV and LDR share (each names its own subclass)."""

    route_lifetime: float = 10.0
    discovery_timeout: float = 1.0
    max_discovery_attempts: int = 3
    buffer_size: int = 64
    rreq_ttl: int = 64
    maintenance_interval: float = 1.0


@dataclass(slots=True)
class RouteEntry:
    """One destination's row in a distance-vector table."""

    destination: NodeId
    sequence_number: int = 0
    distance: float = INFINITE_DISTANCE
    next_hop: Optional[NodeId] = None
    valid: bool = False
    expires_at: float = 0.0
    #: LDR only: the smallest distance accepted under ``sequence_number``.
    feasible_distance: float = INFINITE_DISTANCE


class DistanceVectorProtocol(OnDemandProtocol):
    """One next hop per destination under sequence numbers: LDR and AODV.

    Owns the table (:attr:`routes`) and everything that only reads or ages
    it.  A protocol built on it supplies its messages, its accept rule
    (installing with :meth:`_install`) and its reply conditions.
    """

    def __init__(self, config: DistanceVectorConfig) -> None:
        super().__init__(config)
        self.routes: Dict[NodeId, RouteEntry] = {}
        self.own_sequence_number = 0

    def start(self) -> None:
        PeriodicTimer(
            self.clock, self.config.maintenance_interval, self._maintenance
        ).start()

    def _maintenance(self, now: float) -> None:
        """Aggregated per-entry route timeouts: one scan per interval."""
        for entry in self.routes.values():
            if entry.valid and entry.expires_at <= now:
                entry.valid = False

    def on_node_down(self) -> None:
        """Crash: routes are volatile; the own sequence number is durable
        (RFC 3561 §6.1, which LDR inherits, for loop freedom)."""
        self.routes.clear()
        super().on_node_down()

    # -- the table -------------------------------------------------------------------

    def _entry(self, destination: NodeId) -> RouteEntry:
        if destination not in self.routes:
            self.routes[destination] = RouteEntry(destination)
        return self.routes[destination]

    def _install(
        self,
        entry: RouteEntry,
        next_hop: NodeId,
        sequence_number: int,
        distance: float,
    ) -> None:
        """Make ``entry`` a valid route through ``next_hop`` for a lifetime."""
        entry.sequence_number = sequence_number
        entry.distance = distance
        entry.next_hop = next_hop
        entry.valid = True
        entry.expires_at = self.clock.now + self.config.route_lifetime

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        entry = self.routes.get(destination)
        if entry and entry.valid and entry.expires_at > self.clock.now:
            return entry.next_hop
        return None

    def _forward_data(self, packet: Packet, next_hop: NodeId) -> None:
        entry = self.routes.get(packet.destination)
        if entry is not None and entry.valid:
            entry.expires_at = self.clock.now + self.config.route_lifetime
        self.node.send_unicast(packet, next_hop)

    def _invalidate_routes_via(self, neighbor: NodeId) -> List[RouteEntry]:
        """Invalidate every valid route via ``neighbor``; returns those entries."""
        lost = []
        for entry in self.routes.values():
            if entry.valid and entry.next_hop == neighbor:
                entry.valid = False
                lost.append(entry)
        return lost

    def _broadcast_rerr(self, rerr) -> None:
        """Tell every neighbour about routes this node just lost."""
        self.node.send_broadcast(
            self.make_control_packet(self.node_id, rerr, CONTROL_SIZES["rerr"])
        )

    def sequence_number_metric(self) -> int:
        """Fig. 7: how far the node's own sequence number grew."""
        return self.own_sequence_number


@dataclass(slots=True)
class LsdbEntry:
    """One origin's row in a link-state database."""

    links: Set[NodeId]
    sequence_number: int
    expires_at: float


class LinkStateProtocol(RoutingProtocol):
    """Proactive link-state routing: the skeleton of OLSR and LSR.

    A protocol built on it supplies its messages and these hooks:

    * ``_periodic_emissions()``, its ``(interval, emit(now))`` pairs (hello
      and flood), each started at the node's desynchronising offset;
    * ``_shortest_paths(now)``, the routing table (destination -> first
      hop) over :attr:`neighbors` and :attr:`lsdb`;
    * ``_adjacency_changed(now)``, run when a neighbour comes up or a link
      breaks (LSR re-floods its LSA there);
    * :attr:`hop_limit`, the transmissions after which relayed data is
      dropped.

    The route tick reruns the shortest-path computation only when its inputs
    could have changed: it skips while no neighbour or database entry was
    added, revived or replaced with a different link set (dirty flag) and no
    entry that fed the last computation can have expired yet (validity
    horizon).  A skipped computation would have rebuilt the identical table,
    so this changes cost, not routes; recomputing every tick made an OLSR
    trial 9 % slower.

    ``config`` must carry ``hello_interval``, ``neighbor_hold_time`` and
    ``route_recompute_interval``.
    """

    hop_limit: int

    def __init__(self, config) -> None:
        super().__init__()
        self.config = config
        #: neighbour -> expiry time (hello soft state)
        self.neighbors: Dict[NodeId, float] = {}
        #: origin -> its advertised links, for every *other* node heard from
        self.lsdb: Dict[NodeId, LsdbEntry] = {}
        self.routing_table: Dict[NodeId, NodeId] = {}
        self.data_drops = 0
        # The table must be rebuilt when something was added/revived/replaced
        # (dirty) or once an entry that fed the last rebuild actually
        # expires.  `_routes_valid_until` is the earliest such expiry *as of
        # the last rebuild*; entries refreshed since then push the true
        # horizon later, which the route tick revalidates with a cheap expiry
        # scan before paying for a shortest-path run.
        self._routes_dirty = True
        self._routes_valid_until = -_NEVER
        self._routes_computed_at = -_NEVER

    def start(self) -> None:
        # Desynchronise periodic emissions across nodes with a per-node offset.
        offset = (hash(self.node_id) % 1000) / 1000.0
        for interval, emit in self._periodic_emissions():
            PeriodicTimer(self.clock, interval, emit).start(
                first_delay=offset * interval
            )
        PeriodicTimer(
            self.clock, self.config.route_recompute_interval, self._route_maintenance
        ).start()

    def on_node_down(self) -> None:
        """Crash: all link-state knowledge is volatile."""
        self.neighbors.clear()
        self.lsdb.clear()
        self.routing_table.clear()
        self._routes_dirty = True
        self._routes_valid_until = -_NEVER
        self._routes_computed_at = -_NEVER

    # -- neighbours and the database -------------------------------------------------

    def _live_neighbors(self) -> Set[NodeId]:
        now = self.clock.now
        return {n for n, expiry in self.neighbors.items() if expiry > now}

    def _handle_hello(self, hello, from_node: NodeId) -> None:
        now = self.clock.now
        previous = self.neighbors.get(hello.origin)
        self.neighbors[hello.origin] = now + self.config.neighbor_hold_time
        if previous is None or previous <= now:
            # An unknown or expired neighbour became live: the next route
            # tick must rebuild.  A refresh of an already-live neighbour
            # only pushes its expiry later, which cannot invalidate the
            # table before the recorded validity horizon.
            self._routes_dirty = True
            self._adjacency_changed(now)

    def _store_advertisement(
        self,
        origin: NodeId,
        links: Iterable[NodeId],
        sequence_number: int,
        hold_time: float,
    ) -> None:
        """Install ``origin``'s advertised links for ``hold_time`` seconds."""
        now = self.clock.now
        links = set(links)
        existing = self.lsdb.get(origin)
        if existing is None or existing.expires_at <= now or links != existing.links:
            # New origin, revived origin, or a different link set: the
            # learned graph changed.  A same-set refresh of a live entry
            # only extends its expiry.
            self._routes_dirty = True
        self.lsdb[origin] = LsdbEntry(links, sequence_number, now + hold_time)

    # -- routes ------------------------------------------------------------------------

    def _route_maintenance(self, now: float) -> None:
        if self._routes_dirty:
            self._recompute_routes()
            return
        if now < self._routes_valid_until:
            return
        # The recorded horizon passed, but entries refreshed since the last
        # rebuild may have pushed the true horizon later.  An entry only
        # invalidates the table if it *died* since the rebuild — expiry
        # inside (computed_at, now].  Scanning the expiries is an order of
        # magnitude cheaper than the shortest-path rebuild it avoids.
        computed_at = self._routes_computed_at
        horizon = _NEVER
        for expiry in self.neighbors.values():
            if expiry <= now:
                if expiry > computed_at:
                    self._recompute_routes()
                    return
            elif expiry < horizon:
                horizon = expiry
        for entry in self.lsdb.values():
            expiry = entry.expires_at
            if expiry <= now:
                if expiry > computed_at:
                    self._recompute_routes()
                    return
            elif expiry < horizon:
                horizon = expiry
        self._routes_valid_until = horizon

    def _recompute_routes(self) -> None:
        now = self.clock.now
        self.routing_table = self._shortest_paths(now)
        # The table stays exact until the first live entry can expire — or
        # until a dirty-marking update lands, whichever comes first.
        valid_until = _NEVER
        for expiry in self.neighbors.values():
            if now < expiry < valid_until:
                valid_until = expiry
        for entry in self.lsdb.values():
            if now < entry.expires_at < valid_until:
                valid_until = entry.expires_at
        self._routes_valid_until = valid_until
        self._routes_computed_at = now
        self._routes_dirty = False

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        return self.routing_table.get(destination)

    # -- data path -------------------------------------------------------------------

    def originate_data(self, packet: Packet) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        next_hop = self.next_hop(packet.destination)
        if next_hop is None:
            # Proactive protocol: no discovery to fall back on.
            self.data_drops += 1
            return
        self.node.send_unicast(packet, next_hop)

    def _handle_data(self, packet: Packet, from_node: NodeId) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        next_hop = self.next_hop(packet.destination)
        # Split horizon + hop limit: link state is not loop-free at every
        # instant.  With stale information the next hop can point straight
        # back at the sender, and forwarding would ping-pong the packet, or a
        # longer transient loop can keep it circling; drop instead.
        if next_hop is None or next_hop == from_node or packet.hops > self.hop_limit:
            self.data_drops += 1
            return
        self.node.send_unicast(packet.copy_for_forwarding(), next_hop)

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        if self.neighbors.pop(next_hop, None) is not None:
            self._adjacency_changed(self.clock.now)
        self._recompute_routes()
        if packet.is_data:
            alternative = self.next_hop(packet.destination)
            if alternative is not None and alternative != next_hop:
                self.node.send_unicast(packet, alternative)
            else:
                self.data_drops += 1

    # -- hooks -----------------------------------------------------------------------

    @abc.abstractmethod
    def _periodic_emissions(self) -> Iterable[Tuple[float, Callable[[float], None]]]:
        """The ``(interval, emit(now))`` pairs :meth:`start` schedules."""

    @abc.abstractmethod
    def _shortest_paths(self, now: float) -> Dict[NodeId, NodeId]:
        """A fresh routing table: destination -> first hop."""

    def _adjacency_changed(self, now: float) -> None:
        """A neighbour came up or its link broke."""
