"""OLSR — Optimized Link State Routing (proactive baseline).

OLSR (Clausen et al.) is the one pro-active protocol in the paper's
comparison: every node periodically broadcasts HELLO messages to discover its
neighbours and periodically floods topology-control (TC) messages describing
those adjacencies, so every node can run shortest-path over the learned graph
and always has a route ready.  The consequences the paper measures are exactly
the ones this implementation reproduces: high, constant control overhead
(Fig. 5), very low data latency because no discovery delay exists (Fig. 6),
and a delivery ratio that suffers when topology information goes stale under
mobility (Fig. 4).  OLSR is not loop-free at every instant.

Simplifications relative to RFC 3626: no multipoint-relay (MPR) selection —
every node relays TC floods, which *overstates* OLSR's overhead slightly but
keeps its qualitative position (highest overhead class) intact; link holding
times and message intervals follow the RFC defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set, Tuple

from ..sim.packet import Packet
from .base import ProtocolConfig, RoutingProtocol
from .common import CONTROL_SIZES, PeriodicTimer, SeenSequences

__all__ = ["OlsrConfig", "OlsrProtocol", "OlsrHello", "OlsrTc"]

NodeId = Hashable

_NEVER = float("inf")


@dataclass(frozen=True, slots=True)
class OlsrHello:
    """One-hop broadcast advertising the sender's current neighbour set."""

    origin: NodeId
    neighbors: Tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class OlsrTc:
    """Topology-control message flooded network-wide."""

    origin: NodeId
    sequence_number: int
    advertised_neighbors: Tuple[NodeId, ...]
    ttl: int = 64


@dataclass(frozen=True, slots=True)
class OlsrConfig(ProtocolConfig):
    """OLSR intervals and holding times (RFC 3626 defaults)."""

    hello_interval: float = 2.0
    tc_interval: float = 5.0
    neighbor_hold_time: float = 6.0
    topology_hold_time: float = 15.0
    route_recompute_interval: float = 1.0


class OlsrProtocol(RoutingProtocol):
    """One node's OLSR instance.

    The periodic shortest-path recomputation runs only when its inputs
    could have changed: the tick skips the BFS while no neighbour or
    topology entry was added, revived or replaced with a different
    adjacency set (dirty flag) and no entry that fed the last computation
    can have expired yet (validity horizon).  A skipped recomputation would
    have rebuilt the identical table, so this changes cost, not routes;
    recomputing every tick made an OLSR trial 9 % slower.
    """

    name = "OLSR"

    def __init__(self, config: Optional[OlsrConfig] = None) -> None:
        super().__init__()
        self.config = config or OlsrConfig()
        #: neighbour -> expiry time
        self.neighbors: Dict[NodeId, float] = {}
        #: originator -> (advertised neighbour set, expiry, sequence number)
        self.topology: Dict[NodeId, Tuple[Set[NodeId], float, int]] = {}
        self.routing_table: Dict[NodeId, NodeId] = {}
        self.tc_sequence_number = 0
        self.seen_tcs = SeenSequences()
        self.data_drops = 0
        # Incremental-recompute bookkeeping: the table must be rebuilt when
        # something was added/revived/replaced (dirty) or once an entry that
        # fed the last rebuild actually expires.  `_routes_valid_until` is
        # the earliest such expiry *as of the last rebuild* — entries
        # refreshed since then push the true horizon later, which the route
        # tick revalidates with a cheap expiry scan before paying for a
        # shortest-path run.
        self._routes_dirty = True
        self._routes_valid_until = -_NEVER
        self._routes_computed_at = -_NEVER

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        # Desynchronise periodic emissions across nodes with a per-node offset.
        offset = (hash(self.node_id) % 1000) / 1000.0
        config = self.config
        PeriodicTimer(
            self.clock, config.hello_interval, self._emit_hello
        ).start(first_delay=offset * config.hello_interval)
        PeriodicTimer(self.clock, config.tc_interval, self._emit_tc).start(
            first_delay=offset * config.tc_interval
        )
        PeriodicTimer(
            self.clock, config.route_recompute_interval, self._route_maintenance
        ).start()

    def _emit_hello(self, now: float) -> None:
        hello = OlsrHello(
            origin=self.node_id, neighbors=tuple(self._live_neighbors())
        )
        self.node.send_broadcast(
            self.make_control_packet(self.node_id, hello, CONTROL_SIZES["hello"])
        )

    def _emit_tc(self, now: float) -> None:
        self.tc_sequence_number += 1
        tc = OlsrTc(
            origin=self.node_id,
            sequence_number=self.tc_sequence_number,
            advertised_neighbors=tuple(self._live_neighbors()),
        )
        self.seen_tcs.add(self.node_id, self.tc_sequence_number)
        self.node.send_broadcast(
            self.make_control_packet(self.node_id, tc, CONTROL_SIZES["tc"])
        )

    def on_node_down(self) -> None:
        """Crash: all link-state knowledge is volatile.

        The TC sequence number is kept monotone across the reboot so
        neighbours' ``seen_tcs`` dedup state never silently discards the
        rebooted node's fresh topology advertisements.
        """
        self.neighbors.clear()
        self.topology.clear()
        self.routing_table.clear()
        self.seen_tcs.clear()
        self._routes_dirty = True
        self._routes_valid_until = -_NEVER
        self._routes_computed_at = -_NEVER

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
        for _, expiry, _ in self.topology.values():
            if expiry <= now:
                if expiry > computed_at:
                    self._recompute_routes()
                    return
            elif expiry < horizon:
                horizon = expiry
        self._routes_valid_until = horizon

    # -- neighbour / topology state ----------------------------------------------------

    def _live_neighbors(self) -> Set[NodeId]:
        now = self.clock.now
        return {n for n, expiry in self.neighbors.items() if expiry > now}

    def _live_topology(self) -> Dict[NodeId, Set[NodeId]]:
        now = self.clock.now
        return {
            origin: neighbors
            for origin, (neighbors, expiry, _) in self.topology.items()
            if expiry > now
        }

    # -- routing -----------------------------------------------------------------------

    def _recompute_routes(self) -> None:
        """Breadth-first shortest paths over the learned topology.

        ``_live_neighbors`` is evaluated once and reused: a comprehension
        over the same dict state yields the identical set (and identical
        iteration order) every time, so sharing one evaluation across the
        adjacency seed, the reverse-edge pass and the initial frontier
        changes nothing but the cost.
        """
        now = self.clock.now
        live_neighbors = self._live_neighbors()
        adjacency: Dict[NodeId, Set[NodeId]] = {self.node_id: set(live_neighbors)}
        adjacency_setdefault = adjacency.setdefault
        for origin, (neighbors, expiry, _) in self.topology.items():
            if expiry <= now:
                continue
            adjacency_setdefault(origin, set()).update(neighbors)
            for neighbor in neighbors:
                adjacency_setdefault(neighbor, set()).add(origin)
        for neighbor in live_neighbors:
            adjacency_setdefault(neighbor, set()).add(self.node_id)

        table: Dict[NodeId, NodeId] = {}
        # First hop for each neighbour is the neighbour itself.
        frontier = list(live_neighbors)
        for neighbor in frontier:
            table[neighbor] = neighbor
        visited = set(frontier)
        visited.add(self.node_id)
        adjacency_get = adjacency.get
        visited_add = visited.add
        while frontier:
            next_frontier = []
            append = next_frontier.append
            for node in frontier:
                first_hop = table[node]
                for neighbor in adjacency_get(node, ()):
                    if neighbor in visited:
                        continue
                    visited_add(neighbor)
                    table[neighbor] = first_hop
                    append(neighbor)
            frontier = next_frontier
        self.routing_table = table
        # The table stays exact until the first live entry can expire — or
        # until a dirty-marking update lands, whichever comes first.
        valid_until = _NEVER
        for expiry in self.neighbors.values():
            if now < expiry < valid_until:
                valid_until = expiry
        for _, expiry, _ in self.topology.values():
            if now < expiry < valid_until:
                valid_until = expiry
        self._routes_valid_until = valid_until
        self._routes_computed_at = now
        self._routes_dirty = False

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        """The current first hop toward ``destination``, if reachable."""
        return self.routing_table.get(destination)

    # -- application data --------------------------------------------------------------

    def originate_data(self, packet: Packet) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        next_hop = self.next_hop(packet.destination)
        if next_hop is None:
            # Proactive protocol: no discovery to fall back on.
            self.data_drops += 1
            return
        self.node.send_unicast(packet, next_hop)

    # -- MAC callbacks -----------------------------------------------------------------

    def handle_packet(self, packet: Packet, from_node: NodeId) -> None:
        if packet.is_data:
            self._handle_data(packet, from_node)
            return
        payload = packet.payload
        if isinstance(payload, OlsrHello):
            self._handle_hello(payload)
        elif isinstance(payload, OlsrTc):
            self._handle_tc(payload, packet)

    def _handle_data(self, packet: Packet, from_node: NodeId) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        next_hop = self.next_hop(packet.destination)
        # Split horizon: with stale link-state information the next hop can
        # point straight back at the sender; forwarding would ping-pong the
        # packet (OLSR is not loop-free at every instant), so drop instead.
        if next_hop is None or next_hop == from_node or packet.hops > 32:
            self.data_drops += 1
            return
        self.node.send_unicast(packet.copy_for_forwarding(), next_hop)

    def _handle_hello(self, hello: OlsrHello) -> None:
        now = self.clock.now
        previous = self.neighbors.get(hello.origin)
        if previous is None or previous <= now:
            # An unknown or expired neighbour became live: the next route
            # tick must rebuild.  A refresh of an already-live neighbour
            # only pushes its expiry later, which cannot invalidate the
            # table before the recorded validity horizon.
            self._routes_dirty = True
        self.neighbors[hello.origin] = now + self.config.neighbor_hold_time

    def _handle_tc(self, tc: OlsrTc, packet: Packet) -> None:
        if (
            tc.origin == self.node_id
            or tc.ttl <= 0
            or not self.seen_tcs.add(tc.origin, tc.sequence_number)
        ):
            return
        existing = self.topology.get(tc.origin)
        if existing is None or tc.sequence_number >= existing[2]:
            now = self.clock.now
            advertised = set(tc.advertised_neighbors)
            changed = (
                existing is None
                or existing[1] <= now
                or advertised != existing[0]
            )
            if changed:
                # New origin, revived origin, or a different adjacency set:
                # the learned graph changed.  A same-set refresh of a live
                # entry only extends its expiry.
                self._routes_dirty = True
            self.topology[tc.origin] = (
                advertised,
                now + self.config.topology_hold_time,
                tc.sequence_number,
            )
        # Flood on (no MPR optimisation).
        relayed = OlsrTc(
            origin=tc.origin,
            sequence_number=tc.sequence_number,
            advertised_neighbors=tc.advertised_neighbors,
            ttl=tc.ttl - 1,
        )
        self.node.send_broadcast(
            self.make_control_packet(self.node_id, relayed, CONTROL_SIZES["tc"])
        )

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        self.neighbors.pop(next_hop, None)
        self._routes_dirty = True
        self._recompute_routes()
        if packet.is_data:
            alternative = self.next_hop(packet.destination)
            if alternative is not None and alternative != next_hop:
                self.node.send_unicast(packet, alternative)
            else:
                self.data_drops += 1

    # -- metrics -----------------------------------------------------------------------

    def sequence_number_metric(self) -> int:
        """OLSR is not part of Fig. 7's sequence-number comparison."""
        return 0
