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

from .base import ProtocolConfig
from .common import CONTROL_SIZES, LinkStateProtocol, SeenSequences

__all__ = ["OlsrConfig", "OlsrProtocol", "OlsrHello", "OlsrTc"]

NodeId = Hashable


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


class OlsrProtocol(LinkStateProtocol):
    """One node's OLSR instance.

    Its topology set is the skeleton's link-state database: each TC
    origin's advertised neighbours, held for ``topology_hold_time``.
    """

    name = "OLSR"
    hop_limit = 32

    def __init__(self, config: Optional[OlsrConfig] = None) -> None:
        super().__init__(config or OlsrConfig())
        self.tc_sequence_number = 0
        self.seen_tcs = SeenSequences()

    def on_node_down(self) -> None:
        """Crash: all link-state knowledge is volatile.

        The TC sequence number is kept monotone across the reboot so
        neighbours' ``seen_tcs`` dedup state never silently discards the
        rebooted node's fresh topology advertisements.
        """
        super().on_node_down()
        self.seen_tcs.clear()

    # -- periodic emissions ------------------------------------------------------------

    def _periodic_emissions(self):
        config = self.config
        return (
            (config.hello_interval, self._emit_hello),
            (config.tc_interval, self._emit_tc),
        )

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

    # -- routing -----------------------------------------------------------------------

    def _shortest_paths(self, now: float) -> Dict[NodeId, NodeId]:
        """Breadth-first shortest paths over the learned topology.

        ``_live_neighbors`` is evaluated once and reused: a comprehension
        over the same dict state yields the identical set (and identical
        iteration order) every time, so sharing one evaluation across the
        adjacency seed, the reverse-edge pass and the initial frontier
        changes nothing but the cost.
        """
        live_neighbors = self._live_neighbors()
        adjacency: Dict[NodeId, Set[NodeId]] = {self.node_id: set(live_neighbors)}
        adjacency_setdefault = adjacency.setdefault
        for origin, entry in self.lsdb.items():
            if entry.expires_at <= now:
                continue
            neighbors = entry.links
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
        return table

    # -- control messages --------------------------------------------------------------

    def _handle_tc(self, tc: OlsrTc, from_node: NodeId) -> None:
        if (
            tc.origin == self.node_id
            or tc.ttl <= 0
            or not self.seen_tcs.add(tc.origin, tc.sequence_number)
        ):
            return
        existing = self.lsdb.get(tc.origin)
        if existing is None or tc.sequence_number >= existing.sequence_number:
            self._store_advertisement(
                tc.origin,
                tc.advertised_neighbors,
                tc.sequence_number,
                self.config.topology_hold_time,
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

    control_handlers = {
        OlsrHello: LinkStateProtocol._handle_hello,
        OlsrTc: _handle_tc,
    }
