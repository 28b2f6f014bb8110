"""LSR — an OSPF-style link-state routing protocol.

Not one of the paper's five protocols: LSR extends the comparison matrix
with the classic link-state design the SNIPPETS exemplars implement against
real transports, and it is the first protocol written for *both* runtimes
from day one — the deterministic simulator and the live asyncio daemons
(:mod:`repro.runtime.live`).

Where OLSR (the paper's proactive baseline) floods soft-state TC messages
and accepts any refresh with a non-stale sequence number, LSR follows the
OSPF discipline:

* each node originates a **sequence-numbered LSA** describing its full link
  set; an LSA replaces the stored one only when *strictly newer*
  (``seq >``), so duplicated floods are inert by construction;
* LSAs age out of the **LSDB** (max-age) and are re-originated periodically
  (refresh) **and on triggered events** — a neighbour appearing or dying
  re-floods immediately, rate-limited by ``lsa_min_interval``;
* SPF uses only **bidirectional links**: an edge enters the shortest-path
  graph when *both* endpoints advertise it, OSPF's two-way check, which
  keeps half-dead links (one side still holding a stale adjacency) out of
  the forwarding plane;
* flooding carries a TTL and every node dedups on ``(origin, seq)``.

Neighbour sensing, the LSDB, the route tick and forwarding are the
link-state skeleton OLSR shares
(:class:`~repro.protocols.common.LinkStateProtocol`).

Determinism across runtimes: the SPF iterates neighbours in **sorted
order**, so two nodes with the same LSDB compute the same table regardless
of dict insertion order — the property the sim-vs-live parity tests
(``tests/runtime/test_parity.py``) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .base import ProtocolConfig
from .common import CONTROL_SIZES, LinkStateProtocol, SeenSequences

__all__ = ["LsrConfig", "LsrProtocol", "LsrHello", "LsrLsa"]

NodeId = Hashable

_NEVER = float("inf")


def _sorted_ids(ids: Iterable[NodeId]) -> List[NodeId]:
    """Deterministic ordering for arbitrary hashable node ids."""
    try:
        return sorted(ids)  # type: ignore[type-var]
    except TypeError:
        return sorted(ids, key=repr)


@dataclass(frozen=True, slots=True)
class LsrHello:
    """One-hop broadcast for neighbour sensing (never forwarded)."""

    origin: NodeId


@dataclass(frozen=True, slots=True)
class LsrLsa:
    """A link-state advertisement: the origin's full current link set."""

    origin: NodeId
    sequence_number: int
    links: Tuple[NodeId, ...]
    ttl: int = 16


@dataclass(frozen=True, slots=True)
class LsrConfig(ProtocolConfig):
    """LSR intervals, holding times and flood control.

    ``lsa_min_interval`` rate-limits triggered re-originations so a
    flapping neighbour cannot melt the network with floods.
    """

    hello_interval: float = 2.0
    neighbor_hold_time: float = 6.0
    lsa_interval: float = 5.0
    lsa_max_age: float = 15.0
    lsa_min_interval: float = 0.5
    lsa_ttl: int = 16
    route_recompute_interval: float = 1.0
    hop_limit: int = 32


class LsrProtocol(LinkStateProtocol):
    """One node's LSR instance (both runtimes)."""

    name = "LSR"

    def __init__(self, config: Optional[LsrConfig] = None) -> None:
        super().__init__(config or LsrConfig())
        self.hop_limit = self.config.hop_limit
        #: own LSA sequence number; survives reboots (non-volatile in OSPF).
        self.lsa_sequence_number = 0
        self.seen_lsas = SeenSequences()
        #: flood-control counters the live runtime's soak gate reads.
        self.ttl_expired_drops = 0
        self.duplicate_lsa_drops = 0
        self._last_origination = -_NEVER
        self._origination_pending = False

    def on_node_down(self) -> None:
        """Crash: the LSDB and adjacency state are volatile, the seq is not."""
        super().on_node_down()
        self.seen_lsas.clear()
        self._last_origination = -_NEVER
        self._origination_pending = False

    # -- periodic emissions ------------------------------------------------------------

    def _periodic_emissions(self):
        config = self.config
        return (
            (config.hello_interval, self._emit_hello),
            (config.lsa_interval, self._originate_lsa),
        )

    def _emit_hello(self, now: float) -> None:
        self.node.send_broadcast(
            self.make_control_packet(
                self.node_id, LsrHello(origin=self.node_id), CONTROL_SIZES["hello"]
            )
        )

    def _originate_lsa(self, now: float) -> None:
        """Flood a fresh LSA, honouring the min-origination interval.

        A triggered origination that arrives inside the rate limit is
        *deferred*, not lost: the pending flag makes the next maintenance
        tick retry, so topology changes are advertised at most
        ``lsa_min_interval + route_recompute_interval`` late.
        """
        if now - self._last_origination < self.config.lsa_min_interval:
            self._origination_pending = True
            return
        self._last_origination = now
        self._origination_pending = False
        self.lsa_sequence_number += 1
        lsa = LsrLsa(
            origin=self.node_id,
            sequence_number=self.lsa_sequence_number,
            links=tuple(_sorted_ids(self._live_neighbors())),
            ttl=self.config.lsa_ttl,
        )
        self.seen_lsas.add(self.node_id, self.lsa_sequence_number)
        self.node.send_broadcast(
            self.make_control_packet(self.node_id, lsa, CONTROL_SIZES["tc"])
        )

    def _adjacency_changed(self, now: float) -> None:
        # Triggered origination: advertise a new or lost adjacency now
        # rather than waiting out the refresh interval.
        self._originate_lsa(now)

    def _route_maintenance(self, now: float) -> None:
        if self._origination_pending:
            self._originate_lsa(now)
        super()._route_maintenance(now)

    # -- SPF ---------------------------------------------------------------------------

    def _shortest_paths(self, now: float) -> Dict[NodeId, NodeId]:
        """Dijkstra over bidirectional links, in deterministic sorted order.

        Hop-count metric makes Dijkstra a BFS; the two-way check means an
        edge (a, b) exists only when a's link set names b *and* b's names a
        (this node's own adjacency counts as its advertisement).  All
        frontier and neighbour iteration is sorted so the resulting table
        depends only on the LSDB contents, never on arrival order — the
        cross-runtime parity property.
        """
        live_neighbors = self._live_neighbors()
        advertised: Dict[NodeId, Set[NodeId]] = {
            origin: set(entry.links)
            for origin, entry in self.lsdb.items()
            if entry.expires_at > now
        }
        advertised[self.node_id] = set(live_neighbors)

        def linked(a: NodeId, b: NodeId) -> bool:
            links_a = advertised.get(a)
            links_b = advertised.get(b)
            return (
                links_a is not None
                and links_b is not None
                and b in links_a
                and a in links_b
            )

        table: Dict[NodeId, NodeId] = {}
        frontier = [n for n in _sorted_ids(live_neighbors) if linked(self.node_id, n)]
        for neighbor in frontier:
            table[neighbor] = neighbor
        visited = set(frontier)
        visited.add(self.node_id)
        while frontier:
            next_frontier: List[NodeId] = []
            for node in frontier:
                first_hop = table[node]
                for neighbor in _sorted_ids(advertised.get(node, ())):
                    if neighbor in visited or not linked(node, neighbor):
                        continue
                    visited.add(neighbor)
                    table[neighbor] = first_hop
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return table

    # -- control messages --------------------------------------------------------------

    def _handle_lsa(self, lsa: LsrLsa, from_node: NodeId) -> None:
        if lsa.origin == self.node_id:
            return
        if not self.seen_lsas.add(lsa.origin, lsa.sequence_number):
            self.duplicate_lsa_drops += 1
            return
        if lsa.ttl <= 0:
            self.ttl_expired_drops += 1
            return
        existing = self.lsdb.get(lsa.origin)
        # OSPF discipline: install only strictly newer LSAs — unless the
        # stored one already max-aged out, in which case any live LSA
        # (e.g. from a rebooted origin) revives the row.
        if (
            existing is None
            or lsa.sequence_number > existing.sequence_number
            or existing.expires_at <= self.clock.now
        ):
            self._store_advertisement(
                lsa.origin, lsa.links, lsa.sequence_number, self.config.lsa_max_age
            )
        # Flood on regardless of install: neighbours we relay for may not
        # have seen this (origin, seq) yet even when we already had it.
        relayed = LsrLsa(
            origin=lsa.origin,
            sequence_number=lsa.sequence_number,
            links=lsa.links,
            ttl=lsa.ttl - 1,
        )
        self.node.send_broadcast(
            self.make_control_packet(self.node_id, relayed, CONTROL_SIZES["tc"])
        )

    control_handlers = {
        LsrHello: LinkStateProtocol._handle_hello,
        LsrLsa: _handle_lsa,
    }
