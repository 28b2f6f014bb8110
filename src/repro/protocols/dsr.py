"""DSR — Dynamic Source Routing (baseline).

DSR (Johnson, Maltz, Hu & Jetcheva) builds complete hop-by-hop routes at the
source: a flooded RREQ records the path it traverses, the destination (or a
node with a cached route) returns that path in a RREP, and every data packet
carries its full source route.  Packet paths are inherently loop-free.  The
repository implements the features the paper's evaluation exercises: route
caching at every node that overhears a path, *salvaging* (re-routing a packet
from a relay's own cache when its next hop breaks), and route-error
propagation removing broken links from caches.

Under the paper's high-load scenario DSR's aggressive caching backfires — stale
cached routes cause repeated MAC-layer failures (Fig. 3) and its delivery
ratio collapses with mobility (Fig. 4), which this simplified implementation
also exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Tuple

from ..sim.packet import Packet
from .base import ProtocolConfig
from .common import CONTROL_SIZES, OnDemandProtocol

__all__ = ["DsrConfig", "DsrProtocol", "DsrRreq", "DsrRrep", "DsrRerr", "SourceRoute"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class SourceRoute:
    """The source route carried by a data packet: the full node sequence."""

    route: Tuple[NodeId, ...]
    index: int = 0

    @property
    def next_hop(self) -> Optional[NodeId]:
        """The next node after the current position, or None at the end."""
        if self.index + 1 < len(self.route):
            return self.route[self.index + 1]
        return None

    def advanced(self) -> "SourceRoute":
        """The header as seen by the next hop."""
        return replace(self, index=self.index + 1)


@dataclass(frozen=True, slots=True)
class DsrRreq:
    """Route request accumulating the traversed path."""

    source: NodeId
    rreq_id: int
    destination: NodeId
    path: Tuple[NodeId, ...]
    ttl: int = 64

    def extended(self, node: NodeId) -> "DsrRreq":
        return replace(self, path=self.path + (node,), ttl=self.ttl - 1)


@dataclass(frozen=True, slots=True)
class DsrRrep:
    """Route reply carrying the complete source-to-destination path."""

    source: NodeId
    destination: NodeId
    route: Tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class DsrRerr:
    """Route error naming the broken link."""

    from_node: NodeId
    to_node: NodeId


@dataclass(frozen=True, slots=True)
class DsrConfig(ProtocolConfig):
    """DSR cache sizes and timers."""

    discovery_timeout: float = 1.0
    max_discovery_attempts: int = 3
    buffer_size: int = 64
    rreq_ttl: int = 64
    max_cached_routes_per_destination: int = 4
    max_salvage_count: int = 2


class DsrProtocol(OnDemandProtocol):
    """One node's DSR instance."""

    name = "DSR"

    def __init__(self, config: Optional[DsrConfig] = None) -> None:
        super().__init__(config or DsrConfig())
        self.route_cache: Dict[NodeId, List[Tuple[NodeId, ...]]] = {}
        self.salvage_counts: Dict[int, int] = {}

    # -- lifecycle ----------------------------------------------------------------

    def on_node_down(self) -> None:
        """Crash: the route cache and salvage counts are volatile too (DSR
        keeps no durable per-node counters at all)."""
        self.route_cache.clear()
        self.salvage_counts.clear()
        super().on_node_down()

    # -- route cache -------------------------------------------------------------------

    def cache_route(self, route: Tuple[NodeId, ...]) -> None:
        """Remember every sub-path of ``route`` that starts at this node.

        DSR's cache is effectively a link cache: a learned path provides a
        route to every node that appears after us on it.
        """
        if len(route) < 2:
            return
        for start in range(len(route) - 1):
            if route[start] != self.node_id:
                continue
            for end in range(start + 1, len(route)):
                sub_route = route[start : end + 1]
                destination = sub_route[-1]
                cached = self.route_cache.setdefault(destination, [])
                if sub_route in cached:
                    continue
                cached.append(sub_route)
                cached.sort(key=len)
                del cached[self.config.max_cached_routes_per_destination :]

    def best_route(self, destination: NodeId) -> Optional[Tuple[NodeId, ...]]:
        """The shortest cached route to ``destination``, if any."""
        cached = self.route_cache.get(destination)
        return cached[0] if cached else None

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        """The first hop of :meth:`best_route` (every cached route starts
        here and has at least two nodes)."""
        route = self.best_route(destination)
        return route[1] if route is not None else None

    def remove_link(self, from_node: NodeId, to_node: NodeId) -> None:
        """Purge every cached route using the broken link."""
        for destination in list(self.route_cache):
            remaining = [
                route
                for route in self.route_cache[destination]
                if not self._route_uses_link(route, from_node, to_node)
            ]
            if remaining:
                self.route_cache[destination] = remaining
            else:
                del self.route_cache[destination]

    @staticmethod
    def _route_uses_link(
        route: Tuple[NodeId, ...], from_node: NodeId, to_node: NodeId
    ) -> bool:
        return any(
            route[i] == from_node and route[i + 1] == to_node
            for i in range(len(route) - 1)
        )

    # -- data path -------------------------------------------------------------------

    def _forward_data(self, packet: Packet, next_hop: NodeId) -> None:
        """Stamp the best cached route on ``packet`` and send it on."""
        packet.payload = SourceRoute(route=self.best_route(packet.destination))
        self.node.send_unicast(packet, next_hop)

    def _handle_data(self, packet: Packet, from_node: NodeId) -> None:
        if self.deliver_or_forward_hook(packet):
            return
        header = packet.payload
        if not isinstance(header, SourceRoute):
            self.data_drops += 1
            return
        forwarded = packet.copy_for_forwarding()
        advanced = header.advanced()
        forwarded.payload = advanced
        next_hop = advanced.next_hop
        if next_hop is None:
            self.data_drops += 1
            return
        self.node.send_unicast(forwarded, next_hop)

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        self.remove_link(self.node_id, next_hop)
        if not packet.is_data:
            return
        # Salvaging: replace the failed route with one from our own cache.
        salvaged = self.salvage_counts.get(packet.uid, 0)
        salvage_hop = self.next_hop(packet.destination)
        if salvage_hop is not None and salvaged < self.config.max_salvage_count:
            self.salvage_counts[packet.uid] = salvaged + 1
            self._forward_data(packet, salvage_hop)
        else:
            self._rediscover_or_drop(packet)
        # Tell the network about the broken link so caches converge.
        rerr = DsrRerr(from_node=self.node_id, to_node=next_hop)
        self.node.send_broadcast(
            self.make_control_packet(packet.source, rerr, CONTROL_SIZES["rerr"])
        )

    # -- route discovery ---------------------------------------------------------------

    def _send_rreq(self, destination: NodeId, rreq_id: int, attempt: int) -> None:
        self._broadcast_rreq(
            DsrRreq(
                source=self.node_id,
                rreq_id=rreq_id,
                destination=destination,
                path=(self.node_id,),
                ttl=self.config.rreq_ttl,
            )
        )

    def _handle_rreq(self, rreq: DsrRreq, from_node: NodeId) -> None:
        if self.node_id in rreq.path or not self._first_sight(rreq):
            return
        # Overhearing the accumulated path populates the route cache.
        self.cache_route(tuple(reversed(rreq.path + (self.node_id,))))

        extended = rreq.extended(self.node_id)
        if rreq.destination == self.node_id:
            rrep = DsrRrep(
                source=rreq.source,
                destination=self.node_id,
                route=extended.path,
            )
            self._send_rrep(rrep, from_node)
            return
        cached = self.best_route(rreq.destination)
        if cached is not None:
            # Reply from cache: splice the accumulated path with the cached tail.
            spliced = extended.path + cached[1:]
            if len(set(spliced)) == len(spliced):  # avoid splicing a loop
                rrep = DsrRrep(
                    source=rreq.source, destination=rreq.destination, route=spliced
                )
                self._send_rrep(rrep, from_node)
                return
        if extended.ttl <= 0:
            return
        self._broadcast_rreq(extended)

    def _handle_rrep(self, rrep: DsrRrep, from_node: NodeId) -> None:
        self.cache_route(rrep.route)
        if rrep.source == self.node_id:
            self._route_found(rrep.destination)
            return
        # Forward the RREP backwards along the recorded route.
        try:
            position = rrep.route.index(self.node_id)
        except ValueError:
            return
        if position == 0:
            return
        self._send_rrep(rrep, rrep.route[position - 1])

    def _handle_rerr(self, rerr: DsrRerr, from_node: NodeId) -> None:
        self.remove_link(rerr.from_node, rerr.to_node)

    control_handlers = {
        DsrRreq: _handle_rreq,
        DsrRrep: _handle_rrep,
        DsrRerr: _handle_rerr,
    }
