"""AODV — Ad hoc On-demand Distance Vector routing (baseline).

AODV (Perkins, Belding-Royer & Das) prevents loops with per-destination
*sequence numbers* and hop counts: a node only accepts a route that is fresher
(higher destination sequence number) or equally fresh and shorter.  The cost of
this design — the point the paper's Fig. 7 makes — is that nodes must keep
increasing sequence numbers: the source increments its own sequence number for
every route discovery, and a node that loses a route increments the stored
destination sequence number before advertising the loss, so over time sequence
numbers climb quickly.

The implementation follows RFC 3561 in structure (RREQ/RREP/RERR, reverse-path
state, expanding sequence numbers) with simplifications that do not affect the
reproduced metrics: no gratuitous RREPs, no local repair, hop-count metric
only.  The route table is :class:`~repro.protocols.common.DistanceVectorProtocol`'s,
a route's hop count its ``distance``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, List, Optional, Tuple

from ..sim.packet import Packet
from .common import CONTROL_SIZES, DistanceVectorConfig, DistanceVectorProtocol

__all__ = ["AodvConfig", "AodvProtocol", "AodvRreq", "AodvRrep", "AodvRerr"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class AodvRreq:
    """Route request flooded through the network."""

    source: NodeId
    source_sequence_number: int
    rreq_id: int
    destination: NodeId
    destination_sequence_number: int
    destination_sequence_unknown: bool
    hop_count: int = 0
    ttl: int = 64

    def relayed(self) -> "AodvRreq":
        return replace(self, hop_count=self.hop_count + 1, ttl=self.ttl - 1)


@dataclass(frozen=True, slots=True)
class AodvRrep:
    """Route reply unicast along the reverse path."""

    source: NodeId
    destination: NodeId
    destination_sequence_number: int
    hop_count: int
    lifetime: float = 10.0

    def relayed(self) -> "AodvRrep":
        return replace(self, hop_count=self.hop_count + 1)


@dataclass(frozen=True, slots=True)
class AodvRerr:
    """Route error listing unreachable destinations and their sequence numbers."""

    unreachable: Tuple[Tuple[NodeId, int], ...]


@dataclass(frozen=True, slots=True)
class AodvConfig(DistanceVectorConfig):
    """AODV timers and limits."""


class AodvProtocol(DistanceVectorProtocol):
    """One node's AODV instance."""

    name = "AODV"

    def __init__(self, config: Optional[AodvConfig] = None) -> None:
        super().__init__(config or AodvConfig())

    def _update_route(
        self,
        destination: NodeId,
        next_hop: NodeId,
        sequence_number: int,
        hop_count: int,
    ) -> bool:
        """Install a route when it is fresher or equally fresh and shorter.

        A destination without an entry takes any route.
        """
        entry = self.routes.get(destination)
        if entry is not None and not (
            sequence_number > entry.sequence_number
            or (
                sequence_number == entry.sequence_number
                and (not entry.valid or hop_count < entry.distance)
            )
        ):
            return False
        self._install(self._entry(destination), next_hop, sequence_number, hop_count)
        return True

    # -- data path -------------------------------------------------------------------

    def _report_no_route(self, destination: NodeId, from_node: NodeId) -> None:
        entry = self.routes.get(destination)
        sequence = entry.sequence_number + 1 if entry else 0
        rerr = AodvRerr(unreachable=((destination, sequence),))
        self.node.send_unicast(
            self.make_control_packet(from_node, rerr, CONTROL_SIZES["rerr"]),
            from_node,
        )

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        lost = self._invalidate_routes_via(next_hop)
        for entry in lost:
            entry.sequence_number += 1  # AODV inflates the lost route's sn.
        unreachable = tuple((e.destination, e.sequence_number) for e in lost)
        if packet.is_data:
            self._rediscover_or_drop(packet)
        if unreachable:
            self._broadcast_rerr(AodvRerr(unreachable))

    # -- route discovery ---------------------------------------------------------------

    def _send_rreq(self, destination: NodeId, rreq_id: int, attempt: int) -> None:
        # RFC 3561: the originator increments its own sequence number before
        # every RREQ — the source of AODV's fast sequence-number growth.
        self.own_sequence_number += 1
        entry = self.routes.get(destination)
        self._broadcast_rreq(
            AodvRreq(
                source=self.node_id,
                source_sequence_number=self.own_sequence_number,
                rreq_id=rreq_id,
                destination=destination,
                destination_sequence_number=entry.sequence_number if entry else 0,
                destination_sequence_unknown=entry is None,
                ttl=self.config.rreq_ttl,
            )
        )

    def _handle_rreq(self, rreq: AodvRreq, from_node: NodeId) -> None:
        if not self._first_sight(rreq):
            return
        # Reverse route toward the originator.
        self._update_route(
            rreq.source, from_node, rreq.source_sequence_number, rreq.hop_count + 1
        )
        if rreq.destination == self.node_id:
            # RFC 3561 §6.6.1: the destination takes the max of its own and the
            # requested sequence number, incrementing when they are equal.
            if (
                not rreq.destination_sequence_unknown
                and rreq.destination_sequence_number >= self.own_sequence_number
            ):
                self.own_sequence_number = rreq.destination_sequence_number + 1
            else:
                self.own_sequence_number += 1
            rrep = AodvRrep(
                source=rreq.source,
                destination=self.node_id,
                destination_sequence_number=self.own_sequence_number,
                hop_count=0,
                lifetime=self.config.route_lifetime,
            )
            self._send_rrep(rrep, from_node)
            return
        entry = self.routes.get(rreq.destination)
        can_answer = (
            entry is not None
            and entry.valid
            and (
                rreq.destination_sequence_unknown
                or entry.sequence_number >= rreq.destination_sequence_number
            )
        )
        if can_answer:
            rrep = AodvRrep(
                source=rreq.source,
                destination=rreq.destination,
                destination_sequence_number=entry.sequence_number,
                hop_count=entry.distance,
                lifetime=self.config.route_lifetime,
            )
            self._send_rrep(rrep, from_node)
            return
        relayed = rreq.relayed()
        if relayed.ttl <= 0:
            return
        self._broadcast_rreq(relayed)

    def _handle_rrep(self, rrep: AodvRrep, from_node: NodeId) -> None:
        self._update_route(
            rrep.destination,
            from_node,
            rrep.destination_sequence_number,
            rrep.hop_count + 1,
        )
        if rrep.source == self.node_id:
            self._route_found(rrep.destination)
            return
        # Forward the RREP along the reverse route toward the originator.
        reverse_hop = self.next_hop(rrep.source)
        if reverse_hop is not None:
            self._send_rrep(rrep.relayed(), reverse_hop)

    def _handle_rerr(self, rerr: AodvRerr, from_node: NodeId) -> None:
        invalidated: List[Tuple[NodeId, int]] = []
        for destination, sequence in rerr.unreachable:
            entry = self.routes.get(destination)
            if entry is not None and entry.valid and entry.next_hop == from_node:
                # The next hop has no route, whatever sequence number it
                # reports: one that lost its entry altogether reports 0.
                # The number is copied (RFC 3561 §6.11) but never lowered.
                entry.valid = False
                entry.sequence_number = max(entry.sequence_number, sequence)
                invalidated.append((destination, entry.sequence_number))
        if invalidated:
            self._broadcast_rerr(AodvRerr(tuple(invalidated)))

    control_handlers = {
        AodvRreq: _handle_rreq,
        AodvRrep: _handle_rrep,
        AodvRerr: _handle_rerr,
    }
