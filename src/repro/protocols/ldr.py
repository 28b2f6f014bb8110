"""LDR — Loop-free Distance Routing (baseline, Garcia-Luna-Aceves, Mosko &
Perkins, PODC 2003).

LDR is the paper's closest relative: it keeps, per destination, a *feasible
distance* (the smallest distance ever accepted, non-increasing over time) and a
destination-controlled sequence number.  A node may only adopt a successor
whose advertised route is **in order**: a strictly larger sequence number, or
the same sequence number with a reported distance *smaller than the node's
feasible distance*.  When the feasible distances along a request path cannot be
put in order, the request carries a reset-required flag to the destination,
which answers with a larger sequence number — so LDR's sequence numbers grow,
but far more slowly than AODV's (Fig. 7), because most repairs succeed with
feasible-distance ordering alone.

SRP generalises exactly this scheme by making the "distance" a dense fraction
that can always be split locally, removing the need for most resets.  The
route table is :class:`~repro.protocols.common.DistanceVectorProtocol`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Tuple

from ..sim.packet import Packet
from .common import (
    CONTROL_SIZES,
    INFINITE_DISTANCE,
    DistanceVectorConfig,
    DistanceVectorProtocol,
    RouteEntry,
)

__all__ = ["LdrConfig", "LdrProtocol", "LdrRreq", "LdrRrep", "LdrRerr"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class LdrRreq:
    """Route request carrying the requester's (sequence number, feasible distance)."""

    source: NodeId
    rreq_id: int
    destination: NodeId
    destination_sequence_number: int
    feasible_distance: float
    unknown: bool
    reset_required: bool = False
    hop_count: int = 0
    ttl: int = 64

    def relayed(self, *, reset_required: bool) -> "LdrRreq":
        return replace(
            self,
            hop_count=self.hop_count + 1,
            ttl=self.ttl - 1,
            reset_required=reset_required,
        )


@dataclass(frozen=True, slots=True)
class LdrRrep:
    """Route reply advertising (sequence number, distance) for the destination."""

    source: NodeId
    rreq_id: int
    destination: NodeId
    destination_sequence_number: int
    distance: float

    def relayed(self, *, distance: float) -> "LdrRrep":
        return replace(self, distance=distance)


@dataclass(frozen=True, slots=True)
class LdrRerr:
    """Route error listing destinations whose routes broke at the origin."""

    unreachable: Tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class LdrConfig(DistanceVectorConfig):
    """LDR timers and limits."""


class LdrProtocol(DistanceVectorProtocol):
    """One node's LDR instance."""

    name = "LDR"

    def __init__(self, config: Optional[LdrConfig] = None) -> None:
        super().__init__(config or LdrConfig())
        self.reverse_path: Dict[Tuple[NodeId, int], NodeId] = {}

    def on_node_down(self) -> None:
        """Crash: reverse paths are volatile too."""
        self.reverse_path.clear()
        super().on_node_down()

    # -- the accept rule -------------------------------------------------------------

    def _in_order(
        self, entry: RouteEntry, sequence_number: int, distance: float
    ) -> bool:
        """The LDR feasibility condition for accepting an advertised route."""
        if sequence_number > entry.sequence_number:
            return True
        if sequence_number < entry.sequence_number:
            return False
        return distance < entry.feasible_distance

    def _accept_route(
        self,
        destination: NodeId,
        next_hop: NodeId,
        sequence_number: int,
        distance: float,
    ) -> bool:
        entry = self._entry(destination)
        if not self._in_order(entry, sequence_number, distance):
            return False
        if sequence_number > entry.sequence_number:
            # A fresher sequence number resets the feasible distance.
            entry.feasible_distance = distance
        else:
            entry.feasible_distance = min(entry.feasible_distance, distance)
        self._install(entry, next_hop, sequence_number, distance)
        return True

    # -- data path -------------------------------------------------------------------

    def _report_no_route(self, destination: NodeId, from_node: NodeId) -> None:
        rerr = LdrRerr(unreachable=(destination,))
        self.node.send_unicast(
            self.make_control_packet(from_node, rerr, CONTROL_SIZES["rerr"]),
            from_node,
        )

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        lost = tuple(e.destination for e in self._invalidate_routes_via(next_hop))
        if packet.is_data:
            self._rediscover_or_drop(packet)
        if lost:
            self._broadcast_rerr(LdrRerr(lost))

    # -- route discovery ---------------------------------------------------------------

    def _send_rreq(self, destination: NodeId, rreq_id: int, attempt: int) -> None:
        entry = self.routes.get(destination)
        self._broadcast_rreq(
            LdrRreq(
                source=self.node_id,
                rreq_id=rreq_id,
                destination=destination,
                destination_sequence_number=entry.sequence_number if entry else 0,
                feasible_distance=(
                    entry.feasible_distance if entry else INFINITE_DISTANCE
                ),
                unknown=entry is None,
                ttl=self.config.rreq_ttl,
            )
        )

    def _handle_rreq(self, rreq: LdrRreq, from_node: NodeId) -> None:
        if not self._first_sight(rreq):
            return
        self.reverse_path[(rreq.source, rreq.rreq_id)] = from_node

        if rreq.destination == self.node_id:
            # Destination-controlled reset: only bump the sequence number when
            # the request says ordering cannot be repaired in place (or it
            # already reflects our current number, so freshness is required).
            if rreq.reset_required or (
                not rreq.unknown
                and rreq.destination_sequence_number >= self.own_sequence_number
            ):
                self.own_sequence_number = max(
                    self.own_sequence_number + 1,
                    rreq.destination_sequence_number + 1,
                )
            rrep = LdrRrep(
                source=rreq.source,
                rreq_id=rreq.rreq_id,
                destination=self.node_id,
                destination_sequence_number=self.own_sequence_number,
                distance=0.0,
            )
            self._send_rrep(rrep, from_node)
            return

        entry = self.routes.get(rreq.destination)
        can_answer = (
            entry is not None
            and entry.valid
            and not rreq.reset_required
            and (
                rreq.unknown
                or entry.sequence_number > rreq.destination_sequence_number
                or (
                    entry.sequence_number == rreq.destination_sequence_number
                    and entry.distance < rreq.feasible_distance
                )
            )
        )
        if can_answer:
            rrep = LdrRrep(
                source=rreq.source,
                rreq_id=rreq.rreq_id,
                destination=rreq.destination,
                destination_sequence_number=entry.sequence_number,
                distance=entry.distance,
            )
            self._send_rrep(rrep, from_node)
            return

        # Out-of-order relays request a reset so the destination issues a
        # fresher sequence number the whole path can adopt.
        reset_required = rreq.reset_required
        if (
            entry is not None
            and not rreq.unknown
            and entry.sequence_number == rreq.destination_sequence_number
            and entry.feasible_distance >= rreq.feasible_distance
        ):
            reset_required = True
        relayed = rreq.relayed(reset_required=reset_required)
        if relayed.ttl <= 0:
            return
        self._broadcast_rreq(relayed)

    def _handle_rrep(self, rrep: LdrRrep, from_node: NodeId) -> None:
        accepted = self._accept_route(
            rrep.destination,
            from_node,
            rrep.destination_sequence_number,
            rrep.distance + 1.0,
        )
        if rrep.source == self.node_id:
            if accepted:
                self._route_found(rrep.destination)
            return
        if not accepted:
            return
        reverse_hop = self.reverse_path.get((rrep.source, rrep.rreq_id))
        if reverse_hop is not None:
            entry = self.routes[rrep.destination]
            self._send_rrep(rrep.relayed(distance=entry.distance), reverse_hop)

    def _handle_rerr(self, rerr: LdrRerr, from_node: NodeId) -> None:
        lost: List[NodeId] = []
        for destination in rerr.unreachable:
            entry = self.routes.get(destination)
            if entry is not None and entry.valid and entry.next_hop == from_node:
                entry.valid = False
                lost.append(destination)
        if lost:
            self._broadcast_rerr(LdrRerr(tuple(lost)))

    control_handlers = {
        LdrRreq: _handle_rreq,
        LdrRrep: _handle_rrep,
        LdrRerr: _handle_rerr,
    }
