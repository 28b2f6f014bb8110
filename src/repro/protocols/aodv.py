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
only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Tuple

from ..sim.packet import Packet
from .base import ProtocolConfig
from .common import CONTROL_SIZES, OnDemandProtocol, PeriodicTimer

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


@dataclass
class AodvRouteEntry:
    """One destination's forwarding state."""

    destination: NodeId
    sequence_number: int = 0
    sequence_valid: bool = False
    hop_count: int = 0
    next_hop: Optional[NodeId] = None
    expires_at: float = 0.0
    valid: bool = False


@dataclass(frozen=True, slots=True)
class AodvConfig(ProtocolConfig):
    """AODV timers and limits."""

    route_lifetime: float = 10.0
    discovery_timeout: float = 1.0
    max_discovery_attempts: int = 3
    buffer_size: int = 64
    rreq_ttl: int = 64
    maintenance_interval: float = 1.0


class AodvProtocol(OnDemandProtocol):
    """One node's AODV instance."""

    name = "AODV"

    def __init__(self, config: Optional[AodvConfig] = None) -> None:
        super().__init__(config or AodvConfig())
        self.routes: Dict[NodeId, AodvRouteEntry] = {}
        self.own_sequence_number = 0

    # -- lifecycle --------------------------------------------------------------

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
        """Crash: routes are volatile too.

        The node's own sequence number is durable (RFC 3561 §6.1 requires it
        to survive reboots to keep loop freedom), so it is kept.
        """
        self.routes.clear()
        super().on_node_down()

    # -- table helpers ------------------------------------------------------------

    def _entry(self, destination: NodeId) -> AodvRouteEntry:
        if destination not in self.routes:
            self.routes[destination] = AodvRouteEntry(destination)
        return self.routes[destination]

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        entry = self.routes.get(destination)
        if entry and entry.valid and entry.expires_at > self.clock.now:
            return entry.next_hop
        return None

    def _update_route(
        self,
        destination: NodeId,
        next_hop: NodeId,
        sequence_number: int,
        hop_count: int,
        *,
        sequence_valid: bool = True,
    ) -> bool:
        """Install a route when it is fresher or equally fresh and shorter."""
        entry = self._entry(destination)
        fresher = (
            not entry.sequence_valid
            or sequence_number > entry.sequence_number
            or (
                sequence_number == entry.sequence_number
                and (not entry.valid or hop_count < entry.hop_count)
            )
        )
        if not fresher:
            return False
        entry.sequence_number = sequence_number
        entry.sequence_valid = sequence_valid
        entry.hop_count = hop_count
        entry.next_hop = next_hop
        entry.valid = True
        entry.expires_at = self.clock.now + self.config.route_lifetime
        return True

    # -- data path -------------------------------------------------------------------

    def _forward_data(self, packet: Packet, next_hop: NodeId) -> None:
        entry = self.routes.get(packet.destination)
        if entry and entry.valid:
            entry.expires_at = self.clock.now + self.config.route_lifetime
        self.node.send_unicast(packet, next_hop)

    def _report_no_route(self, destination: NodeId, from_node: NodeId) -> None:
        entry = self.routes.get(destination)
        sequence = entry.sequence_number + 1 if entry else 0
        rerr = AodvRerr(unreachable=((destination, sequence),))
        self.node.send_unicast(
            self.make_control_packet(from_node, rerr, CONTROL_SIZES["rerr"]),
            from_node,
        )

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        lost: List[Tuple[NodeId, int]] = []
        for destination, entry in self.routes.items():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                entry.sequence_number += 1  # AODV inflates the lost route's sn.
                lost.append((destination, entry.sequence_number))
        if packet.is_data:
            self._rediscover_or_drop(packet)
        if lost:
            rerr = AodvRerr(unreachable=tuple(lost))
            self.node.send_broadcast(
                self.make_control_packet(self.node_id, rerr, CONTROL_SIZES["rerr"])
            )

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
                destination_sequence_unknown=entry is None or not entry.sequence_valid,
                ttl=self.config.rreq_ttl,
            )
        )

    def _handle_rreq(self, rreq: AodvRreq, from_node: NodeId) -> None:
        if (
            rreq.source == self.node_id
            or rreq.ttl <= 0
            or not self.seen_rreqs.add(rreq.source, rreq.rreq_id)
        ):
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
            and entry.sequence_valid
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
                hop_count=entry.hop_count,
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
            if (
                entry is not None
                and entry.valid
                and entry.next_hop == from_node
                and sequence >= entry.sequence_number
            ):
                entry.valid = False
                entry.sequence_number = sequence
                invalidated.append((destination, sequence))
        if invalidated:
            self.node.send_broadcast(
                self.make_control_packet(
                    self.node_id, AodvRerr(tuple(invalidated)), CONTROL_SIZES["rerr"]
                )
            )

    control_handlers = {
        AodvRreq: _handle_rreq,
        AodvRrep: _handle_rrep,
        AodvRerr: _handle_rerr,
    }

    # -- metrics -----------------------------------------------------------------------

    def sequence_number_metric(self) -> int:
        """Fig. 7: AODV's own sequence number grows with every discovery."""
        return self.own_sequence_number
