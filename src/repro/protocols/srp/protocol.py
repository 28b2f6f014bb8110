"""The Split-label Routing Protocol (SRP) — Section III of the paper.

SRP is an on-demand protocol in the AODV mould whose loop-freedom comes from
keeping per-destination node labels — the composite ordering
``O = (sequence number, proper fraction)`` — in topological order at every
instant.  The implementation follows the paper's procedures:

* **Procedure 1 (Initiate Solicitation)** — flood a RREQ carrying the node's
  stored ordering for the destination (or the U bit), with retries on a timer.
* **Procedure 2 (Relay Solicitation)** — each relay becomes *engaged* for the
  ``(source, rreq_id)`` computation at most once, caches the requested
  ordering and the reverse-path last hop, answers if the Start Distance
  Condition (SDC) holds, and otherwise relays the strengthened solicitation
  (Eqs. 9–11, including the reset-required T bit on imminent overflow).
* **Procedure 3 (Set Route)** — a feasible advertisement makes the node
  compute a new ordering with Algorithm 1 (``repro.core.neworder``); a finite
  result installs the advertiser as a successor and relabels the node.
* **Procedure 4 (Relay Advertisement)** — non-terminus nodes re-issue the
  advertisement with their *own* new ordering along the cached reverse path,
  at most once per computation.

The destination controls the sequence number: it only increases it when a
solicitation arrives with the reset-required bit (or a unicast D-bit probe),
which in practice almost never happens — reproducing Fig. 7's "SRP is exactly
zero" result.  The protocol also implements the paper's simulation heuristics:
the RREQ ordering "lie" and a minimum reply distance under load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Optional

from ...core.fractions import DEFAULT_MAX_DENOMINATOR, UINT32_MAX, ProperFraction
from ...core.neworder import new_order, new_order_for_rreq_advertisement
from ...core.ordering import UNASSIGNED, Ordering, ordering_min
from ...sim.packet import Packet
from ..base import ProtocolConfig
from ..common import (
    CONTROL_SIZES,
    ComputationState,
    OnDemandProtocol,
    PeriodicTimer,
    RreqCache,
)
from .messages import DELETE_PERIOD, SrpRerr, SrpRrep, SrpRreq
from .table import SrpRoutingTable

__all__ = ["SrpConfig", "SrpProtocol"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class SrpConfig(ProtocolConfig):
    """Tunable SRP parameters (defaults follow the paper where it gives them)."""

    route_lifetime: float = 10.0
    discovery_timeout: float = 1.0
    max_discovery_attempts: int = 3
    buffer_size: int = 64
    rreq_ttl: int = 64
    fraction_limit: int = UINT32_MAX
    max_denominator: int = DEFAULT_MAX_DENOMINATOR
    #: Estimated per-hop age increment for the OSPF-style Age field.
    hop_age_increment: float = 0.01
    #: The paper's heuristic: lie about the ordering in RREQs so only strictly
    #: better nodes reply ("false positive" RREP avoidance).
    lie_in_rreq: bool = True
    lie_scale: int = 10_000
    #: Minimum traversed distance before an intermediate node may answer a
    #: RREQ ("RREQ packets need to travel several hops before allowing a node
    #: to reply").  The destination always answers.
    min_reply_distance: float = 2.0
    maintenance_interval: float = 1.0


class SrpProtocol(OnDemandProtocol):
    """One node's SRP instance."""

    name = "SRP"

    def __init__(self, config: Optional[SrpConfig] = None) -> None:
        super().__init__(config or SrpConfig())
        self.table = SrpRoutingTable(route_lifetime=self.config.route_lifetime)
        self.rreq_cache = RreqCache(max_age=DELETE_PERIOD)
        # Definition 7: the node's sequence number for itself is non-zero.  A
        # real deployment uses a 64-bit clock; a monotone counter is equivalent
        # for the protocol logic and makes Fig. 7's metric easy to read.
        self.initial_sequence_number = 1
        self.own_sequence_number = 1
        self.path_reset_requests = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        # Definition 7: O_A_A = (sn, 0/1).
        self.table.set_own_ordering(
            self.node_id,
            Ordering(self.own_sequence_number, ProperFraction.zero()),
            0.0,
        )
        PeriodicTimer(
            self.clock, self.config.maintenance_interval, self._maintenance
        ).start()

    def _maintenance(self, now: float) -> None:
        """Aggregated per-entry timeouts: one scan per interval per node."""
        newly_invalid = self.table.expire_stale_successors(now)
        self.rreq_cache.expire(now)
        if newly_invalid:
            self._send_rerr(newly_invalid)

    def on_node_down(self) -> None:
        """Crash: volatile state dies; the own sequence number survives.

        Definition 7's labels live in the routing table, which a power loss
        wipes; the destination-controlled sequence number is durable (the
        paper equates it with a clock), so churn alone never advances Fig. 7's
        SRP-is-zero metric.
        """
        self.table = SrpRoutingTable(route_lifetime=self.config.route_lifetime)
        self.rreq_cache = RreqCache(max_age=DELETE_PERIOD)
        super().on_node_down()

    def on_node_up(self) -> None:
        """Reboot: restore the node's own ordering (Definition 7)."""
        self.table.set_own_ordering(
            self.node_id, self._self_ordering(), self.clock.now
        )

    # -- own ordering helpers --------------------------------------------------------

    def own_ordering(self, destination: NodeId) -> Ordering:
        """The node's stored ordering for ``destination`` (unassigned if none)."""
        entry = self.table.lookup(destination)
        return entry.ordering if entry else UNASSIGNED

    def _self_ordering(self) -> Ordering:
        """The node's ordering for itself (sequence number, 0/1)."""
        return Ordering(self.own_sequence_number, ProperFraction.zero())

    def _bump_own_sequence_number(self, at_least: int = 0) -> None:
        """Destination-controlled reset: only the destination raises its own sn."""
        self.own_sequence_number = max(self.own_sequence_number + 1, at_least)
        self.table.set_own_ordering(self.node_id, self._self_ordering(), 0.0)

    # -- application data path ---------------------------------------------------------

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        return self.table.next_hop(destination)

    def successors(self, destination: NodeId) -> FrozenSet[NodeId]:
        """The whole successor set: SRP may forward over any of them."""
        entry = self.table.lookup(destination)
        return frozenset(entry.successors) if entry is not None else frozenset()

    def _forward_data(self, packet: Packet, next_hop: NodeId) -> None:
        self.table.refresh_successor(packet.destination, next_hop, self.clock.now)
        self.node.send_unicast(packet, next_hop)

    def _report_no_route(self, destination: NodeId, from_node: NodeId) -> None:
        # No successor: unicast a route error to the data packet's last hop.
        self._send_rerr([destination], unicast_to=from_node)

    def handle_link_failure(self, packet: Packet, next_hop: NodeId) -> None:
        newly_invalid = self.table.remove_neighbor_everywhere(next_hop)
        if packet.is_data:
            # Packet cache behaviour: break the next hop and resend over an
            # alternative successor when one exists (SRP is multi-path).
            alternative = self.next_hop(packet.destination)
            if alternative is not None:
                self._forward_data(packet, alternative)
            else:
                self._rediscover_or_drop(packet)
        if newly_invalid:
            self._send_rerr(newly_invalid)

    # -- RERR --------------------------------------------------------------------------

    def _send_rerr(
        self, destinations: List[NodeId], unicast_to: Optional[NodeId] = None
    ) -> None:
        rerr = SrpRerr(unreachable=tuple(destinations), origin=self.node_id)
        packet = self.make_control_packet(
            unicast_to if unicast_to is not None else self.node_id,
            rerr,
            CONTROL_SIZES["rerr"],
        )
        if unicast_to is not None:
            self.node.send_unicast(packet, unicast_to)
        else:
            self.node.send_broadcast(packet)

    def _handle_rerr(self, rerr: SrpRerr, from_node: NodeId) -> None:
        newly_invalid = []
        for destination in rerr.unreachable:
            if self.table.remove_successor(destination, from_node):
                newly_invalid.append(destination)
        if newly_invalid:
            self._send_rerr(newly_invalid)

    # -- Procedure 1: initiate solicitation --------------------------------------------

    def _send_rreq(self, destination: NodeId, rreq_id: int, attempt: int) -> None:
        entry = self.table.lookup(destination)
        if entry is not None and entry.is_assigned:
            requested = self._maybe_lie(entry.ordering)
            unknown = False
        else:
            requested = UNASSIGNED
            unknown = True
        rreq = SrpRreq(
            source=self.node_id,
            rreq_id=rreq_id,
            destination=destination,
            requested_ordering=requested,
            unknown_ordering=unknown,
            source_ordering=self._self_ordering(),
            ttl=self.config.rreq_ttl,
        )
        self.rreq_cache.activate(self.node_id, rreq_id, self.clock.now)
        self._broadcast_rreq(rreq)

    def _maybe_lie(self, ordering: Ordering) -> Ordering:
        """The paper's heuristic: advertise a slightly smaller fraction in the
        RREQ so only nodes strictly closer to the destination answer."""
        if not self.config.lie_in_rreq or not ordering.is_finite:
            return ordering
        m, n = ordering.fraction.as_tuple()
        if m > 1:
            fraction = ProperFraction(m - 1, n - 1)
        else:
            scale = self.config.lie_scale
            fraction = ProperFraction(max(m * scale - 1, 0), n * scale - 1)
        return Ordering(ordering.sequence_number, fraction)

    # -- Procedure 2: relay solicitation -----------------------------------------------

    def _handle_rreq(self, rreq: SrpRreq, from_node: NodeId) -> None:
        if rreq.expired or rreq.source == self.node_id:
            return
        if (
            self.rreq_cache.state_of(rreq.source, rreq.rreq_id)
            is not ComputationState.PASSIVE
        ):
            return
        entry = self.rreq_cache.try_engage(
            rreq.source,
            rreq.rreq_id,
            self.clock.now,
            last_hop=from_node,
            cached_ordering=rreq.requested_ordering,
        )
        if entry is None:
            return

        # The RREQ's advertisement piece lets relays build a reverse route to
        # the source, unless the N bit is already set.
        built_reverse_path = True
        if not rreq.no_reverse_path and rreq.source_ordering is not None:
            built_reverse_path = self._accept_rreq_advertisement(
                rreq, from_node
            )

        if rreq.destination == self.node_id:
            self._reply_as_destination(rreq, from_node)
            return
        if not rreq.destination_only and self._satisfies_sdc(rreq):
            self._reply_as_intermediate(rreq, from_node)
            return
        self._relay_solicitation(rreq, from_node, built_reverse_path)

    def _accept_rreq_advertisement(self, rreq: SrpRreq, from_node: NodeId) -> bool:
        """Treat the RREQ as an advertisement for its source (reverse path).

        Returns True when the routing table was updated (so the relayed RREQ
        may keep advertising the source); False means the relay must set the
        N bit (the RREQ "is no longer an advertisement for the source").
        """
        source = rreq.source
        entry = self.table.entry(source)
        advertised = rreq.source_ordering
        if not entry.ordering.precedes(advertised):
            return False
        result = new_order_for_rreq_advertisement(
            entry.ordering,
            advertised,
            {n: s.ordering for n, s in entry.successors.items()},
            limit=self.config.fraction_limit,
        )
        if not result.is_finite:
            return False
        self.table.set_own_ordering(
            source, result.ordering, rreq.traversed_distance + 1.0
        )
        self.table.add_successor(
            source,
            from_node,
            advertised,
            rreq.traversed_distance + 1.0,
            self.clock.now,
            lifetime=rreq.lifetime,
        )
        self.table.drop_out_of_order_successors(source)
        return True

    def _satisfies_sdc(self, rreq: SrpRreq) -> bool:
        """Condition 1 (Start Distance Condition) plus the min-reply-distance
        heuristic the paper applies under high load."""
        entry = self.table.lookup(rreq.destination)
        if entry is None or not entry.is_active:
            return False
        if rreq.traversed_distance < self.config.min_reply_distance:
            return False
        requested = rreq.requested_ordering
        if rreq.unknown_ordering:
            requested = UNASSIGNED
        if entry.ordering.sequence_number > requested.sequence_number:
            return True
        return requested.precedes(entry.ordering) and not rreq.reset_required

    def _reply_as_destination(self, rreq: SrpRreq, from_node: NodeId) -> None:
        requested = rreq.requested_ordering
        if rreq.reset_required or rreq.destination_only:
            # The destination must answer with a strictly larger sequence
            # number than requested so the reply resets the path ordering.
            self._bump_own_sequence_number(at_least=requested.sequence_number + 1)
        elif requested.sequence_number > self.own_sequence_number:
            # Never answer with a sequence number older than the request.
            self._bump_own_sequence_number(at_least=requested.sequence_number)
        self._send_advertisement(
            rreq.source,
            rreq.rreq_id,
            self.node_id,
            self._self_ordering(),
            0.0,
            to_neighbor=from_node,
        )

    def _reply_as_intermediate(self, rreq: SrpRreq, from_node: NodeId) -> None:
        entry = self.table.lookup(rreq.destination)
        self._send_advertisement(
            rreq.source,
            rreq.rreq_id,
            rreq.destination,
            entry.ordering,
            entry.distance,
            to_neighbor=from_node,
        )

    def _relay_solicitation(
        self, rreq: SrpRreq, from_node: NodeId, built_reverse_path: bool
    ) -> None:
        my_entry = self.table.lookup(rreq.destination)
        my_ordering = my_entry.ordering if my_entry else UNASSIGNED
        requested = rreq.requested_ordering

        # Eq. 10: the relayed solicitation carries the minimum ordering.
        if rreq.unknown_ordering and not (my_entry and my_entry.is_assigned):
            relayed_ordering = UNASSIGNED
        elif my_ordering.sequence_number > requested.sequence_number:
            relayed_ordering = my_ordering
        elif my_ordering.sequence_number == requested.sequence_number:
            relayed_ordering = ordering_min(my_ordering, requested)
        else:
            relayed_ordering = requested

        # Eq. 11: the reset-required bit.
        if rreq.unknown_ordering and not (my_entry and my_entry.is_assigned):
            reset_required = False
        elif my_ordering.sequence_number > requested.sequence_number:
            reset_required = False
        elif not requested.precedes(my_ordering) and requested.would_overflow_with(
            my_ordering, self.config.fraction_limit
        ):
            reset_required = True
        else:
            reset_required = rreq.reset_required

        # The advertisement piece of the relayed RREQ must carry *this relay's*
        # ordering for the source, exactly as a relayed RREP carries the
        # relay's own ordering (Procedure 4); forwarding the original source
        # ordering unchanged would let two relays with equal labels adopt each
        # other as successors and create a loop.
        source_entry = self.table.lookup(rreq.source)
        can_advertise_source = (
            built_reverse_path
            and not rreq.no_reverse_path
            and source_entry is not None
            and source_entry.is_active
            and source_entry.is_assigned
        )
        relayed = rreq.relayed(
            requested_ordering=relayed_ordering,
            traversed_distance=rreq.traversed_distance + 1.0,
            reset_required=reset_required,
            no_reverse_path=not can_advertise_source,
            source_ordering=source_entry.ordering if can_advertise_source else None,
            source_distance=source_entry.distance if can_advertise_source else 0.0,
            age_increment=self.config.hop_age_increment,
        )
        if relayed.expired:
            return
        self._broadcast_rreq(relayed)

    # -- Procedures 3 and 4: set route and relay advertisement -------------------------

    def _send_advertisement(
        self,
        source: NodeId,
        rreq_id: int,
        destination: NodeId,
        ordering: Ordering,
        distance: float,
        *,
        to_neighbor: NodeId,
        no_reverse_path: bool = False,
    ) -> None:
        entry = self.rreq_cache.get(source, rreq_id)
        if entry is not None:
            if entry.replied:
                return
            entry.replied = True
        rrep = SrpRrep(
            source=source,
            rreq_id=rreq_id,
            destination=destination,
            advertised_ordering=ordering,
            advertised_distance=distance,
            no_reverse_path=no_reverse_path,
        )
        self._send_rrep(rrep, to_neighbor)

    def _handle_rrep(self, rrep: SrpRrep, from_node: NodeId) -> None:
        if rrep.expired:
            return
        destination = rrep.destination
        if destination == self.node_id:
            return
        entry = self.table.entry(destination)
        advertised = rrep.advertised_ordering
        terminus = rrep.source == self.node_id
        cache_entry = self.rreq_cache.get(rrep.source, rrep.rreq_id)

        # Feasibility (Theorem 2 / Eq. 5 precondition): the advertised ordering
        # must be strictly closer to the destination than our own.
        if not entry.ordering.precedes(advertised):
            # Infeasible: a node with positive out-degree may issue a new
            # advertisement based on its current label.
            if entry.is_active and not terminus and cache_entry is not None:
                self._relay_advertisement(rrep, entry)
            return

        cached = UNASSIGNED
        if not terminus and cache_entry is not None:
            cached = cache_entry.cached_ordering or UNASSIGNED

        successors = {n: s.ordering for n, s in entry.successors.items()}
        result = new_order(
            entry.ordering,
            cached,
            advertised,
            successors,
            limit=self.config.fraction_limit,
        )
        if not result.is_finite:
            return
        distance = rrep.advertised_distance + 1.0
        self.table.set_own_ordering(destination, result.ordering, distance)
        self.table.add_successor(
            destination,
            from_node,
            advertised,
            distance,
            self.clock.now,
            lifetime=rrep.lifetime,
        )
        self.table.drop_out_of_order_successors(destination)

        if terminus:
            self._route_established(destination, result.ordering, rrep)
        else:
            self._relay_advertisement(rrep, self.table.entry(destination))

    def _relay_advertisement(self, rrep: SrpRrep, entry) -> None:
        """Procedure 4: forward the advertisement with this node's own ordering
        along the cached reverse path, at most once per computation."""
        cache_entry = self.rreq_cache.get(rrep.source, rrep.rreq_id)
        if cache_entry is None or cache_entry.last_hop is None or cache_entry.replied:
            return
        cache_entry.replied = True
        relayed = rrep.relayed(
            advertised_ordering=entry.ordering,
            advertised_distance=entry.distance,
            age_increment=self.config.hop_age_increment,
        )
        if relayed.expired:
            return
        self._send_rrep(relayed, cache_entry.last_hop)

    def _route_established(
        self, destination: NodeId, ordering: Ordering, rrep: SrpRrep
    ) -> None:
        """The requester's route is up: flush buffered data, check for resets."""
        self._route_found(destination)
        # Path-reset conditions at the terminus: an oversized denominator, or
        # a reply whose reverse path could not be built (N bit).
        if (
            ordering.fraction.denominator > self.config.max_denominator
            or rrep.no_reverse_path
        ):
            self._request_path_reset(destination)

    def _request_path_reset(self, destination: NodeId) -> None:
        """Send a unicast D-bit RREQ along the forward path; the destination
        answers with a larger sequence number, resetting the ordering."""
        next_hop = self.next_hop(destination)
        if next_hop is None:
            return
        self.path_reset_requests += 1
        rreq = SrpRreq(
            source=self.node_id,
            rreq_id=self.discovery.next_rreq_id(),
            destination=destination,
            requested_ordering=self.own_ordering(destination),
            destination_only=True,
            source_ordering=self._self_ordering(),
            ttl=self.config.rreq_ttl,
        )
        self.rreq_cache.activate(self.node_id, rreq.rreq_id, self.clock.now)
        packet = self.make_control_packet(destination, rreq, CONTROL_SIZES["rreq"])
        self.node.send_unicast(packet, next_hop)

    control_handlers = {
        SrpRreq: _handle_rreq,
        SrpRrep: _handle_rrep,
        SrpRerr: _handle_rerr,
    }

    # -- metrics -----------------------------------------------------------------------

    def sequence_number_metric(self) -> int:
        """Fig. 7: how far this node's own sequence number grew (0 for SRP in
        practice, because the destination almost never needs to reset)."""
        return self.own_sequence_number - self.initial_sequence_number
