"""The SRP routing table: per-destination orderings and successor sets.

For every destination ``T`` a node ``A`` keeps

* its own ordering ``O_A_T = (sn, F)``,
* a successor table ``S_A_T`` mapping each successor neighbour to the ordering
  it advertised (plus the measured distance through it), and
* timers: routes expire when unused (Definition 2) and an ordering must be
  remembered for ``DELETE_PERIOD`` after the route goes invalid
  (Definition 3).

SRP is inherently multi-path: any entry of the successor table may forward
data.  The default forwarding choice is the successor with the smallest
measured distance, i.e. the "min-hop set" suggested by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from ...core.ordering import UNASSIGNED, Ordering, ordering_max

__all__ = ["SuccessorEntry", "SrpRouteEntry", "SrpRoutingTable"]

NodeId = Hashable


@dataclass
class SuccessorEntry:
    """One feasible successor toward a destination."""

    neighbor: NodeId
    ordering: Ordering
    distance: float
    expires_at: float


@dataclass
class SrpRouteEntry:
    """Everything node A knows about one destination T."""

    destination: NodeId
    ordering: Ordering = UNASSIGNED
    distance: float = float("inf")
    successors: Dict[NodeId, SuccessorEntry] = field(default_factory=dict)
    ordering_cached_until: float = float("inf")

    @property
    def is_active(self) -> bool:
        """Definition 2: a route is active while its successor set is non-empty."""
        return bool(self.successors)

    @property
    def is_assigned(self) -> bool:
        """Definition 3: the node is assigned when it holds a finite ordering."""
        return not self.ordering.is_unassigned

    def successor_maximum(self) -> Optional[Ordering]:
        """``S_max`` — the greatest successor ordering, or None when empty."""
        orderings = [entry.ordering for entry in self.successors.values()]
        if not orderings:
            return None
        result = orderings[0]
        for ordering in orderings[1:]:
            result = ordering_max(result, ordering)
        return result

    def best_successor(self) -> Optional[SuccessorEntry]:
        """The successor with the smallest measured distance (min-hop choice)."""
        if not self.successors:
            return None
        return min(self.successors.values(), key=lambda entry: entry.distance)


class SrpRoutingTable:
    """All destinations known at one node."""

    def __init__(self, *, route_lifetime: float = 10.0) -> None:
        self._entries: Dict[NodeId, SrpRouteEntry] = {}
        self._route_lifetime = route_lifetime

    # -- access ------------------------------------------------------------------

    def entry(self, destination: NodeId) -> SrpRouteEntry:
        """The (possibly empty) entry for ``destination``, created on demand."""
        if destination not in self._entries:
            self._entries[destination] = SrpRouteEntry(destination)
        return self._entries[destination]

    def lookup(self, destination: NodeId) -> Optional[SrpRouteEntry]:
        """The entry if one exists, without creating it."""
        return self._entries.get(destination)

    def destinations(self) -> List[NodeId]:
        """Every destination with table state."""
        return list(self._entries)

    # -- mutation -------------------------------------------------------------------

    def set_own_ordering(
        self, destination: NodeId, ordering: Ordering, distance: float
    ) -> None:
        """Adopt a new ordering (the result of Algorithm 1) for a destination."""
        entry = self.entry(destination)
        entry.ordering = ordering
        entry.distance = distance

    def add_successor(
        self,
        destination: NodeId,
        neighbor: NodeId,
        ordering: Ordering,
        distance: float,
        now: float,
        *,
        lifetime: Optional[float] = None,
    ) -> None:
        """Insert or refresh a successor (Procedure 3's ``S_A_T,B`` update)."""
        entry = self.entry(destination)
        entry.successors[neighbor] = SuccessorEntry(
            neighbor=neighbor,
            ordering=ordering,
            distance=distance,
            expires_at=now + (lifetime or self._route_lifetime),
        )

    def refresh_successor(
        self, destination: NodeId, neighbor: NodeId, now: float
    ) -> None:
        """Extend the lifetime of a successor that just carried traffic."""
        entry = self._entries.get(destination)
        if entry and neighbor in entry.successors:
            entry.successors[neighbor].expires_at = now + self._route_lifetime

    def remove_successor(self, destination: NodeId, neighbor: NodeId) -> bool:
        """Remove one successor; True when the route just became invalid."""
        entry = self._entries.get(destination)
        if not entry or neighbor not in entry.successors:
            return False
        del entry.successors[neighbor]
        return not entry.is_active

    def remove_neighbor_everywhere(self, neighbor: NodeId) -> List[NodeId]:
        """Remove ``neighbor`` from every successor set (link failure).

        Returns the destinations whose routes became invalid as a result.
        """
        newly_invalid = []
        for destination, entry in self._entries.items():
            if neighbor in entry.successors:
                del entry.successors[neighbor]
                if not entry.is_active:
                    newly_invalid.append(destination)
        return newly_invalid

    def drop_out_of_order_successors(self, destination: NodeId) -> List[NodeId]:
        """Line 13 of Algorithm 1: eliminate successors the node's own ordering
        can no longer keep in order; returns who was dropped."""
        entry = self.entry(destination)
        dropped = [
            neighbor
            for neighbor, successor in entry.successors.items()
            if not entry.ordering.precedes(successor.ordering)
        ]
        for neighbor in dropped:
            del entry.successors[neighbor]
        return dropped

    def expire_stale_successors(self, now: float) -> List[NodeId]:
        """Time out unused successors; returns destinations that became invalid.

        Runs once per maintenance tick per node over every entry, so the
        common nothing-stale case allocates nothing and skips the
        ``is_active`` evaluation entirely (deleting nothing cannot change
        it).
        """
        newly_invalid = []
        for destination, entry in self._entries.items():
            successors = entry.successors
            if not successors:
                continue
            stale = None
            for neighbor, successor in successors.items():
                if successor.expires_at <= now:
                    if stale is None:
                        stale = [neighbor]
                    else:
                        stale.append(neighbor)
            if stale is None:
                continue
            was_active = entry.is_active
            for neighbor in stale:
                del successors[neighbor]
            if was_active and not entry.is_active:
                newly_invalid.append(destination)
        return newly_invalid

    # -- forwarding --------------------------------------------------------------------

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        """The forwarding choice for data: the min-distance successor."""
        entry = self._entries.get(destination)
        if not entry:
            return None
        best = entry.best_successor()
        return best.neighbor if best else None


