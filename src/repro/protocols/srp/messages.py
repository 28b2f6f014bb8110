"""SRP control messages (Section III of the paper).

SRP reuses AODV's packet types — RREQ, RREP and RERR (the paper's RACK, a
route-reply acknowledgment, is not modelled) — with extensively modified
fields.  A RREQ has a *solicitation* piece (who is looking for whom,
at what ordering) and an *advertisement* piece (the requester advertising its
own route back, so relays can build a reverse path).  The flag bits follow the
paper:

* **U** — the requester has no stored ordering for the destination.
* **N** — the RREQ is no longer an advertisement for the source (a relay could
  not update its table from it), so receivers must not build a reverse path.
* **D** — the RREQ must travel all the way to the destination (used for
  unicast path-reset probes).
* **T** (``rr``) — reset required: an ordering violation could occur along the
  path (e.g. imminent fraction overflow), so the destination must answer with
  a larger sequence number.

All multi-hop control packets carry an ``age`` field (like OSPF); packets
whose age reaches ``DELETE_PERIOD`` are discarded so no packet referencing a
forgotten label survives in the network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Optional, Tuple

from ...core.ordering import Ordering

__all__ = ["SrpRreq", "SrpRrep", "SrpRerr", "DELETE_PERIOD"]

NodeId = Hashable

#: Seconds after which control packets and forgotten labels expire (the paper
#: uses 60 s).
DELETE_PERIOD = 60.0


@dataclass(frozen=True, slots=True)
class SrpRreq:
    """Route request: solicitation piece plus optional source advertisement."""

    # Solicitation piece.
    source: NodeId
    rreq_id: int
    destination: NodeId
    requested_ordering: Ordering
    traversed_distance: float = 0.0
    unknown_ordering: bool = False        # U bit
    reset_required: bool = False          # T bit (rr)
    destination_only: bool = False        # D bit
    no_reverse_path: bool = False         # N bit
    # Advertisement piece (the source advertising itself).
    source_ordering: Optional[Ordering] = None
    source_distance: float = 0.0
    lifetime: float = DELETE_PERIOD
    # Bookkeeping.
    age: float = 0.0
    ttl: int = 64

    def relayed(
        self,
        *,
        requested_ordering: Ordering,
        traversed_distance: float,
        reset_required: bool,
        no_reverse_path: bool,
        age_increment: float,
        source_ordering: Optional[Ordering] = None,
        source_distance: float = 0.0,
    ) -> "SrpRreq":
        """The copy a relay broadcasts (Procedure 2, Eqs. 9–11).

        The advertisement piece must carry the *relay's own* ordering for the
        source ("the last-hop feasible distance ... set according to the rules
        below for advertisements"), never the stale ordering of an earlier
        hop; when the relay has no active route back to the source it sets the
        N bit and downstream nodes must not build a reverse path from it.
        """
        return replace(
            self,
            requested_ordering=requested_ordering,
            traversed_distance=traversed_distance,
            reset_required=reset_required,
            no_reverse_path=no_reverse_path,
            source_ordering=source_ordering if not no_reverse_path else None,
            source_distance=source_distance,
            age=self.age + age_increment,
            ttl=self.ttl - 1,
        )

    @property
    def expired(self) -> bool:
        """True when the packet must be dropped (age or TTL exhausted)."""
        return self.age >= DELETE_PERIOD or self.ttl <= 0


@dataclass(frozen=True, slots=True)
class SrpRrep:
    """Route reply / advertisement travelling the reverse path of a RREQ."""

    source: NodeId                 # the terminus of the advertisement (RREQ origin)
    rreq_id: int
    destination: NodeId            # the destination being advertised
    advertised_ordering: Ordering  # (dstseqno, LF)
    advertised_distance: float     # ld
    lifetime: float = DELETE_PERIOD
    no_reverse_path: bool = False  # N bit copied from the RREQ when set
    age: float = 0.0

    def relayed(
        self,
        *,
        advertised_ordering: Ordering,
        advertised_distance: float,
        age_increment: float,
    ) -> "SrpRrep":
        """The advertisement a relay re-issues with its own ordering
        (Procedure 4)."""
        return replace(
            self,
            advertised_ordering=advertised_ordering,
            advertised_distance=advertised_distance,
            age=self.age + age_increment,
        )

    @property
    def expired(self) -> bool:
        """True when the advertisement must be dropped."""
        return self.age >= DELETE_PERIOD


@dataclass(frozen=True, slots=True)
class SrpRerr:
    """Route error: destinations that became unreachable at the sender."""

    unreachable: Tuple[NodeId, ...]
    origin: NodeId
