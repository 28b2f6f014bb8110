"""Packet and frame models.

A :class:`Packet` is a network-layer unit: either an application data packet
(CBR payload) or a routing-protocol control packet whose ``payload`` carries
the protocol message object (RREQ, RREP, link-state advertisement, ...).  A
:class:`Frame` wraps a packet for one MAC-layer hop: it records the
transmitter and the intended receiver (``None`` for broadcast).

Sizes are in bytes and include idealised headers; they matter only for
transmission-time computation, not for any routing decision.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

__all__ = ["PacketKind", "Packet", "Frame", "BROADCAST"]

NodeId = Hashable

#: Sentinel receiver address used by broadcast frames.
BROADCAST: object = None

_packet_ids = itertools.count(1)
_frame_ids = itertools.count(1)


class PacketKind(enum.Enum):
    """Network-layer packet classes used by the metrics collectors."""

    DATA = "data"
    CONTROL = "control"


@dataclass(slots=True)
class Packet:
    """A network-layer packet.

    ``uid`` identifies the original packet across hops (forwarded copies keep
    the uid so end-to-end latency and duplicate suppression work).  ``hops``
    counts MAC transmissions of this packet so far.
    """

    kind: PacketKind
    source: NodeId
    destination: NodeId
    size_bytes: int
    created_at: float
    payload: Any = None
    flow_id: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_packet_ids))
    hops: int = 0

    def copy_for_forwarding(self) -> "Packet":
        """A per-hop copy sharing the uid and creation time.

        Built with positional arguments (field-declaration order): every
        forwarded data and relayed control packet comes through here, and
        keyword binding plus the uid default factory were a measurable slice
        of the forwarding path.
        """
        return Packet(
            self.kind,
            self.source,
            self.destination,
            self.size_bytes,
            self.created_at,
            self.payload,
            self.flow_id,
            self.uid,
            self.hops,
        )

    @property
    def is_data(self) -> bool:
        """True for application (CBR) packets."""
        return self.kind is PacketKind.DATA

    @property
    def is_control(self) -> bool:
        """True for routing-protocol control packets."""
        return self.kind is PacketKind.CONTROL


@dataclass(slots=True)
class Frame:
    """One MAC-layer transmission attempt of a packet over one hop.

    Frames are the highest-churn objects in a trial after events: one per
    MAC enqueue, dead as soon as the frame leaves the air.  The MAC's frame
    pool recycles them through :meth:`reinit`; nothing in the simulation
    reads frame identity or ``uid`` for any routing or metrics decision, so
    recycling is exact.
    """

    packet: Packet
    transmitter: NodeId
    receiver: Optional[NodeId]
    enqueued_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_frame_ids))

    def reinit(
        self,
        packet: Packet,
        transmitter: NodeId,
        receiver: Optional[NodeId],
        enqueued_at: float,
    ) -> "Frame":
        """Repurpose a pooled frame for a new transmission attempt."""
        self.packet = packet
        self.transmitter = transmitter
        self.receiver = receiver
        self.enqueued_at = enqueued_at
        self.uid = next(_frame_ids)
        return self

    @property
    def is_broadcast(self) -> bool:
        """True when the frame is addressed to every node in range."""
        return self.receiver is BROADCAST
