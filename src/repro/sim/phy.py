"""Physical-layer timing and range parameters.

The paper simulates an 802.11 radio at 2 Mbps.  We model the channel with a
unit-disk reception range (GloMoSim's default two-ray model gives roughly a
250 m range at default power), a fixed per-frame physical-layer overhead and a
payload-proportional transmission time.  None of the routing results depend on
the exact constants; they set the load level at which MAC contention appears.
"""

from __future__ import annotations

from dataclasses import dataclass

from .packet import Frame

__all__ = ["PhyConfig", "SPEED_OF_LIGHT_DELAY_S_PER_M"]

#: Free-space propagation delay: one metre at the speed of light.  The
#: physically honest value for ``PhyConfig.propagation_delay_s_per_m``
#: (~3.336 ns/m); at the paper's 250 m reception range it puts ~0.8 us
#: between a transmission and its farthest receiver.
SPEED_OF_LIGHT_DELAY_S_PER_M = 1.0 / 299_792_458.0


@dataclass(frozen=True, slots=True)
class PhyConfig:
    """Radio and channel timing constants.

    ``reception_range`` is the unit-disk radius in metres.
    ``carrier_sense_range`` is the radius within which a transmission keeps
    other senders silent (>= reception range, as for real 802.11).

    ``propagation_delay_s_per_m`` selects between two channel models.  At
    the default ``0.0`` propagation is instantaneous — every receiver hears
    a frame over exactly ``[start, start + airtime]``.  A positive value (use
    :data:`SPEED_OF_LIGHT_DELAY_S_PER_M` for physics) delays each receiver's
    copy by ``delay * distance``, which gives the sharded PDES a finite
    lookahead: a shard provably cannot be influenced by a neighbour strip
    faster than a signal crosses the seam.  The finite-delay variant is a
    *model* change held to the science gate (paper + faults registries),
    not to bit-identity with the default.
    """

    bitrate_bps: float = 2_000_000.0
    reception_range: float = 250.0
    carrier_sense_range: float = 400.0
    frame_overhead_s: float = 0.000_75  # preamble + PLCP + MAC header + SIFS/ACK
    mac_header_bytes: int = 34
    slot_time_s: float = 0.000_02
    max_queue_length: int = 50
    retry_limit: int = 4
    min_contention_window: int = 16
    max_contention_window: int = 1024
    propagation_delay_s_per_m: float = 0.0

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if self.reception_range <= 0:
            raise ValueError("reception range must be positive")
        if self.carrier_sense_range < self.reception_range:
            raise ValueError("carrier-sense range must be >= reception range")
        if self.propagation_delay_s_per_m < 0:
            raise ValueError("propagation delay must be >= 0")

    def transmission_time(self, frame: Frame) -> float:
        """Air time of one frame, in seconds."""
        bits = (frame.packet.size_bytes + self.mac_header_bytes) * 8
        return self.frame_overhead_s + bits / self.bitrate_bps
