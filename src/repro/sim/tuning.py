"""Per-trial performance tuning: the fast-path flags and the event queue.

A trial always runs on the one serial :class:`~repro.sim.engine.Simulator`;
what a caller can tune is which exact hot-path optimizations it uses
(:class:`FastPaths`) and which event queue backs it (:class:`EngineTuning`).
Every fast path is *exact*: for a fixed seed a trial produces a bit-identical
:class:`~repro.sim.stats.TrialSummary` with the fast path on or off.  The
flags exist (all defaulting on, like ``use_spatial_index``) for A/B
benchmarking, for the equivalence tests that enforce that contract, and as an
escape hatch if an exotic configuration ever violates a fast path's
assumptions.

The flags, and the exactness argument for each:

``mobility_segments``
    :class:`~repro.sim.mobility.RandomWaypointMobility` keeps a precompiled
    flat segment table (plain float tuples) beside its :class:`Waypoint`
    legs; ``position_at_xy`` binary-searches the table and interpolates with
    expression-for-expression identical float arithmetic.
``reception_memo``
    The channel memoises reception sets per (timestamp, node): positions are
    pure functions of the clock and the membership test is deterministic, so
    two queries at one timestamp for one origin node must return the same
    set.  The memo is dropped whenever the clock advances or a listener
    attaches.
``frame_pool``
    :class:`~repro.sim.packet.Frame` and the channel's internal reception
    records are recycled through free lists once the engine is provably done
    with them (after the end-of-air-time completion at the same timestamp
    has run).  No routing decision ever reads object identity.
``airtime_memo``
    Frame air time is a pure function of the packet size, so the channel
    memoises ``PhyConfig.transmission_time`` per distinct size.
``grid_prefilter``
    Reception-set queries first decide each candidate from the grid's own
    snapshot coordinates: a node has drifted at most the snapshot's
    staleness slack, so a snapshot distance at least ``slack`` inside
    (outside) the reception range proves membership (non-membership)
    without any per-node lookup.  The staleness budget is tightened so the
    undecided band stays narrow; membership is identical because the
    bounds are conservative and the band falls through to the exact path.
``batch_receptions``
    ``Channel.transmit`` processes the whole reception set in fissioned
    passes (fault filter, half-duplex flags, overlap marking, record
    materialisation) instead of one interleaved per-receiver loop, and the
    end-of-air-time completion removes reception records by swap-remove
    instead of ``list.remove``.  Exact: the fault draws keep their
    reception-loop order, half-duplex reads no state the other passes
    mutate, overlap marking is order-insensitive (every overlapping pair is
    marked regardless of traversal order), and the active-reception lists
    are only ever consumed by order-insensitive overlap scans.

OLSR's incremental routing-table maintenance is the same kind of exact fast
path but lives in :class:`~repro.protocols.olsr.OlsrConfig`
(``incremental_routes``) because protocol instances are built by the protocol
factory, not by ``build_network``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Tuple

__all__ = ["FastPaths", "EngineTuning", "EVENT_QUEUES", "EVENT_QUEUE_ENV"]


@dataclass(frozen=True, slots=True)
class FastPaths:
    """Which exact hot-path optimizations a trial runs with (default: all)."""

    mobility_segments: bool = True
    reception_memo: bool = True
    frame_pool: bool = True
    airtime_memo: bool = True
    grid_prefilter: bool = True
    batch_receptions: bool = True

    @classmethod
    def none(cls) -> "FastPaths":
        """Every fast path disabled — the reference slow path for A/B runs."""
        return cls(**{f.name: False for f in fields(cls)})

    @classmethod
    def only(cls, *names: str) -> "FastPaths":
        """Only the named fast paths enabled (equivalence tests toggle one
        at a time to localise a violation)."""
        known = {f.name for f in fields(cls)}
        unknown = set(names) - known
        if unknown:
            raise ValueError(f"unknown fast paths: {sorted(unknown)}")
        return cls(**{name: name in names for name in known})


#: Recognised event-queue implementations (see :mod:`repro.sim.engine`).
EVENT_QUEUES: Tuple[str, ...] = ("heap", "calendar")

#: Environment override consulted by :meth:`EngineTuning.from_env`, so a
#: whole sweep (CLI, process pools, distributed workers) can run on the
#: reference heap without a new flag.
EVENT_QUEUE_ENV = "REPRO_EVENT_QUEUE"


@dataclass(frozen=True, slots=True)
class EngineTuning:
    """Engine-level configuration of one trial: the event queue.

    ``event_queue``
        ``"calendar"`` (default) or ``"heap"``.  **Exact**: pop order is
        totally determined by ``(time, priority, sequence)``, so a trial is
        bit-identical under either queue — same contract as every FastPaths
        flag, enforced by the queue-flag equivalence matrix in
        ``tests/sim/test_eventq.py``.
    """

    event_queue: str = "calendar"

    def __post_init__(self) -> None:
        if self.event_queue not in EVENT_QUEUES:
            raise ValueError(
                f"unknown event queue {self.event_queue!r}; "
                f"expected one of {EVENT_QUEUES}"
            )

    @classmethod
    def from_env(cls) -> "EngineTuning":
        """Defaults, overridden by ``$REPRO_EVENT_QUEUE``.

        ``build_network`` resolves its default tuning through this.  Tuning
        is not part of a job's identity (its content key): both queues are
        exact, so a store holds the same cells whichever produced it.
        """
        queue = os.environ.get(EVENT_QUEUE_ENV)
        return cls(event_queue=queue) if queue else cls()
