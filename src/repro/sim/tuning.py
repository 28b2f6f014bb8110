"""Per-trial performance tuning: the fast-path flag set.

Every optimization PR 5 added to the per-trial hot path is *exact*: for a
fixed seed a trial produces a bit-identical
:class:`~repro.sim.stats.TrialSummary` with the fast path on or off.  The
flags exist (all defaulting on, like ``use_spatial_index`` from PR 1) for A/B
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

__all__ = [
    "FastPaths",
    "EngineTuning",
    "EVENT_QUEUES",
    "ENGINE_BACKENDS",
    "EVENT_QUEUE_ENV",
    "ENGINE_BACKEND_ENV",
    "SHARD_COUNT_ENV",
]


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

#: Recognised engine backends (see :mod:`repro.sim.pdes`).
ENGINE_BACKENDS: Tuple[str, ...] = ("serial", "sharded", "processes")

#: Environment overrides consulted by :meth:`EngineTuning.from_env` — the
#: seam the CI ``pdes-smoke`` job (and any A/B sweep) uses to run the stock
#: sweep CLI under a different engine configuration without new flags.
EVENT_QUEUE_ENV = "REPRO_EVENT_QUEUE"
ENGINE_BACKEND_ENV = "REPRO_ENGINE_BACKEND"
SHARD_COUNT_ENV = "REPRO_SHARD_COUNT"


@dataclass(frozen=True, slots=True)
class EngineTuning:
    """Engine-level configuration of one trial: event queue and backend.

    ``event_queue``
        ``"calendar"`` (default) or ``"heap"``.  **Exact**: pop order is
        totally determined by ``(time, priority, sequence)``, so a trial is
        bit-identical under either queue — same contract as every FastPaths
        flag, enforced by the queue-flag equivalence matrix in
        ``tests/sim/test_eventq.py``.

    ``engine_backend`` / ``shard_count``
        ``"serial"`` (default), ``"sharded"`` or ``"processes"``.
        ``"sharded"`` is the spatially sharded conservative PDES backend
        (:mod:`repro.sim.pdes`).  **Exact**: the sharded backend's K-way
        merge pops the identical globally ordered event sequence for any
        shard count, so a sharded trial is bit-identical to a serial one
        (enforced by the shard-invariance matrix in
        ``tests/sim/test_pdes.py`` and the ``pdes-smoke`` CI job).
        ``"processes"`` runs the trial through
        :func:`repro.sim.pdes.run_trial_sharded_processes` — exact group
        fan-out under the default PHY, the windowed barrier-exchange model
        under a finite propagation delay; it is a *run*-level backend
        (dispatched where a whole trial is launched, e.g. the sweep
        executor), not a drop-in simulator, so ``build_network`` rejects
        it.  ``shard_count=0`` (auto) resolves from the host's cores — at
        least 2 so "sharded" always means sharded, capped at 4 where the
        strip decomposition stops paying.
    """

    event_queue: str = "calendar"
    engine_backend: str = "serial"
    shard_count: int = 0

    def __post_init__(self) -> None:
        if self.event_queue not in EVENT_QUEUES:
            raise ValueError(
                f"unknown event queue {self.event_queue!r}; "
                f"expected one of {EVENT_QUEUES}"
            )
        if self.engine_backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.engine_backend!r}; "
                f"expected one of {ENGINE_BACKENDS}"
            )
        if self.shard_count < 0:
            raise ValueError(
                f"shard count must be >= 0 (0 = auto), got {self.shard_count}"
            )

    def resolved_shard_count(self) -> int:
        """The effective shard count: the explicit value, or the auto rule."""
        if self.shard_count > 0:
            return self.shard_count
        return min(4, max(2, os.cpu_count() or 1))

    @classmethod
    def from_env(cls) -> "EngineTuning":
        """Defaults, overridden by the ``$REPRO_*`` variables above.

        ``build_network`` resolves its default tuning through this, so a
        whole sweep — CLI, process pools, distributed workers — can be
        flipped to the reference heap or the sharded backend from the
        environment.  Tuning is not part of a job's identity (its content
        key): the queue and the threaded backend are exact, so a store
        holds the same cells whichever of them produced it.
        """
        kwargs = {}
        queue = os.environ.get(EVENT_QUEUE_ENV)
        if queue:
            kwargs["event_queue"] = queue
        backend = os.environ.get(ENGINE_BACKEND_ENV)
        if backend:
            kwargs["engine_backend"] = backend
        shards = os.environ.get(SHARD_COUNT_ENV)
        if shards:
            try:
                kwargs["shard_count"] = int(shards)
            except ValueError:
                raise ValueError(
                    f"${SHARD_COUNT_ENV} must be an integer, got {shards!r}"
                ) from None
        return cls(**kwargs)
