"""Profile-driven performance analysis of one simulation trial.

Every perf PR should start from data, not intuition — PR 5's own profiling
found the dominant per-trial cost in the MAC backoff/carrier-sense polling
cycle rather than in the mobility interpolation the folklore blamed.  This
module makes that measurement a first-class, repeatable artifact:

:func:`profile_trial` runs one instrumented trial (``cProfile`` for CPU,
optionally ``tracemalloc`` for allocations) and rolls the per-function
numbers up into the architectural **layers** of the simulator — engine
dispatch, channel geometry, MAC, mobility, packet/phy, each protocol,
workload, metrics, RNG — so the output answers "where does a trial spend its
time?" at the level the code is organised.

``python -m repro.experiments profile --scale smoke --json out.json`` is the
CLI; ``--fast-paths off`` profiles the reference slow path so before/after
breakdowns come from one command.  The JSON shape is stable and documented
in EXPERIMENTS.md ("Profiling and performance").

The instrumented trial is *not* a benchmark: cProfile inflates Python call
costs roughly 2–3x and skews toward call-heavy code.  The layer shares are
what to read; end-to-end wall-clock numbers come from
``benchmarks/bench_trial_profile.py``, which runs un-instrumented.
"""

from __future__ import annotations

import cProfile
import pstats
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..protocols import PROTOCOLS, protocol_factory
from ..sim.network import build_network
from ..sim.stats import TrialSummary
from ..sim.tuning import EngineTuning, FastPaths
from ..workloads.scenario import Scenario

__all__ = [
    "LayerCost",
    "TrialProfile",
    "profile_trial",
    "layer_of",
    "reference_protocol_factory",
]


def reference_protocol_factory(protocol: str):
    """The protocol factory for the all-fast-paths-off reference side.

    Incremental route maintenance (OLSR's and LSR's dirty-flag SPF) is one
    of PR 5's fast paths but lives in the protocol *config* (instances are
    built by the factory, not by ``build_network``), so the reference side
    must disable it explicitly alongside ``FastPaths.none()``.  Registry-
    driven: any protocol whose config declares ``incremental_routes`` gets
    it switched off.  Used by both ``profile --fast-paths off`` and
    ``bench_trial_profile.py --with-off``.
    """
    spec = PROTOCOLS.get(protocol)
    if (
        spec is not None
        and spec.config_class is not None
        and "incremental_routes" in spec.default_config().to_dict()
    ):
        return protocol_factory(protocol, {"incremental_routes": False})
    return protocol_factory(protocol)

#: Path fragments -> layer name, first match wins.  Order matters: more
#: specific fragments (spatial under channel, eventq under engine) come
#: before general ones.
_LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro/sim/eventq", "engine.queue"),
    ("repro/sim/pdes", "engine"),
    ("repro/sim/engine", "engine"),
    ("repro/sim/spatial", "channel"),
    ("repro/sim/channel", "channel"),
    ("repro/sim/mac", "mac"),
    ("repro/sim/mobility", "mobility"),
    ("repro/sim/space", "mobility"),
    ("repro/sim/packet", "packet"),
    ("repro/sim/phy", "packet"),
    ("repro/sim/node", "node"),
    ("repro/sim/network", "node"),
    ("repro/sim/stats", "metrics"),
    ("repro/metrics/", "metrics"),
    ("repro/protocols/", "protocol"),
    ("repro/core/", "protocol"),
    ("repro/workloads/", "workload"),
    ("/random.py", "rng"),
)

#: MAC functions (methods and hot-path closures) that make up the backoff /
#: timer machinery rather than frame handling.  Split out as the
#: ``mac.timers`` sub-layer so a profile shows how much of "mac" is timer
#: churn.
_MAC_TIMER_NAMES = frozenset(
    {
        "_try_dequeue",
        "_attempt",
        "fire",      # end-of-backoff firing closure
        "draw",      # backoff draw closure
        "on_idle",   # idle-edge resume callback
        "proceed",   # post-transmission proceed step
    }
)

#: Sharded-backend functions that are pure synchronization — window-barrier
#: bookkeeping and the mobility-driven ownership refresh.  Split out as the
#: ``engine.sync`` sub-layer so a sharded profile shows the conservative-
#: synchronization overhead next to ``engine.queue``; serial profiles
#: report it as an all-zero row (KNOWN_LAYERS keeps columns aligned).
_PDES_SYNC_NAMES = frozenset({"_window_barrier", "_refresh_ownership"})

#: Layers always present in a profile (zero-filled when unexercised), so
#: trajectory comparisons across commits line up column-for-column.
#: ``engine.queue`` and ``mac.timers`` are sub-layers: siblings in the
#: output (shares still sum to 100%), carved out of "engine" and "mac".
KNOWN_LAYERS: Tuple[str, ...] = (
    "engine",
    "engine.queue",
    "engine.sync",
    "channel",
    "mac",
    "mac.timers",
    "mobility",
    "packet",
    "node",
    "protocol",
    "workload",
    "metrics",
    "rng",
    "builtins",
    "other",
)


def layer_of(filename: str, name: str = "") -> str:
    """The architectural layer a profiled function belongs to.

    ``name`` (the function name from the pstats key) refines file-level
    layers into sub-layers: the MAC's timer machinery reports as
    ``mac.timers``.  Callers without a function name (tracemalloc statistics
    are per-file) get the coarse layer.
    """
    if filename == "~":  # pstats' marker for C builtins (heapq, dict, ...)
        return "builtins"
    normalized = filename.replace("\\", "/")
    for fragment, layer in _LAYER_RULES:
        if fragment in normalized:
            if layer == "mac" and name in _MAC_TIMER_NAMES:
                return "mac.timers"
            if layer == "engine" and name in _PDES_SYNC_NAMES:
                return "engine.sync"
            return layer
    return "other"


@dataclass(frozen=True, slots=True)
class LayerCost:
    """One layer's share of a profiled trial."""

    layer: str
    seconds: float  #: own (tottime) CPU seconds attributed to the layer
    calls: int  #: primitive call count
    allocated_kb: Optional[float] = None  #: tracemalloc total, when sampled

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "layer": self.layer,
            "seconds": round(self.seconds, 6),
            "calls": self.calls,
        }
        if self.allocated_kb is not None:
            data["allocated_kb"] = round(self.allocated_kb, 1)
        return data


@dataclass
class TrialProfile:
    """The full per-layer breakdown of one instrumented trial."""

    scale: str
    protocol: str
    pause_time: float
    node_count: int
    duration: float
    wall_seconds: float  #: instrumented wall clock (inflated by cProfile)
    events_processed: int
    events_per_second: float
    fast_paths: bool
    summary: TrialSummary
    layers: List[LayerCost] = field(default_factory=list)
    event_queue: str = "calendar"
    engine_backend: str = "serial"
    shard_count: int = 0  #: effective shard count; 0 under the serial backend
    faults: Optional[str] = None  #: fault preset name, when the trial is faulted
    pdes: Optional[Dict[str, Any]] = None  #: PdesSync.report(), sharded runs only

    @property
    def profiled_seconds(self) -> float:
        """Total own-time over every layer (the 100% the shares refer to)."""
        return sum(cost.seconds for cost in self.layers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scale": self.scale,
            "protocol": self.protocol,
            "pause_time": self.pause_time,
            "node_count": self.node_count,
            "duration": self.duration,
            "wall_seconds": round(self.wall_seconds, 3),
            "events_processed": self.events_processed,
            "events_per_second": round(self.events_per_second, 1),
            "fast_paths": self.fast_paths,
            "event_queue": self.event_queue,
            "engine_backend": self.engine_backend,
            "shard_count": self.shard_count,
            "faults": self.faults,
            "pdes": self.pdes,
            "layers": [cost.to_dict() for cost in self.layers],
            "summary": self.summary.to_dict(),
        }

    def to_text(self) -> str:
        total = self.profiled_seconds or 1.0
        with_alloc = any(c.allocated_kb is not None for c in self.layers)
        lines = [
            f"Trial profile: {self.protocol} @ scale={self.scale} "
            f"pause={self.pause_time:g}s "
            f"({self.node_count} nodes, {self.duration:g}s simulated, "
            f"fast paths {'on' if self.fast_paths else 'off'}, "
            f"queue={self.event_queue}"
            + (
                f", backend={self.engine_backend}x{self.shard_count}"
                if self.engine_backend != "serial"
                else ""
            )
            + (f", faults={self.faults}" if self.faults else "")
            + ")",
            f"  wall {self.wall_seconds:.2f}s (instrumented), "
            f"{self.events_processed} events, "
            f"{self.events_per_second:,.0f} events/s",
        ]
        if self.pdes is not None:
            lines.append(
                f"  sync: {self.pdes['windows']} windows, "
                f"{self.pdes['handoffs']} handoffs, "
                f"{self.pdes['boundary_receptions']} boundary receptions, "
                f"{self.pdes['boundary_faults']} boundary faults"
            )
            lines.append(
                f"  occupancy: {self.pdes.get('events_per_window', 0.0):,} "
                f"events/window, "
                f"{self.pdes.get('boundary_events', 0)} boundary events, "
                f"{self.pdes.get('barrier_seconds', 0.0)}s barrier stall"
            )
        lines.append(
            f"  {'layer':<12} {'seconds':>9} {'share':>7} {'calls':>12}"
            + ("  alloc KiB" if with_alloc else "")
        )
        for cost in self.layers:
            line = (
                f"  {cost.layer:<12} {cost.seconds:>9.3f} "
                f"{cost.seconds / total:>6.1%} {cost.calls:>12,}"
            )
            if cost.allocated_kb is not None:
                line += f"  {cost.allocated_kb:>9.1f}"
            lines.append(line)
        return "\n".join(lines)


def profile_trial(
    scenario: Scenario,
    protocol: str,
    *,
    scale_name: str = "custom",
    fast_paths: Optional[FastPaths] = None,
    tuning: Optional[EngineTuning] = None,
    faults: Optional[str] = None,
    track_allocations: bool = False,
) -> TrialProfile:
    """Run one instrumented trial and return its per-layer breakdown.

    ``fast_paths=FastPaths.none()`` profiles the reference slow path (the
    before side of a before/after table), including OLSR's full per-tick
    route recomputation via :func:`reference_protocol_factory`.
    ``tuning`` selects the engine configuration (event queue, backend),
    defaulting like :func:`build_network`.  ``faults`` is a label
    (the preset name) recorded in the profile when ``scenario`` carries a
    fault plan; it does not install faults itself.  ``track_allocations``
    adds a tracemalloc pass — allocation sites grouped by the same layers —
    at a substantial extra slowdown.
    """
    fp = FastPaths() if fast_paths is None else fast_paths
    engine_tuning = EngineTuning.from_env() if tuning is None else tuning
    factory = (
        reference_protocol_factory(protocol)
        if fp == FastPaths.none()
        else protocol_factory(protocol)
    )
    network = build_network(scenario, factory, fast_paths=fp, tuning=engine_tuning)

    allocations: Dict[str, float] = {}
    if track_allocations:
        tracemalloc.start()
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    summary = network.run()
    profiler.disable()
    wall = time.perf_counter() - started
    if track_allocations:
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        for stat in snapshot.statistics("filename"):
            layer = layer_of(stat.traceback[0].filename)
            allocations[layer] = allocations.get(layer, 0.0) + stat.size / 1024.0

    stats = pstats.Stats(profiler)
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, _name), (
        primitive_calls,
        _total_calls,
        tottime,
        _cumtime,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        layer = layer_of(filename, _name)
        seconds[layer] = seconds.get(layer, 0.0) + tottime
        calls[layer] = calls.get(layer, 0) + primitive_calls

    layers = [
        LayerCost(
            layer=name,
            seconds=seconds.get(name, 0.0),
            calls=calls.get(name, 0),
            allocated_kb=allocations.get(name) if track_allocations else None,
        )
        for name in KNOWN_LAYERS
    ]
    layers.sort(key=lambda cost: cost.seconds, reverse=True)

    events = network.simulator.events_processed
    sync = getattr(network.simulator, "sync", None)
    return TrialProfile(
        scale=scale_name,
        protocol=protocol,
        pause_time=scenario.pause_time,
        node_count=scenario.node_count,
        duration=scenario.duration,
        wall_seconds=wall,
        events_processed=events,
        events_per_second=events / wall if wall > 0 else 0.0,
        fast_paths=fp != FastPaths.none(),
        summary=summary,
        layers=layers,
        event_queue=engine_tuning.event_queue,
        engine_backend=engine_tuning.engine_backend,
        shard_count=sync.shard_count if sync is not None else 0,
        faults=faults if scenario.faults else None,
        pdes=sync.report() if sync is not None else None,
    )
