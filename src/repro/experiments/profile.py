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
CLI.  The JSON shape is stable and documented in EXPERIMENTS.md ("Profiling
and performance").

The instrumented trial is *not* a benchmark: cProfile inflates Python call
costs roughly 2–3x and skews toward call-heavy code.  The layer shares are
what to read; end-to-end wall-clock numbers come from the benchmark suite
(``python benchmarks/suite/run.py``), which runs un-instrumented.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..protocols import protocol_factory
from ..sim.network import build_network
from ..sim.stats import TrialSummary
from ..workloads.scenario import Scenario

__all__ = [
    "CollectorCost",
    "LayerCost",
    "TrialProfile",
    "profile_trial",
    "layer_of",
]


#: Path fragments -> layer name, first match wins.  Order matters: more
#: specific fragments (spatial under channel, eventq under engine) come
#: before general ones.
_LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro/sim/eventq", "engine.queue"),
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
        "fire",      # end of a backoff countdown (mac._Backoff)
        "draw",      # backoff slot draw (mac._Backoff)
        "on_idle",   # idle-edge resume callback (mac._Backoff)
        "proceed",   # post-transmission proceed step
    }
)

#: Layers always present in a profile (zero-filled when unexercised), so
#: trajectory comparisons across commits line up column-for-column.
#: ``engine.queue`` and ``mac.timers`` are sub-layers: siblings in the
#: output (shares still sum to 100%), carved out of "engine" and "mac".
KNOWN_LAYERS: Tuple[str, ...] = (
    "engine",
    "engine.queue",
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


@dataclass(slots=True)
class CollectorCost:
    """The cyclic garbage collector's share of a profiled trial.

    The instance is itself the ``gc.callbacks`` entry that fills it,
    installed for the profiled trial only.  cProfile books a collection to
    whichever frame allocated the object that triggered it; this record is
    the collector's own line in the budget.  A trial makes no cyclic garbage
    (``tests/sim/test_gc_free.py``), so ``collected`` above zero points at a
    new reference cycle.
    """

    #: collections run, per generation
    collections: List[int] = field(default_factory=lambda: [0, 0, 0])
    seconds: float = 0.0  #: wall seconds inside the collector
    collected: int = 0  #: unreachable objects the collector freed
    _started: float = field(default=0.0, repr=False, compare=False)

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        """The ``gc.callbacks`` hook: time one collection and count it."""
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        self.collections[info["generation"]] += 1
        self.collected += info["collected"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "collections": list(self.collections),
            "seconds": round(self.seconds, 6),
            "collected": self.collected,
        }


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
    summary: TrialSummary
    gc: CollectorCost
    layers: List[LayerCost] = field(default_factory=list)
    faults: Optional[str] = None  #: fault preset name, when the trial is faulted

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
            "faults": self.faults,
            "layers": [cost.to_dict() for cost in self.layers],
            "gc": self.gc.to_dict(),
            "summary": self.summary.to_dict(),
        }

    def to_text(self) -> str:
        total = self.profiled_seconds or 1.0
        with_alloc = any(c.allocated_kb is not None for c in self.layers)
        lines = [
            f"Trial profile: {self.protocol} @ scale={self.scale} "
            f"pause={self.pause_time:g}s "
            f"({self.node_count} nodes, {self.duration:g}s simulated"
            + (f", faults={self.faults}" if self.faults else "")
            + ")",
            f"  wall {self.wall_seconds:.2f}s (instrumented), "
            f"{self.events_processed} events, "
            f"{self.events_per_second:,.0f} events/s",
        ]
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
        collector = self.gc
        share = collector.seconds / self.wall_seconds if self.wall_seconds else 0.0
        lines.append(
            f"  gc: {'/'.join(map(str, collector.collections))} collections "
            f"(gen 0/1/2), {collector.seconds:.3f}s ({share:.1%} of wall), "
            f"{collector.collected:,} objects collected"
        )
        return "\n".join(lines)


def profile_trial(
    scenario: Scenario,
    protocol: str,
    *,
    scale_name: str = "custom",
    faults: Optional[str] = None,
    track_allocations: bool = False,
) -> TrialProfile:
    """Run one instrumented trial and return its per-layer breakdown.

    ``faults`` is a label (the preset name) recorded in the profile when
    ``scenario`` carries a fault plan; it does not install faults itself.
    ``track_allocations`` adds a tracemalloc pass — allocation sites grouped
    by the same layers — at a substantial extra slowdown.  The collector's
    collections and time are recorded either way (:class:`CollectorCost`).
    """
    network = build_network(scenario, protocol_factory(protocol))

    allocations: Dict[str, float] = {}
    if track_allocations:
        tracemalloc.start()
    # Collect the set-up's garbage first, so the collections recorded are
    # the trial's own.
    gc.collect()
    collector = CollectorCost()
    gc.callbacks.append(collector)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        summary = network.run()
    finally:
        profiler.disable()
        gc.callbacks.remove(collector)
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
    return TrialProfile(
        scale=scale_name,
        protocol=protocol,
        pause_time=scenario.pause_time,
        node_count=scenario.node_count,
        duration=scenario.duration,
        wall_seconds=wall,
        events_processed=events,
        events_per_second=events / wall if wall > 0 else 0.0,
        summary=summary,
        gc=collector,
        layers=layers,
        faults=faults if scenario.faults else None,
    )
