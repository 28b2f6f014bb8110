"""Roll a cProfile of a trial up into this repo's layers, by file path.

The table lives here and not in ``src/`` (``repro.experiments.profile`` has
its own, with other names) so that the layer a number is booked under does
not move when the code under measurement does.  Every profiled function lands
in exactly one layer, so the layers' self times sum to the profiled total.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, Tuple

#: Path fragment -> layer, first match wins.
_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro/sim/eventq", "sim.eventq"),
    ("repro/sim/engine", "sim.engine"),
    ("repro/sim/pdes", "sim.engine"),
    ("repro/sim/spatial", "sim.channel"),
    ("repro/sim/channel", "sim.channel"),
    ("repro/sim/mac", "sim.mac"),
    ("repro/sim/mobility", "sim.mobility"),
    ("repro/sim/space", "sim.mobility"),
    ("repro/sim/stats", "metrics"),
    ("repro/sim/", "sim.node"),  # node, network, packet, phy, rng, faults
    ("repro/metrics/", "metrics"),
    ("repro/core/", "core"),
    ("repro/protocols/", "protocols"),
    ("repro/runtime/", "protocols"),  # the clock/timer seam protocols run on
    ("repro/workloads/", "workloads"),
)

#: MAC functions that are backoff/carrier-sense timer machinery rather than
#: frame handling (the sub-layer idea of ``repro.experiments.profile``): the
#: poll cycle's wasted work shows here.
_MAC_TIMER_FUNCTIONS = frozenset(
    {
        "_try_dequeue",
        "_attempt",
        "_fast_attempt",
        "_frozen_attempt",
        "_defer",
        "poll",
        "fire",
        "draw",
        "on_idle",
        "proceed",
    }
)

LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.eventq",
    "sim.mac",
    "sim.mac.timers",
    "sim.channel",
    "sim.mobility",
    "sim.node",
    "protocols",
    "core",
    "workloads",
    "metrics",
    "py.builtins",
    "py.other",
)


def layer_of(filename: str, function: str) -> str:
    if filename == "~":  # pstats' marker for C builtins
        return "py.builtins"
    path = filename.replace("\\", "/")
    for fragment, layer in _RULES:
        if fragment in path:
            if layer == "sim.mac" and function in _MAC_TIMER_FUNCTIONS:
                return "sim.mac.timers"
            return layer
    return "py.other"  # stdlib Python: random.py, heapq.py, dataclasses ...


def rollup(profiler: cProfile.Profile) -> Dict[str, float]:
    """``{"<layer>.self_s": seconds, "<layer>.calls": n, "trace.profiled_s": total}``
    for every layer, zero where nothing ran."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    stats = pstats.Stats(profiler)
    for (filename, _line, function), (calls, _n, tottime, _cum, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        layer = layer_of(filename, function)
        out[f"{layer}.self_s"] += tottime
        out[f"{layer}.calls"] += calls
    out["trace.profiled_s"] = stats.total_tt  # type: ignore[attr-defined]
    return out
