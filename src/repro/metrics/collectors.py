"""Helpers turning trial summaries into the paper's metric values.

:class:`~repro.sim.stats.TrialSummary` already exposes the raw quantities; the
collectors here define *which* number feeds each table column / figure axis,
so the experiment definitions and the tests agree on a single source of truth.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..sim.stats import TrialSummary

__all__ = ["METRIC_EXTRACTORS", "extract_metric"]

#: Metric name -> function of a trial summary, matching the evaluation section.
METRIC_EXTRACTORS: Dict[str, Callable[[TrialSummary], float]] = {
    # Table I / Fig. 4
    "delivery_ratio": lambda s: s.delivery_ratio,
    # Table I / Fig. 5
    "network_load": lambda s: s.network_load,
    # Table I / Fig. 6
    "latency": lambda s: s.mean_latency,
    # Fig. 3
    "mac_drops": lambda s: s.mac_drops_per_node,
    # Fig. 7
    "sequence_number": lambda s: s.average_sequence_number,
    # Resilience metrics (repro.sim.faults; zero / -1 in fault-free trials)
    "delivery_during_fault": lambda s: s.delivery_ratio_during_fault,
    "delivery_post_fault": lambda s: s.delivery_ratio_post_fault,
    "route_recovery_time": lambda s: s.route_recovery_time,
    "heal_control_burst": lambda s: float(s.control_burst_on_heal),
}


def extract_metric(summary: TrialSummary, metric: str) -> float:
    """The value of ``metric`` for one trial."""
    try:
        extractor = METRIC_EXTRACTORS[metric]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {sorted(METRIC_EXTRACTORS)}"
        ) from None
    return extractor(summary)
