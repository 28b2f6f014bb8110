"""The paper's evaluation: Table I and Figures 3–7 as runnable experiments.

Each experiment knows which metric it plots, which protocols appear in it and
how to render its output; all of them share one protocol x pause-time x trial
sweep (:func:`~repro.experiments.jobs.plan_sweep` ->
:func:`~repro.experiments.executor.execute_jobs` ->
:func:`~repro.experiments.runner.collect_sweep`), so regenerating the whole
evaluation costs one sweep.

Scale: the paper uses 100 nodes, 30 flows, 900 s, 8 pause times and 10 trials
on GloMoSim.  ``EvaluationScale`` lets callers choose between the full
``paper`` scale (hours of CPU serially — hence the parallel, resumable sweep
engine), the reduced ``paper-tier`` scale (the paper's full 5 x 8 shape at
nightly-CI cost) and the ``benchmark`` / ``smoke`` scales used by the
benchmark suite, CI and the test-suite, which keep the same structure at
laptop cost.  ``EXPERIMENTS.md`` (repo root) records the benchmark-scale
numbers per figure/table and the ``python -m repro.experiments`` commands that
regenerate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..metrics.confidence import ConfidenceInterval
from ..metrics.report import (
    MetricSeries,
    format_series,
    format_table,
    interval_or_empty,
    series_from_results,
)
from ..workloads.scenario import (
    PAPER_PAUSE_TIMES,
    PAPER_SCENARIO,
    Scenario,
    scaled_scenario,
)
from .runner import SweepResults

__all__ = [
    "EvaluationScale",
    "PAPER_PROTOCOLS",
    "SEQUENCE_NUMBER_PROTOCOLS",
    "EXPERIMENTS",
    "ExperimentDefinition",
    "SCALE_NAMES",
    "resolve_scale",
    "table1",
    "figure",
]

#: The five protocols of Table I and Figures 3–6.
PAPER_PROTOCOLS: Sequence[str] = ("SRP", "LDR", "AODV", "DSR", "OLSR")
#: Fig. 7 compares sequence-number growth for the three protocols that use one.
SEQUENCE_NUMBER_PROTOCOLS: Sequence[str] = ("SRP", "LDR", "AODV")


@dataclass(frozen=True, slots=True)
class EvaluationScale:
    """How large a sweep to run."""

    name: str
    scenario: Scenario
    pause_times: Sequence[float]
    trials: int

    @property
    def job_count(self) -> int:
        """Simulations in one sweep of this scale (five-protocol default)."""
        return len(self.pause_times) * self.trials * len(PAPER_PROTOCOLS)

    @classmethod
    def paper(cls) -> "EvaluationScale":
        """The full parameters from Section V (hours of CPU time)."""
        return cls("paper", PAPER_SCENARIO, PAPER_PAUSE_TIMES, trials=10)

    @classmethod
    def paper_tier(cls) -> "EvaluationScale":
        """The paper's full 5-protocol x 8-pause-time shape at nightly-CI cost.

        Half the paper's node count on a half-area terrain (same density),
        one fifth the duration with pause times scaled to match, two trials:
        every mechanism of the full evaluation is active, in about an hour of
        single-core CPU (minutes across a worker pool).
        """
        return cls(
            "paper-tier",
            scaled_scenario(
                node_count=50,
                flow_count=15,
                duration=180.0,
                terrain_width=1100.0,
                terrain_height=600.0,
            ),
            # The paper's eight pause times scaled by duration (180/900).
            pause_times=tuple(p * 180.0 / 900.0 for p in PAPER_PAUSE_TIMES),
            trials=2,
        )

    @classmethod
    def benchmark(cls) -> "EvaluationScale":
        """The laptop-sized sweep used by the benchmark harness."""
        return cls(
            "benchmark",
            scaled_scenario(node_count=30, flow_count=8, duration=60.0),
            pause_times=(0.0, 30.0, 60.0),
            trials=2,
        )

    @classmethod
    def smoke(cls) -> "EvaluationScale":
        """The smallest sweep that still exercises every code path (tests)."""
        return cls(
            "smoke",
            scaled_scenario(
                node_count=16,
                flow_count=3,
                duration=25.0,
                terrain_width=900.0,
                terrain_height=300.0,
            ),
            pause_times=(0.0, 25.0),
            trials=1,
        )


@dataclass(frozen=True, slots=True)
class ExperimentDefinition:
    """One table or figure of the evaluation section."""

    experiment_id: str
    title: str
    metric: str
    protocols: Sequence[str]
    description: str


#: The per-experiment index (mirrored in EXPERIMENTS.md at the repo root).
EXPERIMENTS: Dict[str, ExperimentDefinition] = {
    "table1": ExperimentDefinition(
        "table1",
        "Table I: performance averaged over all pause times",
        "delivery_ratio",  # Table I shows three metrics; see `table1` below.
        PAPER_PROTOCOLS,
        "Delivery ratio, network load and latency averaged over every pause "
        "time, with 95% confidence intervals.",
    ),
    "fig3": ExperimentDefinition(
        "fig3",
        "Fig. 3: average MAC layer drops vs. pause time",
        "mac_drops",
        PAPER_PROTOCOLS,
        "Per-node MAC-layer drops (queue overflow plus retry exhaustion).",
    ),
    "fig4": ExperimentDefinition(
        "fig4",
        "Fig. 4: delivery ratio vs. pause time",
        "delivery_ratio",
        PAPER_PROTOCOLS,
        "CBR packets received divided by CBR packets sent.",
    ),
    "fig5": ExperimentDefinition(
        "fig5",
        "Fig. 5: network load vs. pause time",
        "network_load",
        PAPER_PROTOCOLS,
        "Control packets transmitted per delivered CBR packet (semi-log in "
        "the paper).",
    ),
    "fig6": ExperimentDefinition(
        "fig6",
        "Fig. 6: data latency vs. pause time",
        "latency",
        PAPER_PROTOCOLS,
        "Mean end-to-end lifetime of delivered CBR packets.",
    ),
    "fig7": ExperimentDefinition(
        "fig7",
        "Fig. 7: average node sequence number vs. pause time",
        "sequence_number",
        SEQUENCE_NUMBER_PROTOCOLS,
        "Average growth of node sequence numbers; SRP stays at exactly zero.",
    ),
}

#: Table I's columns map onto these metrics.
TABLE1_METRICS: Sequence[str] = ("delivery_ratio", "network_load", "latency")


#: CLI scale names -> factories (the job pipeline's user-facing vocabulary).
SCALE_NAMES: Dict[str, Callable[[], EvaluationScale]] = {
    "smoke": EvaluationScale.smoke,
    "benchmark": EvaluationScale.benchmark,
    "paper-tier": EvaluationScale.paper_tier,
    "paper": EvaluationScale.paper,
}


def resolve_scale(
    name: str,
    *,
    trials: Optional[int] = None,
) -> EvaluationScale:
    """An :class:`EvaluationScale` by CLI name, optionally overriding trials."""
    try:
        scale = SCALE_NAMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; expected one of {sorted(SCALE_NAMES)}"
        ) from None
    if trials is not None:
        scale = EvaluationScale(scale.name, scale.scenario, scale.pause_times, trials)
    return scale


def table1(results: SweepResults) -> Dict[str, Dict[str, ConfidenceInterval]]:
    """Table I: per-protocol averages over all pause times for three metrics."""
    table: Dict[str, Dict[str, ConfidenceInterval]] = {}
    for protocol in results.protocols:
        table[protocol] = {
            metric: interval_or_empty(
                results.metric_over_all_pauses(protocol, metric)
            )
            for metric in TABLE1_METRICS
        }
    return table


def table1_text(results: SweepResults) -> str:
    """Table I rendered as fixed-width text."""
    return format_table(
        table1(results),
        title=EXPERIMENTS["table1"].title,
        metric_order=TABLE1_METRICS,
    )


def figure(experiment_id: str, results: SweepResults) -> MetricSeries:
    """The series behind one of Figures 3–7."""
    definition = EXPERIMENTS[experiment_id]
    if not experiment_id.startswith("fig"):
        raise ValueError(f"{experiment_id!r} is not a figure; use table1()")
    data = {
        protocol: results.metric_by_pause(protocol, definition.metric)
        for protocol in definition.protocols
        if protocol in results.protocols
    }
    return series_from_results(
        definition.title, "pause time (s)", results.pause_times, data
    )


def figure_text(experiment_id: str, results: SweepResults) -> str:
    """One figure's series rendered as fixed-width text."""
    return format_series(figure(experiment_id, results))
