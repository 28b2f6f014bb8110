"""The experiment runner: protocol x pause-time x trial sweeps.

The paper's evaluation varies the random-waypoint pause time over eight values
and runs ten trials per point, with every protocol seeing the identical
mobility and traffic script in a given trial.  Since PR 2 the sweep is an
explicit job pipeline — :func:`~repro.experiments.jobs.plan_sweep` emits one
:class:`~repro.experiments.jobs.TrialJob` per cell,
:func:`~repro.experiments.executor.execute_jobs` runs them (serially or over a
process pool, optionally persisted in a
:class:`~repro.experiments.store.ResultsStore`), and :func:`collect_sweep`
assembles the :class:`SweepResults` container the figure/table code consumes.

``SweepResults`` round-trips through JSON (:meth:`SweepResults.to_json` /
:meth:`SweepResults.from_json`) so a finished sweep can be archived as one
file and re-reported without touching the simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..metrics.collectors import extract_metric
from ..sim.stats import TrialSummary
from .jobs import TrialJob

__all__ = ["SweepResults", "collect_sweep"]

RESULTS_FORMAT_VERSION = 1


@dataclass
class SweepResults:
    """All trial summaries of one sweep, indexed by (protocol, pause, trial)."""

    pause_times: Sequence[float]
    trials: int
    protocols: Sequence[str]
    summaries: Dict[Tuple[str, float, int], TrialSummary] = field(default_factory=dict)

    # -- storage -------------------------------------------------------------------

    def add(
        self, protocol: str, pause_time: float, trial: int, summary: TrialSummary
    ) -> None:
        """Record one trial's summary."""
        self.summaries[(protocol, pause_time, trial)] = summary

    # -- queries ---------------------------------------------------------------------

    def metric_values(
        self, protocol: str, metric: str, pause_time: float
    ) -> List[float]:
        """Per-trial values of ``metric`` for one protocol at one pause time."""
        return [
            extract_metric(self.summaries[(protocol, pause_time, trial)], metric)
            for trial in range(self.trials)
            if (protocol, pause_time, trial) in self.summaries
        ]

    def metric_by_pause(
        self, protocol: str, metric: str
    ) -> Dict[float, List[float]]:
        """``pause time -> per-trial values`` for one protocol and metric."""
        return {
            pause: self.metric_values(protocol, metric, pause)
            for pause in self.pause_times
        }

    def metric_over_all_pauses(self, protocol: str, metric: str) -> List[float]:
        """Every trial value across every pause time (Table I's averages)."""
        values: List[float] = []
        for pause in self.pause_times:
            values.extend(self.metric_values(protocol, metric, pause))
        return values

    def series(self, metric: str) -> Dict[str, Dict[float, List[float]]]:
        """``protocol -> pause -> values`` for one metric (figure input shape)."""
        return {
            protocol: self.metric_by_pause(protocol, metric)
            for protocol in self.protocols
        }

    # -- serialization ---------------------------------------------------------------

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The whole sweep as one JSON document (cells in sorted-key order)."""
        cells = [
            {
                "protocol": protocol,
                "pause_time": pause_time,
                "trial": trial,
                "summary": summary.to_dict(),
            }
            for (protocol, pause_time, trial), summary in sorted(
                self.summaries.items()
            )
        ]
        return json.dumps(
            {
                "version": RESULTS_FORMAT_VERSION,
                "pause_times": list(self.pause_times),
                "trials": self.trials,
                "protocols": list(self.protocols),
                "cells": cells,
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResults":
        """Rebuild a sweep written by :meth:`to_json`."""
        data = json.loads(text)
        version = data.get("version")
        if version != RESULTS_FORMAT_VERSION:
            raise ValueError(f"unsupported sweep results version: {version!r}")
        results = cls(
            pause_times=list(data["pause_times"]),
            trials=data["trials"],
            protocols=list(data["protocols"]),
        )
        for cell in data["cells"]:
            results.add(
                cell["protocol"],
                cell["pause_time"],
                cell["trial"],
                TrialSummary.from_dict(cell["summary"]),
            )
        return results


def collect_sweep(
    outcomes: Mapping[TrialJob, TrialSummary],
    *,
    pause_times: Sequence[float],
    trials: int,
    protocols: Sequence[str],
) -> SweepResults:
    """Assemble executor outcomes into a :class:`SweepResults` container.

    Keyed by each job's (protocol, pause, trial) cell, so the result is the
    same whatever order the executor completed the jobs in.
    """
    results = SweepResults(
        pause_times=list(pause_times), trials=trials, protocols=list(protocols)
    )
    for job, summary in outcomes.items():
        results.add(job.protocol, job.pause_time, job.trial, summary)
    return results

