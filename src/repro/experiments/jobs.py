"""Trial jobs: the unit of work the sweep engine plans, runs and caches.

The paper's evaluation is a triple loop — protocol x pause time x trial — in
which every cell is an independent, deterministic simulation: the outcome is a
pure function of (scenario, protocol), and the scenario is itself derived only
from the base scenario, the pause time and the trial seed.  :class:`TrialJob`
makes that cell explicit, and :func:`plan_sweep` emits the full job list for a
sweep up front, so executors can run cells in any order (serially, across a
process pool, or resumed from a partial on-disk store) and still assemble
bit-identical :class:`~repro.experiments.runner.SweepResults`.

Each job carries a *content key*: a stable hash of everything that determines
its result.  The key names the job's cache entry in
:class:`~repro.experiments.store.ResultsStore`, so a re-planned sweep finds
its completed cells again and a changed parameter (node count, seed, phy
constant, ...) changes the key and forces a re-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..workloads.scenario import Scenario

__all__ = ["TrialJob", "plan_sweep", "sweep_shape"]


@dataclass(frozen=True, slots=True)
class TrialJob:
    """One (protocol, pause time, trial) cell of a sweep.

    ``scenario`` already has the pause time and the trial seed folded in, so
    running the job is simply ``run_trial(scenario, protocol_factory(protocol))``
    — no further derivation, hence no ordering dependence between jobs.
    """

    protocol: str
    scenario: Scenario
    pause_time: float
    trial: int
    seed: int
    # Memoised digest: every store lookup (resume skims, distributed steal
    # cycles, missing() polls) keys on it, and serialising the scenario plus
    # sha256 per call dominated those paths at 1k-cell scale.
    _key: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def content_key(self) -> str:
        """A stable hex digest of everything that determines this job's result."""
        if self._key is None:
            payload = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]
            object.__setattr__(self, "_key", digest)  # frozen-safe memo
        return self._key

    @property
    def cell(self) -> Tuple[str, float, int]:
        """The (protocol, pause time, trial) index of this job in a SweepResults."""
        return (self.protocol, self.pause_time, self.trial)

    def cell_dict(self) -> Dict[str, Any]:
        """The cell identity as JSON-safe metadata.

        Carried in distributed workers' lease files so ``status`` can say
        *what* a worker is running, not just which opaque content key.
        """
        return {
            "protocol": self.protocol,
            "pause_time": self.pause_time,
            "trial": self.trial,
        }

    @property
    def cell_label(self) -> str:
        """The cell as one short human-readable token (progress/status lines)."""
        return f"{self.protocol} pause={self.pause_time:g} trial={self.trial}"

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; also the canonical input of :attr:`content_key`."""
        return {
            "protocol": self.protocol,
            "scenario": self.scenario.to_dict(),
            "pause_time": self.pause_time,
            "trial": self.trial,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialJob":
        """Rebuild a job written by :meth:`to_dict`."""
        return cls(
            protocol=data["protocol"],
            scenario=Scenario.from_dict(data["scenario"]),
            pause_time=data["pause_time"],
            trial=data["trial"],
            seed=data["seed"],
        )


def plan_sweep(
    base_scenario: Scenario,
    protocols: Sequence[str],
    *,
    pause_times: Sequence[float],
    trials: int = 1,
) -> List[TrialJob]:
    """The full job list of one sweep, pause by pause.

    Trial ``k`` at pause time ``p`` uses seed ``base_scenario.seed + k`` with
    ``p`` folded into the scenario, so all protocols in that cell share
    mobility and traffic exactly, as in the paper.  The emitted order (pause,
    then trial, then protocol) is the order a one-worker run's progress lines
    follow — but nothing downstream depends on it.
    """
    jobs: List[TrialJob] = []
    for pause_time in pause_times:
        for trial in range(trials):
            scenario = base_scenario.with_pause_time(pause_time).with_seed(
                base_scenario.seed + trial
            )
            for protocol in protocols:
                jobs.append(
                    TrialJob(
                        protocol=protocol,
                        scenario=scenario,
                        pause_time=pause_time,
                        trial=trial,
                        seed=scenario.seed,
                    )
                )
    return jobs


def sweep_shape(jobs: Sequence[TrialJob]) -> Tuple[List[str], List[float], int]:
    """(protocols, pause times, trials) recovered from a job list.

    Orders follow first appearance in ``jobs``, which for :func:`plan_sweep`
    output reproduces the planner's input orders.
    """
    protocols: List[str] = []
    pause_times: List[float] = []
    trials = 0
    for job in jobs:
        if job.protocol not in protocols:
            protocols.append(job.protocol)
        if job.pause_time not in pause_times:
            pause_times.append(job.pause_time)
        trials = max(trials, job.trial + 1)
    return protocols, pause_times, trials
