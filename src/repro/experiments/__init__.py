"""Experiment harness regenerating the paper's Table I and Figures 3–7.

Organised as a job pipeline: :mod:`~repro.experiments.jobs` plans a sweep as
independent :class:`TrialJob` cells, :mod:`~repro.experiments.executor` runs
them through one claim → run → settle loop (in process, over a process pool,
or — with :mod:`~repro.experiments.distributed`'s leases — across workers
sharing a store), :mod:`~repro.experiments.runner` collects them into
:class:`SweepResults`, :mod:`~repro.experiments.store` persists completed
cells so interrupted sweeps resume, and ``python -m repro.experiments``
drives it all from the command line.

Since PR 3 the results are also *asserted*: :mod:`~repro.experiments.gate`
holds the science gate — the paper's qualitative claims as declarative
invariants over a completed store — and :mod:`~repro.experiments.trajectory`
merges stores from successive runs and tracks per-figure metrics across them.

Since PR 5 the *performance* of a trial is first-class too:
:mod:`~repro.experiments.profile` runs one instrumented trial and breaks its
cost down by architectural layer, so optimization work starts from data (and
``BENCH_5.json`` at the repo root records the wall-clock trajectory).
"""

from .distributed import (
    DEFAULT_LEASE_TTL,
    DistributedBackend,
    default_worker_id,
    store_status,
)
from .executor import (
    ExecutionProgress,
    SerialBackend,
    SweepBackend,
    execute_jobs,
    run_job,
)
from .gate import (
    BoundInvariant,
    ExactInvariant,
    GateReport,
    Invariant,
    InvariantOutcome,
    OrderingInvariant,
    evaluate_gate,
    paper_invariants,
)
from .jobs import TrialJob, plan_sweep, sweep_shape
from .profile import LayerCost, TrialProfile, profile_trial
from .paper import (
    EXPERIMENTS,
    PAPER_PROTOCOLS,
    SCALE_NAMES,
    SEQUENCE_NUMBER_PROTOCOLS,
    EvaluationScale,
    ExperimentDefinition,
    figure,
    figure_text,
    resolve_scale,
    table1,
    table1_text,
)
from .runner import SweepResults, collect_sweep
from .store import ResultsStore, TornCellWarning
from .trajectory import (
    MergeReport,
    TrajectoryPoint,
    merge_stores,
    metric_trajectories,
    sparkline,
    union_results,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "EXPERIMENTS",
    "PAPER_PROTOCOLS",
    "SCALE_NAMES",
    "SEQUENCE_NUMBER_PROTOCOLS",
    "BoundInvariant",
    "DistributedBackend",
    "EvaluationScale",
    "ExactInvariant",
    "ExecutionProgress",
    "ExperimentDefinition",
    "GateReport",
    "Invariant",
    "InvariantOutcome",
    "LayerCost",
    "MergeReport",
    "OrderingInvariant",
    "ResultsStore",
    "SerialBackend",
    "SweepBackend",
    "SweepResults",
    "TornCellWarning",
    "TrajectoryPoint",
    "TrialJob",
    "TrialProfile",
    "collect_sweep",
    "default_worker_id",
    "evaluate_gate",
    "execute_jobs",
    "figure",
    "figure_text",
    "merge_stores",
    "metric_trajectories",
    "paper_invariants",
    "plan_sweep",
    "profile_trial",
    "resolve_scale",
    "run_job",
    "sparkline",
    "store_status",
    "sweep_shape",
    "table1",
    "table1_text",
    "union_results",
]
