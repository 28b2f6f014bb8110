"""Pluggable execution backends for trial jobs, with progress and caching.

Every :class:`~repro.experiments.jobs.TrialJob` is a pure function of its own
fields, so an executor is free to run jobs in any order and on any worker:
the result map is keyed by job, and the assembled
:class:`~repro.experiments.runner.SweepResults` is bit-identical whichever
backend ran it.  :func:`execute_jobs` is the single entry point; the *how* is
a :class:`SweepBackend` strategy:

* :class:`SerialBackend` runs jobs in order in the calling process (the
  legacy ``run_sweep`` behaviour; ``workers <= 1``);
* :class:`ProcessPoolBackend` fans jobs out over a ``ProcessPoolExecutor``
  with bounded workers, collecting results as they complete
  (``workers > 1``);
* :class:`~repro.experiments.distributed.DistributedBackend` (own module)
  work-steals cells from a shared store via lease files, so N processes on N
  hosts cooperate on one sweep.

An optional :class:`~repro.experiments.store.ResultsStore` makes any backend
persistent and resumable: completed cells are loaded instead of re-run, and
every fresh result is written to disk the moment it arrives, so an
interrupted sweep loses at most the cells in flight.

A sweep must also survive its *cells* failing.  :class:`FaultPolicy` bounds
each trial with a wall-clock watchdog and retries transient errors with
exponential backoff; a cell that still cannot complete is *quarantined* — a
structured :class:`~repro.experiments.store.FailureRecord` is persisted to
the store's ``failures/`` directory and the sweep continues with the other
cells.  :class:`ProcessPoolBackend` extends the same guarantee to worker
*processes*: a pool broken by a killed or crashed worker is rebuilt once
(the crash may be unrelated to any one cell), and if it breaks again the
surviving jobs run isolated in single-worker pools so exactly the poisonous
cell is quarantined while every other cell completes.

Progress is reported as structured :class:`ExecutionProgress` events
(completed/total, cache hit or fresh run or quarantined failure, wall-clock
elapsed, a simple ETA and — for distributed runs — the reporting worker's
identity) rather than print statements, so the CLI, the benchmark harness
and tests can each render or inspect them as they like.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..protocols import protocol_factory
from ..sim.network import run_trial
from ..sim.stats import TrialSummary
from .jobs import TrialJob
from .store import FailureRecord, ResultsStore

__all__ = [
    "ExecutionProgress",
    "FaultPolicy",
    "ProcessPoolBackend",
    "RUN_HOOK_ENV",
    "SerialBackend",
    "SweepBackend",
    "TrialHang",
    "execute_jobs",
    "resolve_run_hook",
    "run_job",
    "run_job_guarded",
]

#: Observer of one completed (or cache-loaded, or quarantined) job.
ProgressListener = Callable[["ExecutionProgress"], None]

#: How a backend reports one finished job to the tracker:
#: ``report(job, cached=..., worker=..., failed=...)``.
CompletionReporter = Callable[..., None]

#: Environment variable naming a ``module:function`` trial hook.  The chaos
#: tests (and the CI chaos-smoke job) point it at a wrapper that crashes or
#: hangs selected cells; unset, trials run :func:`run_job` directly.
RUN_HOOK_ENV = "REPRO_RUN_HOOK"

#: Lines of traceback kept in a failure record — enough to diagnose, small
#: enough that a store full of quarantined cells stays readable.
_TRACEBACK_TAIL_LINES = 15


class TrialHang(RuntimeError):
    """A trial exceeded its wall-clock watchdog and was abandoned."""


@dataclass(frozen=True, slots=True)
class FaultPolicy:
    """How a backend treats a cell that hangs or raises.

    ``timeout`` is a per-trial wall-clock watchdog in seconds (``None``
    disables it); ``retries`` bounds how many times a failing trial is
    re-attempted; ``backoff`` seeds the exponential delay between attempts
    (``backoff * 2**(attempt-1)`` seconds before retry ``attempt``).  The
    policy is picklable, so pool workers enforce it locally.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")


@dataclass(frozen=True, slots=True)
class ExecutionProgress:
    """One structured progress event: a job just finished (or was loaded,
    or was quarantined after exhausting its fault policy)."""

    job: TrialJob
    completed: int  #: jobs done so far, cached and quarantined cells included
    total: int  #: jobs in this sweep
    cached: bool  #: True when the result came from the store, not a run
    elapsed: float  #: wall-clock seconds since execute_jobs started
    eta: Optional[float]  #: estimated seconds remaining (None until measurable)
    worker: Optional[str] = None  #: reporting worker's id (distributed runs)
    failed: bool = False  #: True when the job was quarantined, not completed

    @property
    def fraction(self) -> float:
        """Completed fraction in [0, 1]."""
        return self.completed / self.total if self.total else 1.0


def run_job(job: TrialJob) -> TrialSummary:
    """Run one trial job to completion (the process-pool worker function)."""
    return run_trial(job.scenario, protocol_factory(job.protocol))


def resolve_run_hook(spec: Optional[str] = None) -> Callable[[TrialJob], TrialSummary]:
    """The trial function to use: ``spec`` (or ``$REPRO_RUN_HOOK``) as
    ``module:function``, else :func:`run_job`.

    The hook must be a module-level callable taking a job and returning a
    summary — module-level so pool workers can pick it up by name.  Chaos
    tests use it to make chosen cells crash, hang or fail N times without
    patching any production path.
    """
    if spec is None:
        spec = os.environ.get(RUN_HOOK_ENV)
    if not spec:
        return run_job
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"run hook {spec!r} is not of the form 'module:function'"
        )
    return getattr(importlib.import_module(module_name), attr)


def _run_with_watchdog(
    run: Callable[[TrialJob], TrialSummary], job: TrialJob, timeout: float
) -> TrialSummary:
    """``run(job)`` bounded by ``timeout`` wall-clock seconds.

    The trial runs on a daemon thread; a hang past the deadline raises
    :class:`TrialHang` in the caller and abandons the thread (daemon threads
    die with the worker process, so a hung simulation cannot wedge a sweep —
    at worst it burns one core until its process retires).
    """
    outcome: Dict[str, object] = {}

    def target() -> None:
        try:
            outcome["summary"] = run(job)
        except BaseException as exc:  # re-raised on the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(
        target=target, name=f"trial-{job.content_key[:8]}", daemon=True
    )
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise TrialHang(
            f"trial {job.cell_label} exceeded the {timeout:g}s wall-clock watchdog"
        )
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome["summary"]  # type: ignore[return-value]


def _failure_record(
    job: TrialJob,
    exc: BaseException,
    *,
    attempts: int,
    worker: Optional[str],
    elapsed: float,
    recorded_at: float,
) -> FailureRecord:
    """A quarantine document for ``job``: what failed, how, after how long."""
    tail = traceback.format_exception(type(exc), exc, exc.__traceback__)
    trace = "".join(tail)
    lines = trace.splitlines()
    if len(lines) > _TRACEBACK_TAIL_LINES:
        lines = ["..."] + lines[-_TRACEBACK_TAIL_LINES:]
    return FailureRecord(
        key=job.content_key,
        error=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
        cell=job.cell_dict(),
        worker=worker,
        elapsed=elapsed,
        recorded_at=recorded_at,
        traceback="\n".join(lines),
    )


def run_job_guarded(
    job: TrialJob,
    *,
    policy: FaultPolicy,
    run: Optional[Callable[[TrialJob], TrialSummary]] = None,
    worker: Optional[str] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.time,
) -> Tuple[Optional[TrialSummary], Optional[FailureRecord]]:
    """Run ``job`` under ``policy``; ``(summary, None)`` or ``(None, failure)``.

    Each attempt is bounded by the policy's watchdog; an attempt that raises
    (or hangs) is retried up to ``policy.retries`` times with exponential
    backoff.  ``KeyboardInterrupt``/``SystemExit`` propagate — operator
    intent is never converted into a quarantined cell.  ``sleep`` and
    ``clock`` are injectable so tests assert the backoff sequence without
    waiting through it.
    """
    if run is None:
        run = resolve_run_hook()
    started = time.monotonic()
    failure: Optional[FailureRecord] = None
    for attempt in range(policy.retries + 1):
        if attempt:
            sleep(policy.backoff * 2 ** (attempt - 1))
        try:
            if policy.timeout is not None:
                return _run_with_watchdog(run, job, policy.timeout), None
            return run(job), None
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            failure = _failure_record(
                job,
                exc,
                attempts=attempt + 1,
                worker=worker,
                elapsed=time.monotonic() - started,
                recorded_at=clock(),
            )
    return None, failure


def _pool_run_job(
    job: TrialJob,
    policy: Optional[FaultPolicy] = None,
    run_spec: Optional[str] = None,
) -> Tuple[TrialJob, Optional[TrialSummary], Optional[FailureRecord]]:
    """Worker wrapper: run guarded, return the job with its outcome.

    Futures complete out of submission order, so each result carries its own
    identity; and a raising trial comes back as a *tagged failure record*,
    never as an exception through the future — one bad cell must not abort
    the pool's whole ``run_pending`` pass.
    """
    policy = policy if policy is not None else FaultPolicy()
    summary, failure = run_job_guarded(
        job, policy=policy, run=resolve_run_hook(run_spec)
    )
    return job, summary, failure


def _settle_outcome(
    job: TrialJob,
    summary: Optional[TrialSummary],
    failure: Optional[FailureRecord],
    outcomes: Dict[TrialJob, TrialSummary],
    *,
    store: Optional[ResultsStore],
    report: CompletionReporter,
    worker: Optional[str] = None,
) -> None:
    """Persist and report one finished job: a completed cell into the store
    and the outcome map, a failed one into quarantine."""
    if summary is not None:
        if store is not None:
            store.put(job, summary)
        outcomes[job] = summary
        report(job, cached=False, worker=worker)
        return
    if store is not None and failure is not None:
        store.put_failure(failure)
    report(job, cached=False, worker=worker, failed=True)


class _ProgressTracker:
    """Counts completions and derives ETA from the fresh-run rate only
    (cached cells are effectively free and would skew the estimate)."""

    def __init__(self, total: int, listener: Optional[ProgressListener]) -> None:
        self.total = total
        self.listener = listener
        self.completed = 0
        self.fresh_done = 0
        self.failed = 0
        self.started = time.monotonic()

    def record(
        self,
        job: TrialJob,
        *,
        cached: bool,
        worker: Optional[str] = None,
        failed: bool = False,
    ) -> None:
        self.completed += 1
        if failed:
            self.failed += 1
        elif not cached:
            self.fresh_done += 1
        if self.listener is None:
            return
        elapsed = time.monotonic() - self.started
        eta: Optional[float] = None
        remaining = self.total - self.completed
        if self.fresh_done > 0 and remaining > 0:
            eta = elapsed / self.fresh_done * remaining
        elif remaining == 0:
            eta = 0.0
        self.listener(
            ExecutionProgress(
                job=job,
                completed=self.completed,
                total=self.total,
                cached=cached,
                elapsed=elapsed,
                eta=eta,
                worker=worker,
                failed=failed,
            )
        )


class SweepBackend(ABC):
    """Strategy for running the pending (not-yet-stored) jobs of a sweep.

    :func:`execute_jobs` handles the store cache skim and progress
    accounting; a backend only decides *how* the remaining jobs run.  The
    contract every implementation must keep: settle **every** job it was
    given — completing it (running it, or — for cooperative backends —
    loading a cell some other process completed) or quarantining it with a
    persisted failure record — persist fresh results to ``store`` as they
    arrive, and call ``report(job, cached=..., worker=..., failed=...)``
    exactly once per job.  Quarantined jobs are absent from the returned
    map; their failure records live in the store.
    """

    #: The identity this backend reports in progress events; ``None`` for
    #: anonymous local backends, the worker id for distributed ones (also
    #: stamped onto the cache-skim events ``execute_jobs`` itself emits).
    worker_id: Optional[str] = None

    @abstractmethod
    def run_pending(
        self,
        jobs: Sequence[TrialJob],
        *,
        store: Optional[ResultsStore],
        report: CompletionReporter,
    ) -> Dict[TrialJob, TrialSummary]:
        """Settle every job; ``{job: summary}`` for the completed ones."""


class SerialBackend(SweepBackend):
    """Run jobs one after another in the calling process."""

    def __init__(
        self,
        *,
        policy: Optional[FaultPolicy] = None,
        run: Optional[Callable[[TrialJob], TrialSummary]] = None,
    ) -> None:
        self.policy = policy if policy is not None else FaultPolicy()
        self.run = run

    def run_pending(
        self,
        jobs: Sequence[TrialJob],
        *,
        store: Optional[ResultsStore],
        report: CompletionReporter,
    ) -> Dict[TrialJob, TrialSummary]:
        outcomes: Dict[TrialJob, TrialSummary] = {}
        run = self.run if self.run is not None else resolve_run_hook()
        for job in jobs:
            summary, failure = run_job_guarded(job, policy=self.policy, run=run)
            _settle_outcome(
                job, summary, failure, outcomes, store=store, report=report
            )
        return outcomes


class ProcessPoolBackend(SweepBackend):
    """Fan jobs out over a bounded ``ProcessPoolExecutor``.

    Trial-level faults (exceptions, watchdog hangs) are handled inside each
    worker by :func:`run_job_guarded` and come back as tagged failure
    records.  Worker-*process* death (SIGKILL, interpreter abort,
    ``MemoryError`` escalated by the OS) breaks the whole pool — every
    outstanding future raises ``BrokenProcessPool`` and the culprit cell is
    unknowable.  The recovery ladder: rebuild the pool once and re-run the
    unsettled jobs (pure functions; a transient crash costs only repeated
    work), and if the rebuilt pool breaks too, run each remaining job in its
    own single-worker pool, so the job whose worker dies is quarantined as
    ``WorkerCrashed`` while every other cell completes.
    """

    def __init__(
        self,
        workers: int,
        *,
        policy: Optional[FaultPolicy] = None,
        run_spec: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.policy = policy if policy is not None else FaultPolicy()
        # Captured at construction so the hook survives into pool workers
        # even under a spawn start method (no env inheritance assumptions).
        self.run_spec = (
            run_spec if run_spec is not None else os.environ.get(RUN_HOOK_ENV)
        )

    def run_pending(
        self,
        jobs: Sequence[TrialJob],
        *,
        store: Optional[ResultsStore],
        report: CompletionReporter,
    ) -> Dict[TrialJob, TrialSummary]:
        outcomes: Dict[TrialJob, TrialSummary] = {}
        pending: Dict[str, TrialJob] = {job.content_key: job for job in jobs}

        def settle(
            job: TrialJob,
            summary: Optional[TrialSummary],
            failure: Optional[FailureRecord],
        ) -> None:
            pending.pop(job.content_key, None)
            _settle_outcome(
                job, summary, failure, outcomes, store=store, report=report
            )

        rebuilt = False
        while pending:
            try:
                self._drain_pool(list(pending.values()), settle)
                break
            except BrokenProcessPool:
                if rebuilt:
                    # Two dead pools: stop amortising, isolate the culprit.
                    self._run_isolated(list(pending.values()), settle)
                    break
                rebuilt = True
        return outcomes

    def _drain_pool(
        self,
        jobs: Sequence[TrialJob],
        settle: Callable[
            [TrialJob, Optional[TrialSummary], Optional[FailureRecord]], None
        ],
    ) -> None:
        """One shared pool over ``jobs``, settling results as they land.

        Raises ``BrokenProcessPool`` when a worker process dies; jobs whose
        results were not settled before the crash stay pending (a done
        future skipped by the raise merely re-runs its pure job later).
        """
        max_workers = min(self.workers, len(jobs)) or 1
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(_pool_run_job, job, self.policy, self.run_spec): job
                for job in jobs
            }
            while futures:
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    job = futures.pop(future)
                    _, summary, failure = future.result()
                    settle(job, summary, failure)

    def _run_isolated(
        self,
        jobs: Sequence[TrialJob],
        settle: Callable[
            [TrialJob, Optional[TrialSummary], Optional[FailureRecord]], None
        ],
    ) -> None:
        """Last-resort pass: each job in its own single-worker pool, so a
        worker death is attributable to exactly one cell."""
        for job in jobs:
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    _, summary, failure = pool.submit(
                        _pool_run_job, job, self.policy, self.run_spec
                    ).result()
            except BrokenProcessPool:
                summary = None
                failure = FailureRecord(
                    key=job.content_key,
                    error="WorkerCrashed",
                    message=(
                        "worker process died (killed or crashed) while "
                        f"running {job.cell_label}"
                    ),
                    attempts=1,
                    cell=job.cell_dict(),
                    recorded_at=time.time(),
                )
            settle(job, summary, failure)


def execute_jobs(
    jobs: Sequence[TrialJob],
    *,
    workers: int = 1,
    store: Optional[ResultsStore] = None,
    progress: Optional[ProgressListener] = None,
    backend: Optional[SweepBackend] = None,
    policy: Optional[FaultPolicy] = None,
) -> Dict[TrialJob, TrialSummary]:
    """Run every job, returning ``{job: summary}`` for the completed cells.

    With a ``store``, cells already on disk are loaded (reported as
    ``cached=True`` progress events) and fresh results are persisted as they
    complete.  ``backend`` picks the execution strategy explicitly; when
    omitted, ``workers`` selects :class:`SerialBackend` (``<= 1``) or
    :class:`ProcessPoolBackend`, both built with ``policy`` (watchdog /
    retries / quarantine; default: fail fast with no watchdog).  Cells that
    exhaust the policy are quarantined — persisted as failure records,
    reported as ``failed=True`` events, absent from the returned map — and
    the rest of the sweep completes.  Results are independent of the backend
    and of completion order: at fixed seeds the returned map is
    bit-identical across the serial path, the pool path, distributed
    workers and the legacy monolithic loop.
    """
    if backend is None:
        backend = (
            SerialBackend(policy=policy)
            if workers <= 1
            else ProcessPoolBackend(workers, policy=policy)
        )
    tracker = _ProgressTracker(len(jobs), progress)
    outcomes: Dict[TrialJob, TrialSummary] = {}

    pending: List[TrialJob] = []
    for job in jobs:
        cached = store.get(job) if store is not None else None
        if cached is not None:
            outcomes[job] = cached
            tracker.record(job, cached=True, worker=backend.worker_id)
        else:
            pending.append(job)

    if pending:
        outcomes.update(
            backend.run_pending(pending, store=store, report=tracker.record)
        )
    return outcomes
