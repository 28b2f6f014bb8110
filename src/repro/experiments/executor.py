"""The one claim → run → settle loop every sweep runs through.

Every :class:`~repro.experiments.jobs.TrialJob` is a pure function of its own
fields, so a sweep is free to run jobs in any order and on any worker: the
result map is keyed by job, and the assembled
:class:`~repro.experiments.runner.SweepResults` is bit-identical however it
ran.  :func:`execute_jobs` is the single entry point and
:class:`SweepBackend` the single loop:

* at ``workers=1`` each cell runs in the calling process
  (:class:`SerialBackend` is that case by name);
* at ``workers > 1`` cells run in a bounded process pool and settle as they
  complete;
* :class:`~repro.experiments.distributed.DistributedBackend` (own module)
  adds leases to the same loop, so N processes on N hosts work-steal cells
  from one shared store.

An optional :class:`~repro.experiments.store.ResultsStore` makes a run
persistent and resumable: completed cells are loaded instead of re-run, and
every fresh result is written to disk the moment it arrives, so an
interrupted sweep loses at most the cells in flight.

A sweep must also survive its *cells* failing.  :class:`FaultPolicy` bounds
each trial with a wall-clock watchdog and retries transient errors with
exponential backoff; a cell that still cannot complete is *quarantined* — a
structured :class:`~repro.experiments.store.FailureRecord` is persisted to
the store's ``failures/`` directory and the sweep continues with the other
cells.  The pool extends the same guarantee to worker *processes*: a pool
broken by a killed or crashed worker is rebuilt once (the crash may be
unrelated to any one cell), and if it breaks again the remaining cells run
one at a time in a one-worker pool so exactly the poisonous cell is
quarantined while every other cell completes — with or without leases.

Progress is reported as structured :class:`ExecutionProgress` events
(completed/total, cache hit or fresh run or quarantined failure, wall-clock
elapsed, a simple ETA and — for distributed runs — the reporting worker's
identity) rather than print statements, so the CLI, the benchmark harness
and tests can each render or inspect them as they like.
"""

from __future__ import annotations

import importlib
import math
import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..protocols import protocol_factory
from ..sim.network import run_trial
from ..sim.stats import TrialSummary
from .jobs import TrialJob
from .store import FailureRecord, ResultsStore

__all__ = [
    "ExecutionProgress",
    "FaultPolicy",
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
        for name in ("timeout", "retries", "backoff"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
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


#: One settled cell: ``(job, summary, None)`` or ``(job, None, failure)``.
Settled = Tuple[TrialJob, Optional[TrialSummary], Optional[FailureRecord]]


class _InProcessRunner:
    """Runs each cell the moment it is submitted, in the calling process, so
    ``run`` may be any callable (a lambda, a traced wrapper)."""

    def __init__(self, guard: Dict[str, object]) -> None:
        self.guard = guard
        self.done: List[Settled] = []

    @property
    def full(self) -> bool:
        return bool(self.done)

    def submit(self, job: TrialJob) -> None:
        self.done.append((job, *run_job_guarded(job, **self.guard)))

    def collect(self, timeout: Optional[float]) -> List[Settled]:
        done, self.done = self.done, []
        return done

    def close(self) -> None:
        pass


class _PoolRunner:
    """Runs cells in a bounded process pool, settling them as they finish.

    Trial-level faults come back from the worker as failure records.  A
    worker *process* dying (SIGKILL, interpreter abort) breaks the whole pool
    and hides which cell killed it, so the runner climbs a ladder: rebuild
    the pool once and re-run the cells it lost (they are pure; a transient
    crash costs only repeated work); if that pool breaks too, run one cell at
    a time in a one-worker pool, so the cell whose worker dies is settled as
    ``WorkerCrashed`` while every other cell completes.
    """

    def __init__(self, workers: int, guard: Dict[str, object]) -> None:
        self.workers = workers
        self.guard = guard
        self.pool: Optional[ProcessPoolExecutor] = None
        self.futures: Dict[Future, TrialJob] = {}
        self.lost: List[TrialJob] = []  #: cells of a broken pool, to re-run
        self.breaks = 0

    @property
    def _capacity(self) -> int:
        return 1 if self.breaks > 1 else self.workers

    @property
    def full(self) -> bool:
        return len(self.futures) + len(self.lost) >= self._capacity

    def submit(self, job: TrialJob) -> None:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self._capacity)
        self.futures[self.pool.submit(run_job_guarded, job, **self.guard)] = job

    def collect(self, timeout: Optional[float]) -> List[Settled]:
        """Cells that finished, waiting up to ``timeout`` seconds for the
        first one (``None``: until one does; nothing in flight: none)."""
        while self.lost and len(self.futures) < self._capacity:
            self.submit(self.lost.pop(0))
        if not self.futures:
            return []
        done, _ = wait(self.futures, timeout=timeout, return_when=FIRST_COMPLETED)
        settled: List[Settled] = []
        crashed: List[TrialJob] = []

        def reap(future: Future) -> None:
            job = self.futures.pop(future)
            try:
                settled.append((job, *future.result()))
            except BrokenProcessPool:
                crashed.append(job)

        for future in done:
            reap(future)
        if crashed:
            # The pool is dead; once it is shut down every other future of
            # it has either a result (it finished first) or the same break.
            self.pool.shutdown(wait=True)
            self.pool = None
            for future in list(self.futures):
                reap(future)
            if self.breaks > 1:  # alone in its pool: this cell killed it
                settled.extend(
                    (job, None, self._worker_crashed(job)) for job in crashed
                )
            else:
                self.breaks += 1
                self.lost.extend(crashed)
        return settled

    def _worker_crashed(self, job: TrialJob) -> FailureRecord:
        return FailureRecord(
            key=job.content_key,
            error="WorkerCrashed",
            message=(
                "worker process died (killed or crashed) while "
                f"running {job.cell_label}"
            ),
            attempts=1,
            cell=job.cell_dict(),
            worker=self.guard["worker"],
            recorded_at=time.time(),
        )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)


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


class SweepBackend:
    """Runs the pending (not-yet-stored) jobs of a sweep through the one
    claim → run → settle loop.

    :func:`execute_jobs` handles the store cache skim and progress
    accounting; the loop settles **every** job it is given — completing it
    (running it, or adopting a cell a peer completed) or quarantining it with
    a persisted failure record — persists fresh results to ``store`` as they
    arrive, and calls ``report(job, cached=..., worker=..., failed=...)``
    exactly once per job.  Quarantined jobs are absent from the returned map.

    ``workers=1`` runs each cell in the calling process, so ``run`` may be
    any callable; ``workers > 1`` runs cells in a process pool (``run`` must
    then pickle: a module-level function).  ``run=None`` resolves
    ``$REPRO_RUN_HOOK``, else :func:`run_job`.

    The loop calls five lease steps — ``_housekeep``, ``_adopt``,
    ``_acquire``, ``_release`` and ``_wait_for_peers``.  A local run holds no
    leases, so here they do nothing;
    :class:`~repro.experiments.distributed.DistributedBackend` implements
    them over the store's lease files.
    """

    #: The identity this backend reports in progress events; ``None`` for
    #: local runs, the worker id for distributed ones (also stamped onto the
    #: cache-skim events ``execute_jobs`` itself emits).
    worker_id: Optional[str] = None

    def __init__(
        self,
        workers: int = 1,
        *,
        policy: Optional[FaultPolicy] = None,
        run: Optional[Callable[[TrialJob], TrialSummary]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker processes (jobs) must be >= 1, got {workers}")
        self.workers = workers
        self.policy = policy if policy is not None else FaultPolicy()
        self.run = run
        #: content keys of the cells this backend ran itself, in order.
        self.ran_keys: List[str] = []

    def run_pending(
        self,
        jobs: Sequence[TrialJob],
        *,
        store: Optional[ResultsStore],
        report: CompletionReporter,
    ) -> Dict[TrialJob, TrialSummary]:
        """Settle every job; ``{job: summary}`` for the completed ones."""
        outcomes: Dict[TrialJob, TrialSummary] = {}
        unclaimed: Dict[str, TrialJob] = {job.content_key: job for job in jobs}
        running: Set[str] = set()
        guard: Dict[str, object] = {
            "policy": self.policy,
            "run": self.run if self.run is not None else resolve_run_hook(),
            "worker": self.worker_id,
        }
        runner = (
            _InProcessRunner(guard)
            if self.workers == 1
            else _PoolRunner(min(self.workers, len(jobs)) or 1, guard)
        )

        def finish(job: TrialJob, summary: Optional[TrialSummary], ran: bool) -> None:
            if summary is not None:
                outcomes[job] = summary
                if ran:
                    self.ran_keys.append(job.content_key)
            report(
                job,
                cached=summary is not None and not ran,
                worker=self.worker_id,
                failed=summary is None,
            )

        def settle(settled: List[Settled]) -> None:
            for job, summary, failure in settled:
                # Publish before releasing: a peer that acquires the lease
                # next re-checks the store and trusts a released cell to be
                # settled on disk, completed or quarantined.
                try:
                    if store is not None:
                        if summary is not None:
                            store.put(job, summary)
                        else:
                            store.put_failure(failure)
                finally:
                    running.discard(job.content_key)
                    self._release(store, job.content_key)
                finish(job, summary, ran=True)

        try:
            while True:
                self._housekeep(store)
                if not unclaimed and not running:
                    return outcomes
                unclaimed_before = len(unclaimed)
                for key, job in list(unclaimed.items()):
                    peer = self._adopt(store, job)
                    if peer is not None:
                        del unclaimed[key]
                        summary = peer if isinstance(peer, TrialSummary) else None
                        finish(job, summary, ran=False)
                        continue
                    while runner.full:
                        settle(runner.collect(None))
                    if not self._acquire(store, job):
                        continue
                    del unclaimed[key]
                    running.add(key)
                    runner.submit(job)
                    settle(runner.collect(0))
                settle(runner.collect(None))
                if unclaimed and not running and len(unclaimed) == unclaimed_before:
                    self._wait_for_peers()
        finally:
            try:
                runner.close()
            finally:
                for key in running:
                    self._release(store, key)

    # -- lease steps: a local run holds no leases -----------------------------------

    def _housekeep(self, store: Optional[ResultsStore]) -> None:
        """Lease upkeep, before each pass over the unclaimed cells and once
        after the last cell settles."""

    def _adopt(
        self, store: Optional[ResultsStore], job: TrialJob
    ) -> Optional[Union[TrialSummary, FailureRecord]]:
        """A peer's settled outcome for ``job``, or ``None`` if it is open."""
        return None

    def _acquire(self, store: Optional[ResultsStore], job: TrialJob) -> bool:
        """Become the one worker to run ``job`` (``False``: a peer has it)."""
        return True

    def _release(self, store: Optional[ResultsStore], key: str) -> None:
        """Give up the cell acquired for ``key`` (after publishing it)."""

    def _wait_for_peers(self) -> None:
        """Nothing could be done this pass: every open cell is a peer's."""


class SerialBackend(SweepBackend):
    """The loop at one worker: cells run in order in the calling process."""

    def __init__(
        self,
        *,
        policy: Optional[FaultPolicy] = None,
        run: Optional[Callable[[TrialJob], TrialSummary]] = None,
    ) -> None:
        super().__init__(1, policy=policy, run=run)


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
    complete.  ``backend`` picks the backend explicitly; when omitted, it is
    a :class:`SweepBackend` of ``workers`` built with ``policy`` (watchdog /
    retries / quarantine; default: fail fast with no watchdog).  Cells that
    exhaust the policy are quarantined — persisted as failure records,
    reported as ``failed=True`` events, absent from the returned map — and
    the rest of the sweep completes.  Results are independent of the backend
    and of completion order: at fixed seeds the returned map is
    bit-identical in process, in a pool and across distributed workers.
    """
    if backend is None:
        backend = SweepBackend(workers, policy=policy)
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

    # Called even with nothing pending: a distributed worker's lease
    # housekeeping runs at the end of every sweep it joins.
    outcomes.update(backend.run_pending(pending, store=store, report=tracker.record))
    return outcomes
