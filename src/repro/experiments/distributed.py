"""Leases for the sweep loop: many workers, one shared store.

The job pipeline's contract — every cell a pure function of a picklable
:class:`~repro.experiments.jobs.TrialJob`, results keyed by content hash —
is exactly what a multi-host work queue needs, and the filesystem the store
already lives on is the only coordination channel required.
:class:`DistributedBackend` is the executor's one claim → run → settle loop
with lease steps plugged in; it turns any number of ``worker`` processes
sharing one store directory (NFS mount, pod volume, plain local dir) into
one sweep:

* a worker *claims* a cell by atomically publishing
  ``claims/<key>.lease`` (temp write + ``link(2)``, which fails on an
  existing target) — of any number of racing claimants exactly one wins;
* while running the cell it *heartbeats* the lease; a worker that dies
  mid-trial leaves a lease whose heartbeat lapses past ``lease_ttl``, and
  any other worker then reclaims the cell (rename-to-graveyard settles
  reclaim races; a verify-after-claim re-read settles the rest);
* completed cells are written through the store's atomic
  one-JSON-file-per-cell path, so a killed worker never leaves a torn cell
  behind — and because cells are content-addressed and jobs deterministic,
  N workers converge on a store **cell-for-cell identical** to a serial
  run's, with zero duplicated work beyond lease races.

Workers need not even share a directory: per-worker stores of the same sweep
merge losslessly afterwards via ``python -m repro.experiments merge``.  The
science gate and trajectory tooling then run over the union, so paper-scale
confidence intervals come from the fleet, not from one nightly machine.

Time is injectable (``clock``/``sleep``) so lease expiry and reclaim races
are testable with a deterministic fake clock.
"""

from __future__ import annotations

import os
import re
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from ..sim.stats import TrialSummary
from .executor import CompletionReporter, FaultPolicy, SweepBackend
from .jobs import TrialJob
from .store import DEFAULT_LEASE_TTL, FailureRecord, ResultsStore

__all__ = [
    "DistributedBackend",
    "default_worker_id",
    "store_status",
]

#: Worker ids become filesystem names (``workers/<id>.json``,
#: ``claims/<key>.reaped-by-<id>``), so they must stay path-safe.
_WORKER_ID_PATTERN = re.compile(r"[A-Za-z0-9._-]+\Z")


def validate_worker_id(worker_id: str) -> str:
    """``worker_id`` unchanged, or ``ValueError`` if it cannot name files."""
    if not _WORKER_ID_PATTERN.match(worker_id) or worker_id in (".", ".."):
        raise ValueError(
            f"worker id {worker_id!r} is not filesystem-safe; use letters, "
            "digits, dots, dashes and underscores only"
        )
    if worker_id.endswith(".lease") or ".reaped-by-" in worker_id:
        # Would make this worker's graveyard names collide with the store's
        # lease-file naming scheme.
        raise ValueError(
            f"worker id {worker_id!r} is not filesystem-safe; it collides "
            "with the store's lease naming"
        )
    return worker_id


def default_worker_id() -> str:
    """A worker identity unique across hosts sharing one store."""
    host = re.sub(r"[^A-Za-z0-9._-]", "-", socket.gethostname()) or "host"
    return f"{host}-{os.getpid()}"


class DistributedBackend(SweepBackend):
    """The sweep loop with leases: cooperate with other workers on one store.

    Each pass of the loop re-reads the store (other workers complete cells
    at any time), adopts finished cells, and claims unclaimed missing cells
    to run — in process, or with ``jobs > 1`` over a local process pool, so
    one host contributes N cores with a single lease-polling worker.  When
    every remaining cell is leased to a live worker, the loop sleeps
    ``poll_interval`` and rescans; it returns only once it holds an outcome
    for *every* job it was given, so ``execute_jobs`` keeps its contract
    regardless of which worker ran what.
    """

    def __init__(
        self,
        worker_id: Optional[str] = None,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float = 1.0,
        heartbeat_interval: Optional[float] = None,
        jobs: int = 1,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        run: Optional[Callable[[TrialJob], TrialSummary]] = None,
        policy: Optional[FaultPolicy] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if poll_interval <= 0:
            # sleep(0) would turn the wait-for-others loop into a busy spin
            # hammering the shared directory.
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        super().__init__(jobs, policy=policy, run=run)
        self.worker_id = validate_worker_id(worker_id or default_worker_id())
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval or max(lease_ttl / 4.0, 0.05)
        self.clock = clock
        self.sleep = sleep
        self._claim_count = 0
        #: wall-clock start of the current run_pending pass; quarantine
        #: records at least this fresh (minus a lease TTL of slack) are
        #: adopted as settled instead of retried.
        self._started = 0.0
        #: ``len(ran_keys)`` when the provenance record was last written.
        self._recorded = 0
        #: key -> (stop event, thread) of each lease this worker holds.
        self._heartbeats: Dict[str, Tuple[threading.Event, threading.Thread]] = {}

    def run_pending(
        self,
        jobs: Sequence[TrialJob],
        *,
        store: Optional[ResultsStore],
        report: CompletionReporter,
    ) -> Dict[TrialJob, TrialSummary]:
        if store is None:
            raise ValueError(
                "DistributedBackend coordinates through the store; "
                "execute_jobs(..., store=...) is required"
            )
        self._started = self.clock()
        # Each worker scans from a different starting point so concurrent
        # workers mostly claim different cells instead of racing every lease.
        order = list(jobs)
        if order:
            offset = hash(self.worker_id) % len(order)
            order = order[offset:] + order[:offset]
        return super().run_pending(order, store=store, report=report)

    # -- claiming ----------------------------------------------------------------------

    def _next_nonce(self) -> str:
        self._claim_count += 1
        return f"{self.worker_id}:{self._claim_count}"

    def _claim(self, store: ResultsStore, job: TrialJob) -> bool:
        """Try to become the unique owner of ``job``'s cell.

        Atomic lease publish first; failing that, a stale lease (its worker missed
        ``lease_ttl`` of heartbeats) is reclaimed.  Either way ownership is
        only trusted after re-reading the lease and comparing the whole
        document — the re-read collapses every rename/restore race to at
        most one worker that proceeds to run.
        """
        key = job.content_key
        now = self.clock()
        nonce = self._next_nonce()
        cell = job.cell_dict()
        claim = store.try_claim(key, self.worker_id, now=now, nonce=nonce, cell=cell)
        if claim is None:
            existing = store.read_claim(key)
            if existing is None or not store.claim_is_stale(
                existing, ttl=self.lease_ttl, now=now
            ):
                return False
            claim = store.reclaim_stale(
                key,
                self.worker_id,
                ttl=self.lease_ttl,
                now=now,
                nonce=nonce,
                cell=cell,
            )
            if claim is None:
                return False
        return store.read_claim(key) == claim

    def _start_heartbeat(
        self, store: ResultsStore, key: str
    ) -> Tuple[threading.Event, threading.Thread]:
        """Keep ``key``'s lease live until the returned event is set."""
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_interval):
                if store.refresh_claim(key, self.worker_id, now=self.clock()) is None:
                    return  # lease stolen or gone; stop advertising ownership

        heartbeat = threading.Thread(
            target=beat, name=f"heartbeat-{self.worker_id}-{key}", daemon=True
        )
        heartbeat.start()
        return stop, heartbeat

    def _adopt_failure(
        self, store: ResultsStore, job: TrialJob
    ) -> Optional[FailureRecord]:
        """Another worker's *fresh* quarantine of this cell, to adopt as settled.

        A record written within this pass (with a lease TTL of clock slack)
        means a peer just exhausted the fault policy on the cell — re-running
        it here would likely fail the same way and would double-count the
        failure.  Older records are from a previous run: ``resume`` semantics
        say retry those, so they are ignored and the cell is claimed anew
        (a success then clears the record via ``store.put``).
        """
        record = store.get_failure(job.content_key)
        if record is None or record.recorded_at < self._started - self.lease_ttl:
            return None
        return record

    def reap_abandoned(self, store: ResultsStore) -> int:
        """Housekeeping: remove every lease whose owner's heartbeat lapsed.

        Covers leases the claim step itself never revisits — above all a
        worker that died *between* writing its cell and releasing the lease,
        whose completed cell other workers adopt straight from the store
        cache skim — plus graveyard litter from reapers that died mid-reap.
        Returns the number of leases reaped.
        """
        now = self.clock()
        reaped = 0
        for key, claim in store.claims().items():
            if store.claim_is_stale(claim, ttl=self.lease_ttl, now=now):
                if store.reap_stale_lease(
                    key, self.worker_id, ttl=self.lease_ttl, now=now
                ):
                    reaped += 1
        store.reap_graveyard(ttl=self.lease_ttl, now=now)
        return reaped

    # -- the lease steps the sweep loop calls ------------------------------------------

    def _housekeep(self, store: ResultsStore) -> None:
        if len(self.ran_keys) > self._recorded:
            # Provenance for `status`, refreshed once per pass — per cell it
            # would rewrite a growing list (O(n^2) bytes) onto the shared
            # filesystem for a purely cosmetic record.
            store.record_worker_cells(self.worker_id, self.ran_keys, now=self.clock())
            self._recorded = len(self.ran_keys)
        store.invalidate_key_cache()
        # Tidy abandoned leases — including ones for cells that are already
        # complete (their dead owner never released), which the claim step
        # would otherwise never look at again.
        self.reap_abandoned(store)

    def _adopt(
        self, store: ResultsStore, job: TrialJob
    ) -> Optional[Union[TrialSummary, FailureRecord]]:
        failure = self._adopt_failure(store, job)
        return failure if failure is not None else store.get(job)

    def _acquire(self, store: ResultsStore, job: TrialJob) -> bool:
        if not self._claim(store, job):
            return False
        if store.get(job) is not None:
            # Completed in the window between the loop's store read and the
            # claim (safe to trust: every runner publishes before releasing);
            # the next pass adopts it.
            store.release_claim(job.content_key, self.worker_id)
            return False
        self._heartbeats[job.content_key] = self._start_heartbeat(
            store, job.content_key
        )
        return True

    def _release(self, store: ResultsStore, key: str) -> None:
        stop, heartbeat = self._heartbeats.pop(key)
        stop.set()
        heartbeat.join()
        store.release_claim(key, self.worker_id)

    def _wait_for_peers(self) -> None:
        # Everything left is leased to someone alive; wait for cells to land
        # (or for a lease to go stale) and rescan.
        self.sleep(self.poll_interval)


def store_status(
    store: ResultsStore,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """A structured snapshot of a (possibly shared) store: cells complete and
    torn, live/stale claims, and per-worker completion counts.

    Backs ``python -m repro.experiments status``; reads every planned cell,
    so torn files are detected, not just counted as present.
    """
    now = time.time() if now is None else now
    meta = store.require_meta()
    jobs = store.planned_jobs()
    store.invalidate_key_cache()
    planned = {job.content_key: job for job in jobs}
    completed = sum(1 for job in jobs if store.get(job) is not None)

    failures = []
    for key, record in store.failure_records().items():
        job = planned.get(key)
        failures.append(
            {
                "key": key,
                "error": record.error,
                "message": record.message,
                "attempts": record.attempts,
                "worker": record.worker,
                "label": job.cell_label if job is not None else None,
            }
        )

    claims = []
    for key, claim in sorted(store.claims().items()):
        heartbeat = claim.get("heartbeat", claim.get("claimed_at"))
        job = planned.get(key)
        claims.append(
            {
                "key": key,
                "worker": claim.get("worker"),
                "cell": claim.get("cell"),
                "label": job.cell_label if job is not None else None,
                "age": None if heartbeat is None else max(0.0, now - heartbeat),
                "stale": store.claim_is_stale(claim, ttl=lease_ttl, now=now),
                # A lease for a cell already on disk (or planned by no job):
                # its worker died between put and release; reapable noise.
                "orphaned": job is None or job in store,
            }
        )

    workers = []
    for worker_id, record in sorted(store.worker_records().items()):
        keys = [k for k in record.get("completed", ()) if k in planned]
        workers.append(
            {
                "worker": worker_id,
                "completed": len(keys),
                "updated": record.get("updated"),
            }
        )

    return {
        "root": store.root.as_posix(),
        "scale": meta["scale"],
        "planned_cells": len(jobs),
        "completed_cells": completed,
        "torn_cells": store.torn_keys(),
        "failed_cells": failures,
        "claims": claims,
        "workers": workers,
    }
