"""JSON-on-disk results store: completed trial cells survive interruption.

A paper-scale sweep is 400 independent 900 s simulations; killing it at cell
399 must not cost the first 398.  :class:`ResultsStore` persists each completed
:class:`~repro.experiments.jobs.TrialJob` as one small JSON file named by the
job's content key, so a re-planned sweep (same parameters -> same keys) reuses
every completed cell and only the missing ones run.  One-file-per-cell keeps
the store crash-safe without locking: files are written to a temp name and
atomically renamed, so a store never contains a half-written cell.  A cell
that *is* truncated or unparsable (a torn artifact download, a foreign
writer) is treated as missing — reported via :meth:`torn_keys` and a
``TornCellWarning`` — never as a crash.

Since the distributed backend (PR 4), a store is also the coordination
surface for several concurrent writers: ``claims/<key>.lease`` files record
which worker owns which in-flight cell (published atomically via ``link(2)``
so exactly one claimant wins; refreshed by heartbeat; reclaimed once stale), and
``workers/<id>.json`` records which worker completed which cells, for the
``status`` subcommand.  Leases and worker records are bookkeeping only: cell
files never mention the worker that wrote them, so N workers converge on a
store byte-identical to a serial run's.

Since the fault boundary (PR 6), a store also quarantines cells that
repeatedly fail to run: ``failures/<key>.json`` holds a structured
:class:`FailureRecord` describing what went wrong (exception, watchdog
timeout, worker crash), so a sweep *completes* around a poisoned cell instead
of dying on it.  A successful :meth:`put` for the key clears the quarantine —
re-running the sweep retries exactly the failed cells.

Layout::

    <root>/
        sweep.json         sweep-level metadata (scale, scenario, protocols, ...)
        results.json       optional SweepResults dump written after a full run
        jobs/<key>.json    {"version", "job": {...}, "summary": {...}} per cell
        claims/<key>.lease {"worker", "claimed_at", "heartbeat", ...} in-flight
        workers/<id>.json  {"worker", "completed": [keys], "updated"} provenance
        failures/<key>.json {"version", "failure": {...}} quarantined cells
"""

from __future__ import annotations

import json
import os
import uuid
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from ..sim.stats import TrialSummary
from .jobs import TrialJob, plan_sweep

if TYPE_CHECKING:  # import cycle guard: runner -> executor -> store
    from .runner import SweepResults

__all__ = [
    "FailureRecord",
    "ResultsStore",
    "StoreVersionError",
    "TornCellWarning",
]

#: Bumped whenever stored cells stop being comparable with freshly simulated
#: ones.  Tuning is not part of a cell's content key, so a change of the
#: simulated *model* has no other way to keep old and new cells apart.
STORE_VERSION = 2

#: Why each earlier version's cells cannot be read, for the error message.
_RETIRED_VERSIONS = {
    1: "its cells were simulated under the polling MAC model retired in "
    "PR 12 and share content keys with the current model's cells, so they "
    "cannot be mixed",
}


class StoreVersionError(ValueError):
    """A store document written under a different :data:`STORE_VERSION`."""


def _require_current_version(path: Path, data: Any) -> None:
    version = data.get("version") if isinstance(data, dict) else None
    if version == STORE_VERSION:
        return
    # Garbage versions may be unhashable; only ints name a retired version.
    reason = _RETIRED_VERSIONS.get(version) if type(version) is int else None
    raise StoreVersionError(
        f"{path} was written by an incompatible store version "
        f"({version!r}; this code reads {STORE_VERSION})"
        + (f": {reason}" if reason else "")
        + "; re-run the sweep into a fresh directory"
    )


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """Why one trial cell could not be completed (quarantine document).

    Produced by the executor's fault boundary after retries are exhausted and
    persisted under ``failures/<key>.json``; ``status``/``report`` surface
    these, and a later successful run of the cell clears the record.
    """

    key: str  #: the job's content key
    error: str  #: exception class name ("TrialHang", "MemoryError", ...)
    message: str  #: stringified exception, truncated
    attempts: int  #: how many times the cell was tried before quarantine
    cell: Dict[str, Any] = field(default_factory=dict)  #: human-readable cell id
    worker: Optional[str] = None  #: reporting worker (distributed runs)
    elapsed: float = 0.0  #: wall-clock seconds spent across all attempts
    recorded_at: float = 0.0  #: wall-clock timestamp of the quarantine
    traceback: str = ""  #: tail of the formatted traceback, for debugging

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict of every field."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureRecord":
        """Rebuild a record written by :meth:`to_dict` (unknown keys ignored)."""
        names = {f.name for f in fields(cls)}
        return cls(**{name: data[name] for name in names if name in data})


class TornCellWarning(UserWarning):
    """A cell file existed but held truncated/invalid JSON; treated as missing."""


def _tmp_name(path: Path) -> Path:
    """A writer-unique temp sibling of ``path``.

    PIDs alone are not unique across the hosts that share a distributed
    store (PID spaces are per-host), so two fleet writers with colliding
    PIDs could interleave one temp file; the uuid makes the name unique
    everywhere."""
    return path.with_suffix(path.suffix + f".tmp{os.getpid()}-{uuid.uuid4().hex[:8]}")


def _atomic_write_json(path: Path, data: Any) -> None:
    """Write JSON to ``path`` via a temp file + rename, so readers never see a
    partial file and a killed writer leaves no corrupt cell behind.

    Compact on purpose: any ``indent`` takes ``json`` off its C encoder, which
    was a third of a 4 000-cell merge.  Readers parse, so stores written
    indented by earlier revisions read the same."""
    tmp = _tmp_name(path)
    tmp.write_text(
        json.dumps(data, sort_keys=True, separators=(",", ":")), encoding="utf-8"
    )
    os.replace(tmp, path)


class ResultsStore:
    """A directory of per-job trial summaries keyed by job content hash."""

    def __init__(self, root: os.PathLike | str) -> None:
        # No mkdir here: read-only uses (report/resume on a mistyped path)
        # must not litter empty directories. Writers create lazily.
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.workers_dir = self.root / "workers"
        self.failures_dir = self.root / "failures"
        self.meta_path = self.root / "sweep.json"
        self.results_path = self.root / "results.json"
        # Key-set cache: the cell directory is scanned once per instance, not
        # once per completed_keys()/missing() call (a 1k-cell store makes that
        # scan the hot path of every resume/status poll).  `put` keeps it
        # current; concurrent *other* writers need invalidate_key_cache().
        self._key_cache: Optional[Set[str]] = None
        self._torn: Set[str] = set()
        # The re-planned sweep, built once per instance: merge, diff, resume
        # and report each walk it, and planning hashes every job's scenario.
        self._planned: Optional[List[TrialJob]] = None

    # -- per-cell results ------------------------------------------------------------

    def _cell_path(self, key: str) -> Path:
        return self.jobs_dir / f"{key}.json"

    def put(self, job: TrialJob, summary: TrialSummary) -> None:
        """Persist one completed cell (atomic; safe under concurrent writers
        because every job has a distinct key)."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(
            self._cell_path(job.content_key),
            {
                "version": STORE_VERSION,
                "job": job.to_dict(),
                "summary": summary.to_dict(),
            },
        )
        if self._key_cache is not None:
            self._key_cache.add(job.content_key)
        self._torn.discard(job.content_key)
        # Success supersedes quarantine: a completed cell is not failed.
        self.clear_failure(job.content_key)

    def get(self, job: TrialJob) -> Optional[TrialSummary]:
        """The stored summary for ``job``, or ``None`` if the cell is missing.

        A cell file that exists but cannot be parsed (truncated by a torn
        download, written by something other than :meth:`put`) counts as
        missing too: it is recorded in :meth:`torn_keys`, a
        :class:`TornCellWarning` is emitted once, and the caller re-runs the
        job — required for crash-safe distributed writers, where a reader
        must never die on a cell another host is responsible for.
        """
        path = self._cell_path(job.content_key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._mark_torn(job.content_key, path, repr(exc))
            return None
        _require_current_version(path, data)
        try:
            summary = TrialSummary.from_dict(data["summary"])
        except (KeyError, TypeError) as exc:
            self._mark_torn(job.content_key, path, repr(exc))
            return None
        if self._key_cache is not None:
            self._key_cache.add(job.content_key)
        self._torn.discard(job.content_key)
        return summary

    def _mark_torn(self, key: str, path: Path, reason: str) -> None:
        if key not in self._torn:
            warnings.warn(
                f"cell {path} is torn ({reason}); treating it as missing",
                TornCellWarning,
                stacklevel=3,
            )
        self._torn.add(key)
        if self._key_cache is not None:
            self._key_cache.discard(key)

    def __contains__(self, job: TrialJob) -> bool:
        return job.content_key in self._keys()

    def _keys(self) -> Set[str]:
        if self._key_cache is None:
            self._key_cache = {
                p.stem for p in self.jobs_dir.glob("*.json")
            } - self._torn
        return self._key_cache

    def completed_keys(self) -> List[str]:
        """Content keys of every completed cell on disk (cached per instance;
        see :meth:`invalidate_key_cache` for multi-writer refresh)."""
        return sorted(self._keys())

    def missing(self, jobs: Sequence[TrialJob]) -> List[TrialJob]:
        """The subset of ``jobs`` without a stored result, in input order."""
        return [job for job in jobs if job not in self]

    def invalidate_key_cache(self) -> None:
        """Drop the cached key set so the next query re-scans the directory.

        Call between polls when *other* processes write cells into the same
        store (the distributed backend does, once per steal cycle); a
        single-writer store never needs it.
        """
        self._key_cache = None

    def torn_keys(self) -> List[str]:
        """Keys of cells found torn (unparsable) so far, by this instance."""
        return sorted(self._torn)

    # -- quarantined cells -------------------------------------------------------------

    def _failure_path(self, key: str) -> Path:
        return self.failures_dir / f"{key}.json"

    def put_failure(self, record: FailureRecord) -> None:
        """Quarantine a cell: persist why it could not be completed (atomic)."""
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(
            self._failure_path(record.key),
            {"version": STORE_VERSION, "failure": record.to_dict()},
        )

    def get_failure(self, key: str) -> Optional[FailureRecord]:
        """The quarantine record for ``key``, or ``None`` (torn = missing)."""
        try:
            data = json.loads(self._failure_path(key).read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) or not isinstance(data.get("failure"), dict):
            return None
        try:
            return FailureRecord.from_dict(data["failure"])
        except TypeError:
            return None

    def clear_failure(self, key: str) -> None:
        """Remove ``key``'s quarantine record, if any."""
        try:
            self._failure_path(key).unlink()
        except FileNotFoundError:
            pass

    def failure_keys(self) -> List[str]:
        """Content keys of every quarantined cell, sorted."""
        return sorted(p.stem for p in self.failures_dir.glob("*.json"))

    def failure_records(self) -> Dict[str, FailureRecord]:
        """``{content key: record}`` for every readable quarantine document."""
        records: Dict[str, FailureRecord] = {}
        for key in self.failure_keys():
            record = self.get_failure(key)
            if record is not None:
                records[key] = record
        return records

    # -- sweep-level metadata ----------------------------------------------------------

    def write_meta(
        self,
        *,
        scale: str,
        scenario,
        protocols: Sequence[str],
        pause_times: Sequence[float],
        trials: int,
    ) -> None:
        """Record the sweep's parameters so ``resume``/``report`` need no CLI args."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._planned = None
        _atomic_write_json(
            self.meta_path,
            {
                "version": STORE_VERSION,
                "scale": scale,
                "scenario": scenario.to_dict(),
                "protocols": list(protocols),
                "pause_times": list(pause_times),
                "trials": trials,
            },
        )

    def ensure_meta(
        self,
        *,
        scale: str,
        scenario,
        protocols: Sequence[str],
        pause_times: Sequence[float],
        trials: int,
    ) -> None:
        """Write the metadata, or validate it against an existing sweep.

        Guards every writer against silently clobbering a store that holds a
        *different* sweep — overwritten metadata would re-plan fewer/other
        cells and orphan completed results.  Raises ``ValueError`` when the
        directory already records different parameters.  Safe under
        concurrent identical writers (several ``worker`` processes starting
        against one fresh shared store): the write is atomic and the content
        deterministic, so racing writers produce the same bytes.  Racing
        writers with *different* parameters would otherwise both see an
        empty directory and both "win", so after writing we re-read and
        compare — the loser of the last-write race gets the same
        ``ValueError`` a late arrival would (a sub-millisecond window where
        both re-reads precede the second write remains; nothing short of
        real locks closes it).
        """
        requested = (
            scenario.to_dict(),
            list(protocols),
            list(pause_times),
            trials,
        )
        if self.read_meta() is None:
            self.write_meta(
                scale=scale,
                scenario=scenario,
                protocols=protocols,
                pause_times=pause_times,
                trials=trials,
            )
        meta = self.require_meta()
        recorded = self.meta_fingerprint()
        if recorded != requested:
            raise ValueError(
                f"{self.root} already holds a different sweep "
                f"(scale {meta['scale']!r}); use a fresh directory or "
                "resume the existing sweep"
            )

    def adopt_meta(self, meta: Dict[str, Any]) -> None:
        """Write a metadata document verbatim (used when a merge destination
        inherits the sweep identity of its first source)."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._planned = None
        _atomic_write_json(self.meta_path, meta)

    def read_meta(self) -> Optional[Dict[str, Any]]:
        """The sweep metadata, or ``None`` for a directory with no ``sweep.json``.

        Raises :class:`StoreVersionError` for a ``sweep.json`` of another
        version (or none: a foreign document), so every reader and writer —
        all of which start here — fails closed before touching a cell.
        """
        try:
            meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        _require_current_version(self.meta_path, meta)
        return meta

    def require_meta(self) -> Dict[str, Any]:
        """Like :meth:`read_meta` but raises for a directory with no sweep."""
        meta = self.read_meta()
        if meta is None:
            raise FileNotFoundError(
                f"{self.meta_path} does not exist; "
                f"{self.root} is not a sweep results store"
            )
        return meta

    # -- work claims (distributed workers) ---------------------------------------------

    def _lease_path(self, key: str) -> Path:
        return self.claims_dir / f"{key}.lease"

    def try_claim(
        self,
        key: str,
        worker_id: str,
        *,
        now: float,
        nonce: Optional[str] = None,
        cell: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Atomically claim ``key`` for ``worker_id``; the claim dict on
        success, ``None`` when another worker already holds the lease.

        The lease appears atomically: the document is written to a private
        temp file and ``os.link``ed to the lease path, so of any number of
        racing claimants exactly one wins (link fails on an existing target)
        and no reader ever observes a partially-written lease — which
        matters because a torn lease counts as *immediately* stale.
        ``nonce`` should be unique per claim attempt (the winner re-reads
        the lease and compares the whole document before running; see
        ``DistributedBackend``), and ``cell`` carries the job's
        human-readable identity for ``status`` output.
        """
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        claim = {
            "version": STORE_VERSION,
            "worker": worker_id,
            "claimed_at": now,
            "heartbeat": now,
            "nonce": nonce,
            "cell": cell,
        }
        tmp = _tmp_name(self._lease_path(key))
        tmp.write_text(json.dumps(claim, sort_keys=True), encoding="utf-8")
        try:
            os.link(tmp, self._lease_path(key))
        except FileExistsError:
            return None
        except FileNotFoundError:
            # Our tmp file vanished under us (an aggressive cleaner on the
            # shared dir); treat the claim as lost, never as an error.
            return None
        finally:
            tmp.unlink(missing_ok=True)
        return claim

    def read_claim(self, key: str) -> Optional[Dict[str, Any]]:
        """The lease document for ``key``, ``None`` when unclaimed, ``{}``
        when the lease file itself is torn (a killed writer; reclaimable)."""
        try:
            data = json.loads(self._lease_path(key).read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def refresh_claim(
        self, key: str, worker_id: str, *, now: float
    ) -> Optional[Dict[str, Any]]:
        """Heartbeat: advance our lease's timestamp; the refreshed claim, or
        ``None`` when the lease is gone or no longer ours (stolen as stale —
        the caller should stop assuming ownership)."""
        claim = self.read_claim(key)
        if not claim or claim.get("worker") != worker_id:
            return None
        claim["heartbeat"] = now
        _atomic_write_json(self._lease_path(key), claim)
        return claim

    def release_claim(self, key: str, worker_id: str) -> None:
        """Drop our lease on ``key`` (a lease someone else now holds is kept)."""
        claim = self.read_claim(key)
        if claim is not None and claim.get("worker") == worker_id:
            try:
                self._lease_path(key).unlink()
            except FileNotFoundError:
                pass

    @staticmethod
    def claim_is_stale(
        claim: Optional[Dict[str, Any]], *, ttl: float, now: float
    ) -> bool:
        """Whether a lease's owner has missed its heartbeat for over ``ttl``
        seconds (a torn lease ``{}`` is immediately stale).

        The heartbeat was stamped by the *owner's* clock and ``now`` comes
        from the reader's, so multi-host fleets assume wall clocks agree to
        well within the TTL (NTP is plenty for the 60 s default; raise
        ``--lease-ttl`` if your hosts drift more).  Skew beyond the TTL
        makes live leases look abandoned — cells get re-run (duplicated
        deterministic work), never corrupted.
        """
        if claim is None:
            return False
        heartbeat = claim.get("heartbeat", claim.get("claimed_at"))
        if heartbeat is None:
            return True
        return (now - heartbeat) > ttl

    def reap_stale_lease(
        self, key: str, worker_id: str, *, ttl: float, now: float
    ) -> bool:
        """Remove ``key``'s lease if its owner's heartbeat lapsed; True when
        this call removed it.

        Race-safe without locks: the stale lease is first *renamed* to a
        claimant-unique graveyard name — of several racing reapers only one
        rename succeeds, the rest get ``FileNotFoundError`` — and the moved
        document is re-checked for staleness before deletion.  If the rename
        yanked a lease that turned out to be live (its owner refreshed
        between our read and our rename), it is put back.
        """
        claim = self.read_claim(key)
        if claim is None or not self.claim_is_stale(claim, ttl=ttl, now=now):
            return False
        lease = self._lease_path(key)
        grave = self.claims_dir / f"{key}.reaped-by-{worker_id}"
        try:
            os.rename(lease, grave)
        except FileNotFoundError:
            return False
        try:
            moved = json.loads(grave.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            moved = {}
        if isinstance(moved, dict) and not self.claim_is_stale(
            moved, ttl=ttl, now=now
        ):
            # We raced a fresh claimant; restore their lease and back off.
            # (If yet another claimant created a new lease in the gap, the
            # restore overwrites it with the live document we displaced —
            # the verify-after-claim step in the backend resolves who runs.)
            os.replace(grave, lease)
            return False
        grave.unlink(missing_ok=True)
        return True

    def reclaim_stale(
        self,
        key: str,
        worker_id: str,
        *,
        ttl: float,
        now: float,
        nonce: Optional[str] = None,
        cell: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Take over a stale lease; the new claim on success, else ``None``.

        :meth:`reap_stale_lease` settles which of several racing reclaimers
        gets to delete the stale lease; the winner then claims the freed key
        via :meth:`try_claim` (which can still lose to a third worker that
        links a new lease in the gap — callers must treat ``None`` as "someone
        else owns it now").
        """
        if not self.reap_stale_lease(key, worker_id, ttl=ttl, now=now):
            return None
        return self.try_claim(key, worker_id, now=now, nonce=nonce, cell=cell)

    def reap_graveyard(self, *, ttl: float, now: float) -> int:
        """Delete leftover ``*.reaped-by-*`` files from reapers that died
        between their rename and unlink; the number removed.

        Only graves whose *content* is stale (or unreadable) are deleted: a
        grave holding a live document belongs to a reaper that just yanked a
        refreshed lease and is about to restore it — leave it alone.
        (``*.lease.tmp*`` litter from a claimant killed between temp write
        and link is deliberately *not* swept: unlike graves — renamed from
        complete documents — a tmp file can legitimately be mid-write, and
        deleting one under a live claimant would break its link step.)
        """
        removed = 0
        for path in self.claims_dir.glob("*.reaped-by-*"):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
                data = {}
            if not isinstance(data, dict):
                data = {}
            if self.claim_is_stale(data, ttl=ttl, now=now):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    def claims(self) -> Dict[str, Dict[str, Any]]:
        """Every current lease, ``{content key: claim document}``."""
        found: Dict[str, Dict[str, Any]] = {}
        for path in self.claims_dir.glob("*.lease"):
            if ".reaped-by-" in path.name:
                continue  # graveyard litter, not a lease (see reap_graveyard)
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                continue  # released between glob and read: simply unclaimed
            except (json.JSONDecodeError, UnicodeDecodeError):
                data = {}  # genuinely torn (killed writer): reclaimable
            found[path.name[: -len(".lease")]] = (
                data if isinstance(data, dict) else {}
            )
        return found

    # -- worker provenance -------------------------------------------------------------

    def record_worker_cells(
        self, worker_id: str, keys: Sequence[str], *, now: float
    ) -> None:
        """Record which cells ``worker_id`` has completed (for ``status``);
        bookkeeping only — cell files themselves stay worker-agnostic so
        distributed stores remain byte-identical to serial ones."""
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(
            self.workers_dir / f"{worker_id}.json",
            {
                "version": STORE_VERSION,
                "worker": worker_id,
                "completed": sorted(keys),
                "updated": now,
            },
        )

    def worker_records(self) -> Dict[str, Dict[str, Any]]:
        """``{worker id: record}`` for every worker that wrote into this store."""
        records: Dict[str, Dict[str, Any]] = {}
        for path in self.workers_dir.glob("*.json"):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(data, dict) and data.get("worker"):
                records[data["worker"]] = data
        return records

    # -- merging -----------------------------------------------------------------------

    def meta_fingerprint(self) -> tuple:
        """The identity of the sweep this store holds (everything that
        determines its planned job keys).  Two stores with equal fingerprints
        hold cells of the same sweep and can be merged losslessly."""
        meta = self.require_meta()
        return (
            meta["scenario"],
            list(meta["protocols"]),
            list(meta["pause_times"]),
            meta["trials"],
        )

    def require_same_sweep(self, other: "ResultsStore", *, action: str) -> None:
        """Raise ``ValueError`` unless ``other`` holds this store's sweep.

        The single definition of "combinable" shared by merge, union and
        cell comparison — anything that would mix cells of two different
        sweeps must fail through here, so the contract cannot drift.
        """
        if self.meta_fingerprint() != other.meta_fingerprint():
            raise ValueError(
                f"cannot {action} {other.root} and {self.root}: "
                "the directories hold different sweeps"
            )

    def merge_from(self, other: "ResultsStore") -> int:
        """Copy every planned cell that ``other`` has and this store lacks.

        Both stores must hold the *same* sweep (validated via
        :meth:`require_same_sweep`); cells are keyed by job content hash, so
        a cell present in both is byte-for-byte the same result and is left
        alone.  Returns the number of cells copied.  Orphan files in ``other``
        that no planned job names are ignored — merging is also compaction.
        """
        self.require_same_sweep(other, action="merge")
        copied = 0
        for job in self.planned_jobs():
            if job in self:
                continue
            summary = other.get(job)
            if summary is None:
                continue
            self.put(job, summary)
            copied += 1
        return copied

    def diff_cells(self, other: "ResultsStore") -> List[str]:
        """Content keys of planned cells on which the two stores disagree.

        Agreement is strict: the cell must exist in both and hold an equal
        summary (content-addressed cells make byte-identity follow).  Used by
        the distributed-vs-serial equivalence checks in tests and CI; an
        empty list means the stores are cell-for-cell identical.
        """
        self.require_same_sweep(other, action="compare")
        mismatched = []
        for job in self.planned_jobs():
            mine, theirs = self.get(job), other.get(job)
            if mine is None or theirs is None or mine != theirs:
                mismatched.append(job.content_key)
        return mismatched

    # -- reconstruction ----------------------------------------------------------------

    def planned_jobs(self) -> List[TrialJob]:
        """Re-plan the sweep recorded in the metadata (same params -> same keys).

        Planned once per instance (the jobs memoise their content keys too);
        :meth:`write_meta` and :meth:`adopt_meta` drop the plan.
        """
        if self._planned is None:
            from ..workloads.scenario import Scenario

            meta = self.require_meta()
            self._planned = plan_sweep(
                Scenario.from_dict(meta["scenario"]),
                meta["protocols"],
                pause_times=meta["pause_times"],
                trials=meta["trials"],
            )
        return list(self._planned)

    def load_results(self, *, require_complete: bool = False) -> SweepResults:
        """Assemble a :class:`SweepResults` from the cells on disk.

        Missing cells — including torn ones, which :meth:`get` reports and
        skips — are simply absent from the result (``SweepResults`` queries
        tolerate that) unless ``require_complete`` is set.
        """
        from .runner import SweepResults

        meta = self.require_meta()
        jobs = self.planned_jobs()
        results = SweepResults(
            pause_times=list(meta["pause_times"]),
            trials=meta["trials"],
            protocols=list(meta["protocols"]),
        )
        absent = 0
        for job in jobs:
            summary = self.get(job)
            if summary is None:
                absent += 1
                continue
            results.add(job.protocol, job.pause_time, job.trial, summary)
        if require_complete and absent:
            raise ValueError(
                f"store at {self.root} is incomplete: "
                f"{absent} of {len(jobs)} cells missing"
            )
        return results

    def write_results(self, results: SweepResults) -> None:
        """Dump the assembled sweep as one ``results.json`` for downstream tools."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = _tmp_name(self.results_path)
        tmp.write_text(results.to_json(indent=1), encoding="utf-8")
        os.replace(tmp, self.results_path)
