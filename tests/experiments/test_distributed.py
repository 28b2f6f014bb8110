"""The distributed backend: leases, stealing, crash recovery, equivalence.

The work-stealing backend's whole promise is that N workers sharing a store
directory behave like one serial run: every cell runs exactly once (lease
races aside), a worker killed mid-trial leaves no partial cell and its stale
lease is reclaimed, and the converged store is cell-for-cell identical to the
serial backend's.  Lease arithmetic runs on an injected deterministic clock;
the kill test uses a real subprocess and SIGKILL.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import (
    DistributedBackend,
    ResultsStore,
    execute_jobs,
    plan_sweep,
    store_status,
)
from repro.sim.stats import TrialSummary
from repro.workloads.scenario import scaled_scenario

PROTOCOLS = ["SRP", "AODV"]
PAUSE_TIMES = (0.0, 8.0)
TRIALS = 2
TTL = 30.0


class FakeClock:
    """A deterministic time source: advances only when told to."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def fake_summary(seed: int = 0) -> TrialSummary:
    return TrialSummary(
        data_sent=10 + seed,
        data_delivered=9,
        control_transmissions=3,
        mean_latency=0.05,
        mac_drops_per_node=0.0,
        average_sequence_number=0.0,
        duplicate_deliveries=0,
    )


@pytest.fixture(scope="module")
def scenario():
    return scaled_scenario(
        node_count=10,
        flow_count=2,
        duration=8.0,
        terrain_width=700,
        terrain_height=300,
    )


@pytest.fixture(scope="module")
def jobs(scenario):
    return plan_sweep(scenario, PROTOCOLS, pause_times=PAUSE_TIMES, trials=TRIALS)


@pytest.fixture(scope="module")
def serial_outcomes(jobs):
    return execute_jobs(jobs, workers=1)


def make_store(root, scenario) -> ResultsStore:
    store = ResultsStore(root)
    store.write_meta(
        scale="tiny",
        scenario=scenario,
        protocols=PROTOCOLS,
        pause_times=PAUSE_TIMES,
        trials=TRIALS,
    )
    return store


class TestLeases:
    """The store's claim primitives under a deterministic clock."""

    def test_exactly_one_claimant_wins(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        assert store.try_claim("k1", "w1", now=clock()) is not None
        assert store.try_claim("k1", "w2", now=clock()) is None
        assert store.read_claim("k1")["worker"] == "w1"

    def test_refresh_is_owner_only(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        store.try_claim("k1", "w1", now=clock())
        clock.advance(5)
        assert store.refresh_claim("k1", "w2", now=clock()) is None
        refreshed = store.refresh_claim("k1", "w1", now=clock())
        assert refreshed["heartbeat"] == clock()

    def test_release_is_owner_only(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        store.try_claim("k1", "w1", now=clock())
        store.release_claim("k1", "w2")
        assert store.read_claim("k1") is not None  # not ours; kept
        store.release_claim("k1", "w1")
        assert store.read_claim("k1") is None

    def test_heartbeat_keeps_a_lease_live(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        store.try_claim("k1", "w1", now=clock())
        clock.advance(TTL * 0.9)
        store.refresh_claim("k1", "w1", now=clock())
        clock.advance(TTL * 0.9)  # past the original claim, within the refresh
        claim = store.read_claim("k1")
        assert not store.claim_is_stale(claim, ttl=TTL, now=clock())
        assert store.reclaim_stale("k1", "w2", ttl=TTL, now=clock()) is None

    def test_stale_lease_is_reclaimed(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        store.try_claim("k1", "w1", now=clock())
        clock.advance(TTL + 1)
        claim = store.reclaim_stale("k1", "w2", ttl=TTL, now=clock())
        assert claim is not None and claim["worker"] == "w2"
        # The dead worker's heartbeat no longer succeeds: the lease is w2's.
        assert store.refresh_claim("k1", "w1", now=clock()) is None

    def test_reclaim_race_has_one_winner(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        store.try_claim("k1", "w1", now=clock())
        clock.advance(TTL + 1)
        # Both observe the stale lease; the reap (rename) settles the race —
        # whoever loses the rename must not end up owning the cell.
        first = store.reclaim_stale("k1", "w2", ttl=TTL, now=clock())
        second = store.reclaim_stale("k1", "w3", ttl=TTL, now=clock())
        assert first is not None
        assert second is None  # w2's fresh lease is not stale
        assert store.read_claim("k1")["worker"] == "w2"

    def test_dead_reapers_graveyard_litter_is_swept(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        # A reaper died between its rename and unlink: the stale document
        # lingers under the graveyard name.
        store.try_claim("k1", "w1", now=clock())
        clock.advance(TTL + 1)
        os.rename(
            store._lease_path("k1"), store.claims_dir / "k1.reaped-by-dead"
        )
        assert store.reap_graveyard(ttl=TTL, now=clock()) == 1
        assert list(store.claims_dir.iterdir()) == []

    def test_live_graveyard_document_is_left_for_restore(
        self, tmp_path, scenario
    ):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        store.try_claim("k1", "w1", now=clock())
        os.rename(
            store._lease_path("k1"), store.claims_dir / "k1.reaped-by-w2"
        )
        # The moved document is fresh: w2 is mid-reap and about to restore.
        assert store.reap_graveyard(ttl=TTL, now=clock()) == 0
        assert (store.claims_dir / "k1.reaped-by-w2").exists()

    def test_graveyard_litter_is_not_a_phantom_lease(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        store.claims_dir.mkdir(parents=True)
        # Foreign/legacy litter whose name matches both schemes at once must
        # never surface as a claim for the nonexistent key "k1.reaped-by-w9".
        (store.claims_dir / "k1.reaped-by-w9.lease").write_text(
            "{}", encoding="utf-8"
        )
        assert store.claims() == {}

    def test_torn_lease_counts_as_stale(self, tmp_path, scenario):
        store = make_store(tmp_path / "s", scenario)
        clock = FakeClock()
        store.claims_dir.mkdir(parents=True)
        (store.claims_dir / "k1.lease").write_text("{trunc", encoding="utf-8")
        assert store.read_claim("k1") == {}
        assert store.claim_is_stale(store.read_claim("k1"), ttl=TTL, now=clock())
        claim = store.reclaim_stale("k1", "w2", ttl=TTL, now=clock())
        assert claim is not None and claim["worker"] == "w2"


class TestWorkStealing:
    """Concurrent backends over one store: exactly-once, identical results."""

    def _run_workers(
        self, store_root, jobs, worker_ids, *, run, clock=None, pool_jobs=1
    ):
        backends, events, errors = {}, {}, []

        def work(worker_id):
            try:
                store = ResultsStore(store_root)
                backend = DistributedBackend(
                    worker_id,
                    lease_ttl=TTL,
                    poll_interval=0.01,
                    clock=clock or time.time,
                    run=run,
                    jobs=pool_jobs,
                )
                backends[worker_id] = backend
                events[worker_id] = []
                execute_jobs(
                    jobs,
                    store=store,
                    backend=backend,
                    progress=events[worker_id].append,
                )
            except Exception as exc:  # pragma: no cover - surfaced by assert
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(w,), daemon=True)
            for w in worker_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        return backends, events

    def test_no_job_runs_twice_under_a_fake_clock(self, tmp_path, scenario, jobs):
        store = make_store(tmp_path / "shared", scenario)
        clock = FakeClock()
        run_log = []

        def fake_run(job):
            run_log.append(job.content_key)
            time.sleep(0.005)  # widen the window in which races could happen
            return fake_summary()

        backends, _ = self._run_workers(
            store.root, jobs, ("w1", "w2"), run=fake_run, clock=clock
        )
        # Every planned cell ran exactly once across both workers, and each
        # worker's own log matches what it recorded in the store.
        assert sorted(run_log) == sorted(job.content_key for job in jobs)
        ran = backends["w1"].ran_keys + backends["w2"].ran_keys
        assert sorted(ran) == sorted(job.content_key for job in jobs)

    def test_three_workers_match_the_serial_store(
        self, tmp_path, scenario, jobs, serial_outcomes
    ):
        serial_store = make_store(tmp_path / "serial", scenario)
        for job, summary in serial_outcomes.items():
            serial_store.put(job, summary)

        shared = make_store(tmp_path / "shared", scenario)
        from repro.experiments.executor import run_job

        backends, events = self._run_workers(
            shared.root, jobs, ("w1", "w2", "w3"), run=run_job
        )
        # Cell-for-cell identical to the serial backend's store.
        assert serial_store.diff_cells(ResultsStore(shared.root)) == []
        # Work was partitioned, not duplicated.
        ran = [k for b in backends.values() for k in b.ran_keys]
        assert sorted(ran) == sorted(job.content_key for job in jobs)
        # Every progress event names its worker; each worker accounted for
        # every job exactly once (own runs + cells adopted from the others).
        for worker_id, worker_events in events.items():
            assert {e.worker for e in worker_events} == {worker_id}
            assert {e.job for e in worker_events} == set(jobs)
        # All leases were released on the way out.
        assert ResultsStore(shared.root).claims() == {}

    def test_hybrid_pool_workers_match_the_serial_store(
        self, tmp_path, scenario, jobs, serial_outcomes
    ):
        """The ROADMAP's worker-pool hybrid: two lease-polling workers, each
        fanning its claimed cells over a 2-process local pool, converge on a
        store cell-for-cell identical to the serial run with no cell run
        twice."""
        serial_store = make_store(tmp_path / "serial", scenario)
        for job, summary in serial_outcomes.items():
            serial_store.put(job, summary)

        shared = make_store(tmp_path / "shared", scenario)
        from repro.experiments.executor import run_job

        backends, events = self._run_workers(
            shared.root, jobs, ("h1", "h2"), run=run_job, pool_jobs=2
        )
        assert serial_store.diff_cells(ResultsStore(shared.root)) == []
        ran = [k for b in backends.values() for k in b.ran_keys]
        assert sorted(ran) == sorted(job.content_key for job in jobs)
        for worker_id, worker_events in events.items():
            assert {e.worker for e in worker_events} == {worker_id}
            assert {e.job for e in worker_events} == set(jobs)
        assert ResultsStore(shared.root).claims() == {}

    def test_hybrid_pool_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            DistributedBackend("w1", jobs=0)

    def test_worker_reruns_a_torn_cell(self, tmp_path, scenario, jobs):
        store = make_store(tmp_path / "shared", scenario)
        victim = jobs[0]
        store.jobs_dir.mkdir(parents=True)
        (store.jobs_dir / f"{victim.content_key}.json").write_text(
            '{"version": 2, "job": {}, "summ', encoding="utf-8"
        )
        backend = DistributedBackend(
            "w1", lease_ttl=TTL, run=lambda job: fake_summary()
        )
        with pytest.warns(Warning, match="torn"):
            outcomes = execute_jobs(jobs, store=store, backend=backend)
        assert victim.content_key in backend.ran_keys
        assert outcomes[victim] == fake_summary()

    def test_backend_requires_a_store(self, jobs):
        backend = DistributedBackend("w1")
        with pytest.raises(ValueError, match="store"):
            execute_jobs(jobs, backend=backend)

    def test_backend_rejects_nonpositive_intervals(self):
        with pytest.raises(ValueError, match="lease_ttl"):
            DistributedBackend("w1", lease_ttl=0)
        with pytest.raises(ValueError, match="poll_interval"):
            DistributedBackend("w1", poll_interval=0)

    def test_backend_rejects_path_unsafe_worker_ids(self):
        # Worker ids become file names (workers/<id>.json, graveyard names);
        # a separator would crash mid-run or escape the store directory, and
        # lease-scheme suffixes would make graves parse as phantom leases.
        # (An empty id falls back to default_worker_id, so it is fine.)
        for bad in ("host/1", "../x", "a b", "..", "n1.lease", "x.reaped-by-y"):
            with pytest.raises(ValueError, match="filesystem-safe"):
                DistributedBackend(bad)
        from repro.experiments.distributed import default_worker_id

        assert DistributedBackend(default_worker_id())  # always valid

    def test_abandoned_lease_on_a_completed_cell_is_reaped(
        self, tmp_path, scenario, jobs
    ):
        # A worker that dies *between* put and release leaves a lease for a
        # cell everyone else adopts from the cache skim — the steal loop
        # must still tidy it (its housekeeping pass, not the claim path).
        store = make_store(tmp_path / "shared", scenario)
        clock = FakeClock()
        dead_cell = jobs[0]
        store.put(dead_cell, fake_summary())
        store.try_claim(
            dead_cell.content_key, "dead", now=clock() - TTL * 2
        )
        backend = DistributedBackend(
            "survivor", lease_ttl=TTL, clock=clock, run=lambda job: fake_summary()
        )
        events = []
        execute_jobs(jobs, store=store, backend=backend, progress=events.append)
        assert store.claims() == {}
        # The skim event for the dead worker's cell names the survivor too.
        assert {e.worker for e in events} == {"survivor"}


class TestStatus:
    def test_status_reports_claims_workers_and_staleness(
        self, tmp_path, scenario, jobs
    ):
        store = make_store(tmp_path / "shared", scenario)
        clock = FakeClock()
        backend = DistributedBackend(
            "w1", lease_ttl=TTL, clock=clock, run=lambda job: fake_summary()
        )
        execute_jobs(jobs[:2], store=store, backend=backend)
        live = jobs[2]
        stale = jobs[3]
        store.try_claim(
            live.content_key, "w2", now=clock(), cell=live.cell_dict()
        )
        store.try_claim(
            stale.content_key, "w3", now=clock() - TTL * 2, cell=stale.cell_dict()
        )

        status = store_status(store, lease_ttl=TTL, now=clock())
        assert status["planned_cells"] == len(jobs)
        assert status["completed_cells"] == 2
        assert status["workers"] == [
            {"worker": "w1", "completed": 2, "updated": clock()}
        ]
        by_key = {claim["key"]: claim for claim in status["claims"]}
        assert not by_key[live.content_key]["stale"]
        assert by_key[stale.content_key]["stale"]
        assert by_key[live.content_key]["cell"]["protocol"] == live.protocol


class TestCrashRecovery:
    """A SIGKILLed worker: no partial cell, stale lease, clean completion."""

    @pytest.fixture()
    def shared_store(self, tmp_path, scenario):
        return make_store(tmp_path / "shared", scenario)

    def _spawn_worker(self, store_root, worker_id):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "worker",
                "--store",
                str(store_root),
                "--worker-id",
                worker_id,
                "--lease-ttl",
                "1000",
                "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_killed_worker_leaves_a_clean_resumable_store(
        self, shared_store, scenario, jobs, serial_outcomes
    ):
        victim = self._spawn_worker(shared_store.root, "victim")
        try:
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                if list(shared_store.jobs_dir.glob("*.json")):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker subprocess produced no cell within 90 s")
        finally:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)

        # No partial cell: every file in the store parses and round-trips.
        for path in shared_store.jobs_dir.glob("*.json"):
            cell = json.loads(path.read_text(encoding="utf-8"))
            assert set(cell) == {"version", "job", "summary"}
        done_before = len(list(shared_store.jobs_dir.glob("*.json")))
        assert done_before < len(jobs)

        # The dead worker's lease (if it died mid-cell) is stale after the
        # TTL; a surviving worker reclaims it and completes the sweep.  The
        # fake clock jumps past the 1000 s TTL instead of waiting it out.
        far_future = time.time() + 5000
        survivor = DistributedBackend(
            "survivor",
            lease_ttl=1000,
            poll_interval=0.01,
            clock=lambda: far_future,
        )
        outcomes = execute_jobs(jobs, store=shared_store, backend=survivor)

        assert outcomes == serial_outcomes  # nothing lost, nothing corrupted
        assert shared_store.claims() == {}  # including the victim's lease
        fresh = ResultsStore(shared_store.root)
        assert fresh.missing(jobs) == []
        # No duplicated work: the survivor ran only what the victim had not
        # already persisted.
        assert len(survivor.ran_keys) == len(jobs) - done_before
