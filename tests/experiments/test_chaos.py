"""Crash-safe sweep execution: watchdog, retries, quarantine, recovery.

The harness half of PR 6's chaos layer.  Trial-level faults (exceptions,
hangs) are injected through the ``REPRO_RUN_HOOK`` seam or direct ``run=``
overrides; worker-process deaths through ``chaos_hooks`` SIGKILLing pool
workers.  The properties under test: a failing cell is quarantined with a
structured :class:`FailureRecord` while the rest of the sweep completes
byte-identically, ``run`` exits 4 when quarantined cells remain, ``resume``
retries exactly those cells, and a distributed worker releases — never
orphans — the lease of a cell it quarantines.
"""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.executor import (
    FaultPolicy,
    SerialBackend,
    SweepBackend,
    TrialHang,
    execute_jobs,
    resolve_run_hook,
    run_job,
    run_job_guarded,
)
from repro.experiments.distributed import DistributedBackend
from repro.experiments.jobs import plan_sweep
from repro.experiments.store import FailureRecord, ResultsStore
from repro.workloads.scenario import scaled_scenario

HOOKS = "tests.experiments.chaos_hooks"


def tiny_jobs(protocols=("SRP", "AODV")):
    base = scaled_scenario(node_count=4, flow_count=1, duration=2.0, seed=7)
    return plan_sweep(base, protocols, pause_times=[0.0], trials=1)


def _boom(job):
    raise RuntimeError("boom")


def _label_crash(job):
    if job.protocol == "AODV":
        raise RuntimeError("boom")
    return run_job(job)


class TestFaultPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FaultPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff=-0.1)


class TestRunHook:
    def test_default_is_run_job(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_HOOK", raising=False)
        assert resolve_run_hook() is run_job

    def test_env_resolves_module_function(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_HOOK", f"{HOOKS}:chaos_cell")
        hook = resolve_run_hook()
        assert hook.__name__ == "chaos_cell"

    def test_malformed_spec_is_rejected(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve_run_hook("no-colon-here")


class TestRunJobGuarded:
    def test_watchdog_converts_hang_to_failure(self):
        import time as time_module

        job = tiny_jobs()[0]
        summary, failure = run_job_guarded(
            job,
            policy=FaultPolicy(timeout=0.2),
            run=lambda j: time_module.sleep(60.0),
        )
        assert summary is None
        assert failure.error == "TrialHang"
        assert failure.key == job.content_key

    def test_retry_backoff_sequence_then_quarantine(self):
        job = tiny_jobs()[0]
        slept = []
        summary, failure = run_job_guarded(
            job,
            policy=FaultPolicy(retries=2, backoff=0.5),
            run=_boom,
            sleep=slept.append,
            clock=lambda: 123.0,
        )
        assert summary is None
        assert slept == [0.5, 1.0]  # exponential: backoff * 2**(k-1)
        assert failure.attempts == 3
        assert failure.error == "RuntimeError"
        assert failure.recorded_at == 123.0
        assert failure.cell == job.cell_dict()
        assert "boom" in failure.traceback

    def test_transient_failure_recovers_within_retries(self):
        job = tiny_jobs()[0]
        attempts = []

        def flaky(j):
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("transient")
            return run_job(j)

        summary, failure = run_job_guarded(
            job,
            policy=FaultPolicy(retries=2, backoff=0.0),
            run=flaky,
        )
        assert failure is None
        assert summary is not None
        assert len(attempts) == 2

    def test_keyboard_interrupt_propagates(self):
        def interrupt(job):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_job_guarded(
                tiny_jobs()[0], policy=FaultPolicy(retries=5), run=interrupt
            )


class TestPoolQuarantinesErrors:
    def test_raising_cell_in_a_pool_is_quarantined_not_raised(
        self, tmp_path, monkeypatch
    ):
        """One bad cell must never abort a pool's whole run_pending pass."""
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "SRP:0:0")
        store = ResultsStore(tmp_path)
        outcomes = execute_jobs(
            tiny_jobs(),
            store=store,
            backend=SweepBackend(2, run=resolve_run_hook(f"{HOOKS}:chaos_cell")),
        )
        assert sorted(j.protocol for j in outcomes) == ["AODV"]
        (failure,) = store.failure_records().values()
        assert failure.error == "RuntimeError"
        assert "injected crash" in failure.message


class TestStoreQuarantine:
    def test_failure_record_round_trips(self, tmp_path):
        store = ResultsStore(tmp_path)
        record = FailureRecord(
            key="abc123",
            error="RuntimeError",
            message="boom",
            attempts=2,
            cell={"protocol": "SRP"},
            worker="w1",
            elapsed=1.5,
            recorded_at=10.0,
            traceback="tb",
        )
        store.put_failure(record)
        assert store.failure_keys() == ["abc123"]
        assert store.get_failure("abc123") == record
        assert store.failure_records() == {"abc123": record}
        store.clear_failure("abc123")
        assert store.failure_keys() == []
        assert store.get_failure("abc123") is None

    def test_successful_put_supersedes_quarantine(self, tmp_path):
        store = ResultsStore(tmp_path)
        job = tiny_jobs(("SRP",))[0]
        store.put_failure(
            FailureRecord(
                key=job.content_key, error="X", message="m", attempts=1
            )
        )
        store.put(job, run_job(job))
        assert store.failure_keys() == []

    def test_from_dict_tolerates_missing_optionals(self):
        record = FailureRecord.from_dict(
            {"key": "k", "error": "E", "message": "m", "attempts": 1}
        )
        assert record.worker is None
        assert record.traceback == ""


class TestSerialQuarantine:
    def test_failing_cell_quarantined_others_complete(self, tmp_path):
        store = ResultsStore(tmp_path)
        jobs = tiny_jobs()
        events = []
        outcomes = execute_jobs(
            jobs,
            store=store,
            backend=SerialBackend(policy=FaultPolicy(), run=_label_crash),
            progress=events.append,
        )
        assert sorted(j.protocol for j in outcomes) == ["SRP"]
        assert len(store.failure_keys()) == 1
        failed_events = [e for e in events if e.failed]
        assert len(failed_events) == 1
        assert failed_events[0].job.protocol == "AODV"

    def test_resume_retries_quarantined_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        jobs = tiny_jobs()
        execute_jobs(
            jobs,
            store=store,
            backend=SerialBackend(policy=FaultPolicy(), run=_label_crash),
        )
        assert store.failure_keys()
        # Second pass without the fault: the quarantined cell re-runs (it is
        # missing from the store) and its failure record is cleared.
        outcomes = execute_jobs(jobs, store=store)
        assert len(outcomes) == len(jobs)
        assert store.failure_keys() == []


class TestProcessPoolChaos:
    def test_worker_killed_once_pool_rebuilds_and_completes(
        self, tmp_path, monkeypatch
    ):
        state = tmp_path / "state"
        state.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(state))
        monkeypatch.setenv("REPRO_CHAOS_KILL", "AODV:0:0")
        store = ResultsStore(tmp_path / "store")
        jobs = tiny_jobs()
        outcomes = execute_jobs(
            jobs,
            store=store,
            backend=SweepBackend(
                2, run=resolve_run_hook(f"{HOOKS}:kill_worker_once")
            ),
        )
        # The SIGKILL broke the first pool; the rebuilt pool (tombstone set)
        # completed every cell — transient worker death costs no quarantine.
        assert len(outcomes) == len(jobs)
        assert store.failure_keys() == []

    def test_worker_killed_always_quarantines_exactly_that_cell(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS_KILL", "AODV:0:0")
        store = ResultsStore(tmp_path / "store")
        jobs = tiny_jobs()
        outcomes = execute_jobs(
            jobs,
            store=store,
            backend=SweepBackend(2, run=resolve_run_hook(f"{HOOKS}:chaos_cell")),
        )
        assert sorted(j.protocol for j in outcomes) == ["SRP"]
        records = store.failure_records()
        assert len(records) == 1
        (record,) = records.values()
        assert record.error == "WorkerCrashed"
        assert record.cell["protocol"] == "AODV"


class TestDistributedQuarantine:
    def test_quarantine_releases_lease(self, tmp_path):
        store = ResultsStore(tmp_path)
        jobs = tiny_jobs()
        backend = DistributedBackend(
            "w1", poll_interval=0.01, run=_label_crash, policy=FaultPolicy()
        )
        events = []
        outcomes = execute_jobs(
            jobs, store=store, backend=backend, progress=events.append
        )
        assert sorted(j.protocol for j in outcomes) == ["SRP"]
        assert len(store.failure_keys()) == 1
        # The quarantined cell's lease was released, not left to go stale.
        assert store.claims() == {}
        assert any(e.failed and e.worker == "w1" for e in events)

    def test_peer_adopts_fresh_failure_instead_of_rerunning(self, tmp_path):
        store = ResultsStore(tmp_path)
        jobs = tiny_jobs()
        DistributedBackend(
            "w1", poll_interval=0.01, run=_label_crash, policy=FaultPolicy()
        ).run_pending(jobs, store=store, report=lambda *a, **k: None)

        def must_not_run(job):
            raise AssertionError("peer re-ran a freshly quarantined cell")

        events = []

        def report(job, **kwargs):
            events.append((job.protocol, kwargs))

        w2 = DistributedBackend("w2", poll_interval=0.01, run=must_not_run)
        # w2 sees SRP complete (adopts from store) and AODV freshly
        # quarantined (adopts the failure); it runs nothing itself.
        outcomes = w2.run_pending(jobs, store=store, report=report)
        assert sorted(j.protocol for j in outcomes) == ["SRP"]
        assert ("AODV", {"cached": False, "worker": "w2", "failed": True}) in [
            (p, k) for p, k in events
        ]

    def test_stale_failure_from_previous_run_is_retried(self, tmp_path):
        store = ResultsStore(tmp_path)
        jobs = tiny_jobs(("SRP",))
        job = jobs[0]
        # A quarantine record far in the past (a previous run's).
        store.put_failure(
            FailureRecord(
                key=job.content_key,
                error="RuntimeError",
                message="old",
                attempts=1,
                recorded_at=0.0,
            )
        )
        backend = DistributedBackend(
            "w1",
            poll_interval=0.01,
            lease_ttl=60.0,
            clock=lambda: 10_000.0,
        )
        outcomes = backend.run_pending(
            jobs, store=store, report=lambda *a, **k: None
        )
        assert len(outcomes) == 1
        # Success cleared the stale quarantine.
        assert store.failure_keys() == []

    def test_pool_worker_killed_once_completes_every_cell(
        self, tmp_path, monkeypatch
    ):
        state = tmp_path / "state"
        state.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(state))
        monkeypatch.setenv("REPRO_CHAOS_KILL", "AODV:0:0")
        store = ResultsStore(tmp_path / "store")
        jobs = tiny_jobs()
        backend = DistributedBackend(
            "w1",
            jobs=2,
            poll_interval=0.01,
            run=resolve_run_hook(f"{HOOKS}:kill_worker_once"),
        )
        outcomes = execute_jobs(jobs, store=store, backend=backend)
        # The SIGKILL broke the pool under live leases; the rebuilt pool
        # completed every cell and every lease was released.
        assert (state / "killed-AODV_0_0").exists()
        assert len(outcomes) == len(jobs)
        assert store.failure_keys() == []
        assert store.claims() == {}

    def test_pool_worker_killed_always_quarantines_that_cell_and_exits_4(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RUN_HOOK", f"{HOOKS}:chaos_cell")
        monkeypatch.setenv("REPRO_CHAOS_KILL", "AODV:0:0")
        out = tmp_path / "store"
        argv = ["worker", "--store", str(out), "--scale", "smoke", "--quiet"]
        argv += ["--protocols", "SRP", "AODV", "--jobs", "2", "--worker-id", "w1"]
        assert main(argv) == 4
        store = ResultsStore(out)
        (record,) = store.failure_records().values()
        assert record.error == "WorkerCrashed"
        assert record.cell == {"protocol": "AODV", "pause_time": 0.0, "trial": 0}
        assert len(store.completed_keys()) == len(store.planned_jobs()) - 1
        assert store.claims() == {}  # the convicted cell's lease was released


class TestCliChaos:
    """The ISSUE's acceptance run: crash one cell, hang another, exit 4,
    every other cell byte-identical to a clean serial store, resume heals."""

    def test_run_exits_4_with_quarantine_then_resume_heals(
        self, tmp_path, monkeypatch, capsys
    ):
        clean = tmp_path / "clean"
        chaos = tmp_path / "chaos"
        args = ["--scale", "smoke", "--protocols", "SRP", "AODV", "DSR"]
        assert main(["run", *args, "--out", str(clean), "--quiet"]) == 0

        monkeypatch.setenv("REPRO_RUN_HOOK", f"{HOOKS}:chaos_cell")
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "AODV:0:0")
        monkeypatch.setenv("REPRO_CHAOS_HANG", "DSR:0:0")
        rc = main(
            [
                "run",
                *args,
                "--out",
                str(chaos),
                "--quiet",
                "--trial-timeout",
                "1.0",
                "--retries",
                "0",
            ]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "quarantined" in err

        store = ResultsStore(chaos)
        records = store.failure_records()
        assert sorted(r.error for r in records.values()) == [
            "RuntimeError",
            "TrialHang",
        ]
        # Byte-identity: every completed chaos cell equals the clean cell.
        clean_cells = {
            p.name: p.read_bytes() for p in (clean / "jobs").glob("*.json")
        }
        chaos_cells = {
            p.name: p.read_bytes() for p in (chaos / "jobs").glob("*.json")
        }
        assert len(chaos_cells) == len(clean_cells) - 2
        assert all(
            chaos_cells[name] == clean_cells[name] for name in chaos_cells
        )

        # `status` surfaces the quarantine.
        assert main(["status", "--out", str(chaos)]) == 0
        assert "quarantined cells: 2" in capsys.readouterr().out

        # Resume without the chaos hook: retries exactly the two cells.
        monkeypatch.delenv("REPRO_RUN_HOOK")
        assert main(["resume", "--out", str(chaos), "--quiet"]) == 0
        assert ResultsStore(chaos).failure_keys() == []
        final = {
            p.name: p.read_bytes() for p in (chaos / "jobs").glob("*.json")
        }
        assert final == clean_cells

    def test_faulted_sweep_never_mixes_with_clean_store(self, tmp_path):
        out = tmp_path / "store"
        args = ["--scale", "smoke", "--protocols", "SRP", "--quiet"]
        assert main(["run", *args, "--out", str(out)]) == 0
        # Same store, now with faults: different content keys -> exit 3.
        rc = main(
            ["run", *args, "--out", str(out), "--faults", "churn-partition"]
        )
        assert rc == 3

    def test_faulted_smoke_sweep_passes_fault_gate(self, tmp_path):
        out = tmp_path / "store"
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "smoke",
                    "--out",
                    str(out),
                    "--quiet",
                    "--faults",
                    "churn-partition",
                ]
            )
            == 0
        )
        assert main(["gate", "--out", str(out), "--registry", "faults"]) == 0

    def test_gate_list_respects_registry(self, capsys):
        assert main(["gate", "--list", "--registry", "faults"]) == 0
        out = capsys.readouterr().out
        assert "post-heal-delivery-recovers" in out
        assert "srp-seqno-zero-under-churn" in out
