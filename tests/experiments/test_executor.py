"""Executor equivalence: the one sweep loop must produce bit-identical sweeps.

The job pipeline's core guarantee is that a sweep's outcome is a pure function
of its planned jobs — so the loop in process or in a pool, with or without
leases, must agree exactly at fixed seeds, and progress events must account
for every job exactly once.
"""

from collections import Counter

import pytest

from repro.experiments.distributed import DistributedBackend
from repro.experiments.executor import SweepBackend, execute_jobs
from repro.experiments.jobs import plan_sweep
from repro.experiments.runner import collect_sweep
from repro.experiments.store import ResultsStore
from repro.workloads.scenario import scaled_scenario

PROTOCOLS = ["SRP", "AODV"]
PAUSE_TIMES = (0.0, 8.0)
TRIALS = 1


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
    return plan_sweep(
        scenario, PROTOCOLS, pause_times=PAUSE_TIMES, trials=TRIALS
    )


@pytest.fixture(scope="module")
def serial_outcomes(jobs):
    return execute_jobs(jobs, workers=1)


@pytest.fixture(scope="module")
def serial_results(serial_outcomes):
    return collect_sweep(
        serial_outcomes, pause_times=PAUSE_TIMES, trials=TRIALS, protocols=PROTOCOLS
    )


class TestOneLoop:
    """workers in {1, 2} x {no leases, one lease-holding worker}: each is the
    same loop, so each returns the serial outcome map and reports every job
    exactly once."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("leased", [False, True], ids=["local", "leased"])
    def test_matches_serial_with_one_event_per_job(
        self, tmp_path, jobs, serial_outcomes, workers, leased
    ):
        backend = (
            DistributedBackend("w1", jobs=workers, poll_interval=0.01)
            if leased
            else SweepBackend(workers)
        )
        store = ResultsStore(tmp_path)
        events = []
        outcomes = execute_jobs(
            jobs, store=store, backend=backend, progress=events.append
        )
        assert outcomes == serial_outcomes
        assert Counter(e.job for e in events) == Counter(jobs)
        assert [e.completed for e in events] == list(range(1, len(jobs) + 1))
        assert not any(e.cached or e.failed for e in events)
        assert sorted(backend.ran_keys) == sorted(j.content_key for j in jobs)
        assert store.claims() == {}


class TestBackendEquivalence:
    def test_process_pool_matches_serial_executor(self, jobs, serial_results):
        outcomes = execute_jobs(jobs, workers=2)
        pooled = collect_sweep(
            outcomes, pause_times=PAUSE_TIMES, trials=TRIALS, protocols=PROTOCOLS
        )
        assert pooled.summaries == serial_results.summaries

    def test_json_round_trip_of_executed_sweep(self, serial_results):
        from repro.experiments.runner import SweepResults

        restored = SweepResults.from_json(serial_results.to_json())
        assert restored.summaries == serial_results.summaries


class TestProgressEvents:
    def test_serial_progress_counts_every_job(self, jobs):
        events = []
        execute_jobs(jobs, workers=1, progress=events.append)
        assert [e.completed for e in events] == list(range(1, len(jobs) + 1))
        assert all(e.total == len(jobs) for e in events)
        assert not any(e.cached for e in events)
        assert events[-1].fraction == 1.0
        assert {e.job for e in events} == set(jobs)

    def test_pool_progress_counts_every_job(self, jobs):
        events = []
        execute_jobs(jobs, workers=2, progress=events.append)
        assert len(events) == len(jobs)
        assert events[-1].completed == len(jobs)
        assert {e.job for e in events} == set(jobs)

    def test_eta_reaches_zero(self, jobs):
        events = []
        execute_jobs(jobs[:2], workers=1, progress=events.append)
        assert events[-1].eta == 0.0
