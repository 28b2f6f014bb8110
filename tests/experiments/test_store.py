"""Results-store semantics: persistence, resume and reconstruction.

A killed paper-scale sweep must resume from its completed cells: the store
keys cells by job content hash, so a re-planned identical sweep finds them
again, only the missing cells run, and the reassembled ``SweepResults`` is
identical to an uninterrupted run's.
"""

import pytest

from repro.experiments.executor import execute_jobs
from repro.experiments.jobs import plan_sweep
from repro.experiments.runner import SweepResults, collect_sweep
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
    return plan_sweep(scenario, PROTOCOLS, pause_times=PAUSE_TIMES, trials=TRIALS)


@pytest.fixture(scope="module")
def full_outcomes(jobs):
    return execute_jobs(jobs, workers=1)


def make_store(tmp_path, scenario) -> ResultsStore:
    store = ResultsStore(tmp_path / "sweep")
    store.write_meta(
        scale="tiny",
        scenario=scenario,
        protocols=PROTOCOLS,
        pause_times=PAUSE_TIMES,
        trials=TRIALS,
    )
    return store


class TestCellPersistence:
    def test_put_get_round_trip(self, tmp_path, scenario, jobs, full_outcomes):
        store = make_store(tmp_path, scenario)
        job = jobs[0]
        store.put(job, full_outcomes[job])
        assert store.get(job) == full_outcomes[job]
        assert job in store

    def test_missing_cell_is_none(self, tmp_path, scenario, jobs):
        store = make_store(tmp_path, scenario)
        assert store.get(jobs[0]) is None
        assert jobs[0] not in store
        assert store.missing(jobs) == list(jobs)


class TestResume:
    def test_rerun_fills_only_the_missing_cells(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        # Simulate an interrupted sweep: half the cells completed.
        done, pending = jobs[: len(jobs) // 2], jobs[len(jobs) // 2 :]
        for job in done:
            store.put(job, full_outcomes[job])

        events = []
        outcomes = execute_jobs(jobs, workers=1, store=store, progress=events.append)

        fresh = [e.job for e in events if not e.cached]
        cached = [e.job for e in events if e.cached]
        assert fresh == pending  # no recomputation of completed cells
        assert set(cached) == set(done)
        assert outcomes == full_outcomes

    def test_resumed_sweep_results_match_uninterrupted(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        for job in jobs[:1]:
            store.put(job, full_outcomes[job])
        outcomes = execute_jobs(jobs, workers=1, store=store)
        resumed = collect_sweep(
            outcomes, pause_times=PAUSE_TIMES, trials=TRIALS, protocols=PROTOCOLS
        )
        direct = collect_sweep(
            full_outcomes,
            pause_times=PAUSE_TIMES,
            trials=TRIALS,
            protocols=PROTOCOLS,
        )
        assert resumed.summaries == direct.summaries

    def test_fully_cached_run_executes_nothing(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        for job in jobs:
            store.put(job, full_outcomes[job])
        events = []
        outcomes = execute_jobs(jobs, workers=1, store=store, progress=events.append)
        assert all(e.cached for e in events)
        assert outcomes == full_outcomes


class TestReconstruction:
    def test_planned_jobs_match_original_plan(self, tmp_path, scenario, jobs):
        store = make_store(tmp_path, scenario)
        assert store.planned_jobs() == list(jobs)

    def test_load_results_reassembles_the_sweep(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        execute_jobs(jobs, workers=1, store=store)
        loaded = store.load_results()
        direct = collect_sweep(
            full_outcomes,
            pause_times=PAUSE_TIMES,
            trials=TRIALS,
            protocols=PROTOCOLS,
        )
        assert loaded.summaries == direct.summaries

    def test_load_results_tolerates_partial_store(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        store.put(jobs[0], full_outcomes[jobs[0]])
        partial = store.load_results()
        assert len(partial.summaries) == 1
        with pytest.raises(ValueError, match="incomplete"):
            store.load_results(require_complete=True)

    def test_write_results_round_trips(self, tmp_path, scenario, jobs, full_outcomes):
        store = make_store(tmp_path, scenario)
        execute_jobs(jobs, workers=1, store=store)
        results = store.load_results()
        store.write_results(results)
        restored = SweepResults.from_json(
            store.results_path.read_text(encoding="utf-8")
        )
        assert restored.summaries == results.summaries

    def test_foreign_directory_raises(self, tmp_path):
        store = ResultsStore(tmp_path / "empty")
        with pytest.raises(FileNotFoundError):
            store.require_meta()
        assert store.read_meta() is None
        assert not (tmp_path / "empty").exists()  # reads never mkdir


class TestTornCells:
    """Truncated/invalid cell files count as missing (and are reported)."""

    def _tear(self, store, job, content='{"version": 2, "job": {}, "sum'):
        path = store.jobs_dir / f"{job.content_key}.json"
        path.write_text(content, encoding="utf-8")
        return path

    def test_torn_cell_reads_as_missing(self, tmp_path, scenario, jobs, full_outcomes):
        from repro.experiments.store import TornCellWarning

        store = make_store(tmp_path, scenario)
        job = jobs[0]
        store.put(job, full_outcomes[job])
        self._tear(store, job)
        with pytest.warns(TornCellWarning, match="torn"):
            assert store.get(job) is None
        assert store.torn_keys() == [job.content_key]
        assert job in store.missing(jobs)

    def test_torn_cell_with_missing_summary_field(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        job = jobs[0]
        store.put(job, full_outcomes[job])
        self._tear(store, job, '{"version": 2, "job": {}}')
        with pytest.warns(Warning, match="torn"):
            assert store.get(job) is None

    def test_load_results_skips_torn_cells(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        for job in jobs:
            store.put(job, full_outcomes[job])
        self._tear(store, jobs[0])
        with pytest.warns(Warning, match="torn"):
            results = store.load_results()
        assert len(results.summaries) == len(jobs) - 1
        # The torn cell is only reported once; it still counts as missing.
        with pytest.raises(ValueError, match="incomplete"):
            store.load_results(require_complete=True)

    def test_rewriting_a_torn_cell_heals_it(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        job = jobs[0]
        store.put(job, full_outcomes[job])
        self._tear(store, job)
        with pytest.warns(Warning, match="torn"):
            assert store.get(job) is None
        store.put(job, full_outcomes[job])  # the re-run overwrites atomically
        assert store.get(job) == full_outcomes[job]
        assert store.torn_keys() == []


class TestKeyCache:
    """completed_keys()/missing() scan the cell directory once per instance."""

    def test_put_keeps_the_cache_current(self, tmp_path, scenario, jobs, full_outcomes):
        store = make_store(tmp_path, scenario)
        assert store.completed_keys() == []  # primes the cache
        store.put(jobs[0], full_outcomes[jobs[0]])
        assert store.completed_keys() == [jobs[0].content_key]
        assert store.missing(jobs) == list(jobs[1:])

    def test_foreign_writes_need_invalidation(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        ours = make_store(tmp_path, scenario)
        theirs = ResultsStore(ours.root)  # another process, in effect
        assert ours.completed_keys() == []
        theirs.put(jobs[0], full_outcomes[jobs[0]])
        assert ours.completed_keys() == []  # cached: foreign write invisible
        ours.invalidate_key_cache()
        assert ours.completed_keys() == [jobs[0].content_key]

    def test_get_repopulates_after_invalidation(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        store = make_store(tmp_path, scenario)
        store.put(jobs[0], full_outcomes[jobs[0]])
        store.invalidate_key_cache()
        assert store.get(jobs[0]) == full_outcomes[jobs[0]]
        assert jobs[0] in store


class TestMetaGuards:
    def test_ensure_meta_accepts_identical_parameters(self, tmp_path, scenario):
        store = make_store(tmp_path, scenario)
        store.ensure_meta(
            scale="renamed-is-fine",
            scenario=scenario,
            protocols=PROTOCOLS,
            pause_times=PAUSE_TIMES,
            trials=TRIALS,
        )
        assert store.require_meta()["scale"] == "tiny"  # original kept

    def test_racing_init_with_different_parameters_is_caught(
        self, tmp_path, scenario
    ):
        # Two workers initialising one fresh shared store with *different*
        # sweeps both see an empty directory; the post-write re-read must
        # hand the race's loser the same error a late arrival would get.
        import types

        store = ResultsStore(tmp_path / "fresh")
        rival = ResultsStore(store.root)
        original = ResultsStore.write_meta

        def write_then_lose_the_race(self, **kwargs):
            original(self, **kwargs)
            original(
                rival,
                scale="rival",
                scenario=scenario,
                protocols=["SRP"],
                pause_times=(0.0,),
                trials=9,
            )

        store.write_meta = types.MethodType(write_then_lose_the_race, store)
        with pytest.raises(ValueError, match="different sweep"):
            store.ensure_meta(
                scale="tiny",
                scenario=scenario,
                protocols=PROTOCOLS,
                pause_times=PAUSE_TIMES,
                trials=TRIALS,
            )

    def test_ensure_meta_rejects_a_different_sweep(self, tmp_path, scenario):
        store = make_store(tmp_path, scenario)
        with pytest.raises(ValueError, match="different sweep"):
            store.ensure_meta(
                scale="tiny",
                scenario=scenario,
                protocols=PROTOCOLS,
                pause_times=PAUSE_TIMES,
                trials=TRIALS + 1,
            )

    def test_incompatible_cell_version_is_rejected(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        import json

        store = make_store(tmp_path, scenario)
        job = jobs[0]
        store.put(job, full_outcomes[job])
        path = store.jobs_dir / f"{job.content_key}.json"
        cell = json.loads(path.read_text(encoding="utf-8"))
        cell["version"] = 999
        path.write_text(json.dumps(cell), encoding="utf-8")
        with pytest.raises(ValueError, match="incompatible store version"):
            store.get(job)

    @pytest.mark.parametrize("version", [999, None, "1", [1], True])
    def test_only_a_retired_version_gets_its_retirement_reason(
        self, tmp_path, scenario, version
    ):
        import json

        store = make_store(tmp_path, scenario)
        meta = json.loads(store.meta_path.read_text(encoding="utf-8"))
        meta["version"] = version
        if version is None:
            del meta["version"]
        store.meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match="fresh directory") as excinfo:
            store.read_meta()
        assert "this code reads 2" in str(excinfo.value)
        assert "MAC model" not in str(excinfo.value)


class TestWriteFormat:
    """Documents are written compact (the C JSON encoder); what the parent
    commit wrote with ``indent=1`` must keep reading as the same cells."""

    @staticmethod
    def _as_the_parent_wrote_it(path):
        import json

        document = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(
            json.dumps(document, sort_keys=True, indent=1), encoding="utf-8"
        )

    def test_documents_are_compact_and_key_sorted(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        import json

        store = make_store(tmp_path, scenario)
        store.put(jobs[0], full_outcomes[jobs[0]])
        cell = store.jobs_dir / f"{jobs[0].content_key}.json"
        for path in (store.meta_path, cell):
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(
                json.loads(text), sort_keys=True, separators=(",", ":")
            )

    def test_indented_and_compact_cells_mix_in_one_store(
        self, tmp_path, scenario, jobs, full_outcomes
    ):
        from repro.experiments.trajectory import merge_stores

        mixed = make_store(tmp_path / "mixed", scenario)
        for job in jobs:
            mixed.put(job, full_outcomes[job])
        self._as_the_parent_wrote_it(mixed.meta_path)
        old = jobs[: len(jobs) // 2]
        for job in old:
            self._as_the_parent_wrote_it(mixed.jobs_dir / f"{job.content_key}.json")
        sizes = {
            job: (mixed.jobs_dir / f"{job.content_key}.json").stat().st_size
            for job in jobs
        }
        assert min(sizes[job] for job in old) > max(
            sizes[job] for job in jobs if job not in old
        )

        # resume: nothing to run
        resumed = ResultsStore(mixed.root)
        assert resumed.missing(resumed.planned_jobs()) == []
        events = []
        outcomes = execute_jobs(jobs, workers=1, store=resumed, progress=events.append)
        assert all(event.cached for event in events) and outcomes == full_outcomes

        # cell for cell equal to a store written entirely by this code
        fresh = make_store(tmp_path / "fresh", scenario)
        for job in jobs:
            fresh.put(job, full_outcomes[job])
        assert ResultsStore(mixed.root).diff_cells(fresh) == []
        assert fresh.diff_cells(ResultsStore(mixed.root)) == []

        # and it merges, into a fresh directory and into an existing store
        merged = ResultsStore(tmp_path / "merged")
        report = merge_stores(merged, [ResultsStore(mixed.root)])
        assert report.completed_cells == report.planned_cells == len(jobs)
        assert merged.diff_cells(fresh) == []
        half = make_store(tmp_path / "half", scenario)
        half.put(jobs[-1], full_outcomes[jobs[-1]])
        assert half.merge_from(ResultsStore(mixed.root)) == len(jobs) - 1
        assert half.diff_cells(fresh) == []


class TestPlanMemo:
    def test_the_sweep_is_planned_once_per_instance(
        self, tmp_path, scenario, jobs, full_outcomes, monkeypatch
    ):
        from repro.experiments import store as store_module

        plans = []

        def counting_plan(*args, **kwargs):
            plans.append(1)
            return plan_sweep(*args, **kwargs)

        monkeypatch.setattr(store_module, "plan_sweep", counting_plan)
        store = make_store(tmp_path, scenario)
        for job in jobs:
            store.put(job, full_outcomes[job])
        other = ResultsStore(store.root)
        assert store.planned_jobs() == list(jobs)
        store.load_results()
        store.diff_cells(other)
        store.merge_from(other)
        assert len(plans) == 1  # the parent re-planned on each of the four

    def test_callers_get_their_own_list(self, tmp_path, scenario, jobs):
        store = make_store(tmp_path, scenario)
        store.planned_jobs().clear()
        assert store.planned_jobs() == list(jobs)

    def test_new_metadata_drops_the_plan(self, tmp_path, scenario, jobs):
        store = make_store(tmp_path, scenario)
        assert len(store.planned_jobs()) == len(jobs)
        store.write_meta(
            scale="tiny",
            scenario=scenario,
            protocols=PROTOCOLS[:1],
            pause_times=PAUSE_TIMES,
            trials=TRIALS,
        )
        assert len(store.planned_jobs()) == len(jobs) // 2
        store.adopt_meta(make_store(tmp_path / "donor", scenario).require_meta())
        assert store.planned_jobs() == list(jobs)
