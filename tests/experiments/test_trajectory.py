"""Tests for store merging/compaction and cross-run metric trajectories.

Stores are built synthetically — planned jobs get hand-made summaries via
``ResultsStore.put`` — so the round-trip properties (union is lossless,
idempotent and orphan-dropping; trajectories preserve store order and render
gaps) are pinned down without running simulations.
"""

import json

import pytest

from repro.experiments.store import ResultsStore
from repro.experiments.trajectory import (
    SPARK_GAP,
    merge_stores,
    metric_trajectories,
    sparkline,
    trajectories_to_dict,
    trajectories_to_text,
)
from repro.sim.stats import TrialSummary
from repro.workloads.scenario import scaled_scenario

PROTOCOLS = ("SRP", "AODV")
PAUSE_TIMES = (0.0, 20.0)
TRIALS = 2


def make_summary(seqno: float = 0.0) -> TrialSummary:
    return TrialSummary(
        data_sent=100,
        data_delivered=90,
        control_transmissions=50,
        mean_latency=0.01,
        mac_drops_per_node=0.0,
        average_sequence_number=seqno,
        duplicate_deliveries=0,
    )


def make_store(path, *, seed: int = 7, seqno: float = 0.0, keep=None) -> ResultsStore:
    """A store whose planned cells all hold ``make_summary(seqno)``.

    ``keep`` optionally filters which job indices get a stored cell, so tests
    can build partial stores.
    """
    store = ResultsStore(path)
    store.write_meta(
        scale="unit",
        scenario=scaled_scenario(node_count=10, flow_count=2, seed=seed),
        protocols=PROTOCOLS,
        pause_times=PAUSE_TIMES,
        trials=TRIALS,
    )
    for index, job in enumerate(store.planned_jobs()):
        if keep is not None and index not in keep:
            continue
        store.put(job, make_summary(seqno))
    return store


class TestMergeStores:
    def test_two_partial_stores_union_to_a_complete_one(self, tmp_path):
        jobs = 2 * 2 * 2  # protocols x pauses x trials
        half_a = make_store(tmp_path / "a", keep=set(range(0, jobs, 2)))
        half_b = make_store(tmp_path / "b", keep=set(range(1, jobs, 2)))
        dest = ResultsStore(tmp_path / "merged")

        report = merge_stores(dest, [half_a, half_b])

        assert report.complete
        assert report.completed_cells == report.planned_cells == jobs
        assert sum(report.copied.values()) == jobs
        assert dest.results_path.exists()
        # The merged store round-trips: every planned cell is readable.
        results = dest.load_results(require_complete=True)
        assert len(results.summaries) == jobs

    def test_merge_is_idempotent(self, tmp_path):
        source = make_store(tmp_path / "src")
        dest = ResultsStore(tmp_path / "merged")
        first = merge_stores(dest, [source])
        second = merge_stores(dest, [source])
        assert sum(first.copied.values()) == 8
        assert sum(second.copied.values()) == 0
        assert second.complete

    def test_orphan_cells_are_compacted_away(self, tmp_path):
        source = make_store(tmp_path / "src")
        orphan = source.jobs_dir / "deadbeef00deadbeef00.json"
        orphan.write_text(json.dumps({"version": 2, "summary": {}}))
        dest = ResultsStore(tmp_path / "merged")
        report = merge_stores(dest, [source])
        assert report.complete
        assert "deadbeef00deadbeef00" not in dest.completed_keys()

    def test_mismatched_sweeps_are_rejected_before_copying(self, tmp_path):
        source = make_store(tmp_path / "src")
        other = make_store(tmp_path / "other", seed=99)
        dest = ResultsStore(tmp_path / "merged")
        with pytest.raises(ValueError, match="different sweeps"):
            merge_stores(dest, [source, other])
        # Validation happens before any write: a fresh destination is left
        # completely untouched (no adopted metadata a retry would conflict
        # with, no cells).
        assert dest.read_meta() is None
        assert dest.completed_keys() == []

    def test_merge_into_existing_destination_validates_identity(self, tmp_path):
        dest = make_store(tmp_path / "dest", keep=set())
        other = make_store(tmp_path / "other", seed=99)
        with pytest.raises(ValueError, match="different sweeps"):
            merge_stores(dest, [other])

    def test_merge_needs_sources(self, tmp_path):
        with pytest.raises(ValueError, match="at least one source"):
            merge_stores(ResultsStore(tmp_path / "dest"), [])


class TestTrajectories:
    def test_points_follow_store_order(self, tmp_path):
        runs = [
            make_store(tmp_path / "run-1", seqno=0.0),
            make_store(tmp_path / "run-2", seqno=1.0),
            make_store(tmp_path / "run-3", seqno=2.0),
        ]
        trajectories = metric_trajectories(runs, ["fig7"])
        points = trajectories["fig7"]["SRP"]
        assert [point.label for point in points] == ["run-1", "run-2", "run-3"]
        assert [point.mean for point in points] == [0.0, 1.0, 2.0]
        assert all(point.samples == 4 for point in points)

    def test_missing_protocol_renders_as_gap(self, tmp_path):
        store = make_store(tmp_path / "run-1")
        trajectories = metric_trajectories([store], ["fig5"])
        # fig5 plots all five paper protocols; this store only ran two.
        olsr = trajectories["fig5"]["OLSR"]
        assert olsr[0].samples == 0
        assert trajectories_to_dict(trajectories)["fig5"]["protocols"]["OLSR"][
            0
        ]["mean"] is None

    def test_text_rendering_includes_sparklines(self, tmp_path):
        runs = [
            make_store(tmp_path / "run-1", seqno=0.0),
            make_store(tmp_path / "run-2", seqno=4.0),
        ]
        text = trajectories_to_text(metric_trajectories(runs, ["fig7"]))
        assert "Fig. 7" in text
        assert "▁" in text and "█" in text  # low then high

    def test_dict_rendering_is_json_safe(self, tmp_path):
        runs = [make_store(tmp_path / "run-1")]
        data = trajectories_to_dict(metric_trajectories(runs, ["fig4"]))
        json.dumps(data)  # must not raise
        assert data["fig4"]["metric"] == "delivery_ratio"


class TestSparkline:
    def test_monotonic_values_rise(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_flat_series_is_low(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_nan_renders_as_gap(self):
        line = sparkline([0.0, float("nan"), 2.0])
        assert line[1] == SPARK_GAP

    def test_all_nan(self):
        assert sparkline([float("nan")] * 3 ) == SPARK_GAP * 3
