"""End-to-end tests of the science-gate CLI surface.

One real smoke-scale sweep (all five protocols, seconds of wall clock) backs
the whole module: ``gate`` must pass it, a hand-corrupted copy must fail
naming the violated invariant, ``merge`` must reassemble a split copy, and
``trajectory`` must render sparklines across stores — the acceptance path the
CI jobs exercise nightly.
"""

import json
import shutil

import pytest

from repro.experiments.store import ResultsStore
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate-cli") / "sweep-smoke"
    code = main(
        ["run", "--scale", "smoke", "--jobs", "2", "--out", str(out), "--quiet"]
    )
    assert code == 0
    return out


class TestGateCommand:
    def test_completed_smoke_store_passes(self, store_dir, capsys):
        code = main(["gate", "--out", str(store_dir), "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "0 failed" in out

    def test_json_report_is_written(self, store_dir, tmp_path, capsys):
        report_path = tmp_path / "gate.json"
        code = main(
            ["gate", "--out", str(store_dir), "--json", str(report_path)]
        )
        assert code == 0
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["failed"] == 0
        assert data["completed_cells"] == data["planned_cells"]

    def test_corrupted_cell_fails_naming_the_invariant(
        self, store_dir, tmp_path, capsys
    ):
        corrupt_dir = tmp_path / "corrupt"
        shutil.copytree(store_dir, corrupt_dir)
        store = ResultsStore(corrupt_dir)
        victim = next(
            job for job in store.planned_jobs() if job.protocol == "SRP"
        )
        cell_path = store.jobs_dir / f"{victim.content_key}.json"
        cell = json.loads(cell_path.read_text(encoding="utf-8"))
        cell["summary"]["average_sequence_number"] = 7.0
        cell_path.write_text(json.dumps(cell), encoding="utf-8")

        code = main(["gate", "--out", str(corrupt_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "srp-sequence-numbers-zero" in out
        assert "VIOLATED" in out

    def test_partial_store_is_reported_and_strict_fails_it(
        self, store_dir, tmp_path, capsys
    ):
        partial_dir = tmp_path / "partial"
        shutil.copytree(store_dir, partial_dir)
        store = ResultsStore(partial_dir)
        victim = store.planned_jobs()[0]
        (store.jobs_dir / f"{victim.content_key}.json").unlink()

        assert main(["gate", "--out", str(partial_dir)]) == 0
        capsys.readouterr()
        assert main(["gate", "--out", str(partial_dir), "--strict"]) == 1
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_scale_mismatch_is_a_usage_error(self, store_dir, capsys):
        code = main(["gate", "--out", str(store_dir), "--scale", "paper"])
        assert code == 2
        assert "holds a 'smoke' sweep" in capsys.readouterr().err

    def test_missing_store_is_a_usage_error(self, tmp_path, capsys):
        code = main(["gate", "--out", str(tmp_path / "nowhere")])
        assert code == 2
        assert "not a sweep results store" in capsys.readouterr().err

    def test_list_needs_no_store(self, capsys):
        code = main(["gate", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "srp-sequence-numbers-zero" in out
        assert "Fig. 7" in out


class TestGateUnion:
    """``gate --union``: assert over several per-worker stores as one sweep."""

    @pytest.fixture()
    def halves(self, store_dir, tmp_path):
        source = ResultsStore(store_dir)
        split = []
        for name in ("worker-a", "worker-b"):
            half = ResultsStore(tmp_path / name)
            half.adopt_meta(source.require_meta())
            split.append(half)
        for index, job in enumerate(source.planned_jobs()):
            split[index % 2].put(job, source.get(job))
        return split

    def test_union_of_partial_stores_passes_strict(self, halves, capsys):
        first, second = halves
        # Alone, each half caps the invariants at inconclusive...
        assert main(["gate", "--out", str(first.root), "--strict"]) == 1
        capsys.readouterr()
        # ...their union is the complete sweep and passes outright, with no
        # merged directory materialised.
        code = main(
            [
                "gate",
                "--out",
                str(first.root),
                "--union",
                str(second.root),
                "--strict",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failed" in out
        assert not (first.root.parent / "merged").exists()

    def test_union_of_a_different_sweep_is_rejected(
        self, store_dir, tmp_path, capsys
    ):
        foreign = tmp_path / "foreign"
        assert (
            main(
                ["run", "--scale", "smoke", "--trials", "2", "--jobs", "2",
                 "--out", str(foreign), "--quiet", "--protocols", "SRP"]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["gate", "--out", str(store_dir), "--union", str(foreign)]
        )
        assert code == 2
        assert "different sweeps" in capsys.readouterr().err


class TestMergeCommand:
    def test_split_store_reassembles(self, store_dir, tmp_path, capsys):
        source = ResultsStore(store_dir)
        halves = []
        for name in ("half-a", "half-b"):
            half = ResultsStore(tmp_path / name)
            half.adopt_meta(source.require_meta())
            halves.append(half)
        for index, job in enumerate(source.planned_jobs()):
            halves[index % 2].put(job, source.get(job))

        merged = tmp_path / "merged"
        code = main(
            ["merge", "--out", str(merged)]
            + [str(half.root) for half in halves]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(complete)" in out
        # The merged store passes the same gate as the original.
        assert main(["gate", "--out", str(merged)]) == 0

    def test_mismatched_source_is_rejected(self, store_dir, tmp_path, capsys):
        foreign = tmp_path / "foreign"
        code = main(
            ["run", "--scale", "smoke", "--trials", "2", "--jobs", "2",
             "--out", str(foreign), "--quiet", "--protocols", "SRP"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["merge", "--out", str(tmp_path / "m"), str(store_dir), str(foreign)]
        )
        assert code == 2
        assert "different sweeps" in capsys.readouterr().err


class TestTrajectoryCommand:
    def test_sparklines_and_json_across_stores(
        self, store_dir, tmp_path, capsys
    ):
        json_path = tmp_path / "trajectory.json"
        code = main(
            [
                "trajectory",
                str(store_dir),
                str(store_dir),
                "--experiment",
                "fig7",
                "--json",
                str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig. 7" in out
        assert "▁▁" in out  # two identical runs -> flat sparkline
        data = json.loads(json_path.read_text(encoding="utf-8"))
        assert [p["label"] for p in data["fig7"]["protocols"]["SRP"]] == [
            "sweep-smoke",
            "sweep-smoke",
        ]

    def test_missing_store_is_a_usage_error(self, tmp_path, capsys):
        code = main(["trajectory", str(tmp_path / "nowhere")])
        assert code == 2
        assert "not a sweep results store" in capsys.readouterr().err
