"""End-to-end tests of the sweep engine CLI (``python -m repro.experiments``).

Run in-process through ``main(argv)`` with a protocol subset of the smoke
scale so each command finishes in seconds: ``run`` populates a store and
writes ``results.json``, a second ``run``/``resume`` reuses every cell, and
``report`` reproduces the Table I / figure text from disk without simulating.
"""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.runner import SweepResults
from repro.experiments.store import ResultsStore

PROTOCOL_ARGS = ["--protocols", "SRP", "AODV"]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sweep-smoke"
    code = main(
        ["run", "--scale", "smoke", "--jobs", "2", "--out", str(out), "--quiet"]
        + PROTOCOL_ARGS
    )
    assert code == 0
    return out


class TestRun:
    def test_run_populates_the_store(self, store_dir):
        store = ResultsStore(store_dir)
        meta = store.require_meta()
        # smoke scale: 2 pause times x 1 trial x 2 protocols.
        assert meta["scale"] == "smoke"
        assert len(store.completed_keys()) == 4
        assert store.results_path.exists()

    def test_results_json_parses(self, store_dir):
        results = SweepResults.from_json(
            (store_dir / "results.json").read_text(encoding="utf-8")
        )
        assert len(results.summaries) == 4

    def test_second_run_recomputes_nothing(self, store_dir, capsys):
        code = main(
            ["run", "--scale", "smoke", "--jobs", "1", "--out", str(store_dir)]
            + PROTOCOL_ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 already in store, 0 to run" in out
        assert out.count("cached") == 4

    def test_conflicting_parameters_are_rejected(self, store_dir, capsys):
        code = main(
            ["run", "--scale", "benchmark", "--out", str(store_dir), "--quiet"]
            + PROTOCOL_ARGS
        )
        # 3, not argparse's 2: CI distinguishes "store holds a different
        # sweep" (wipe and restart) from a usage error (fail the job).
        assert code == 3
        assert "different sweep" in capsys.readouterr().err


class TestResume:
    def test_resume_completes_a_partial_store(self, store_dir, capsys):
        store = ResultsStore(store_dir)
        # Knock one cell out, as if the run had been killed mid-sweep.
        victim = store.planned_jobs()[0]
        removed = store.get(victim)
        (store.jobs_dir / f"{victim.content_key}.json").unlink()
        assert len(store.completed_keys()) == 3

        code = main(["resume", "--out", str(store_dir), "--quiet"])
        assert code == 0
        assert "3/4 cells already done" in capsys.readouterr().out
        store.invalidate_key_cache()  # the resume wrote through another instance
        assert len(store.completed_keys()) == 4
        assert store.get(victim) == removed  # deterministic re-run, same cell

    def test_resume_needs_an_existing_store(self, tmp_path, capsys):
        code = main(["resume", "--out", str(tmp_path / "nowhere")])
        assert code == 2
        assert "not a sweep results store" in capsys.readouterr().err


class TestWorkerAndStatus:
    """The distributed subcommands, single-worker end to end (the concurrent
    paths are covered in test_distributed.py)."""

    @pytest.fixture(scope="class")
    def worker_store(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("worker") / "shared"
        code = main(
            ["worker", "--store", str(out), "--scale", "smoke",
             "--worker-id", "solo", "--quiet"] + PROTOCOL_ARGS
        )
        assert code == 0
        return out

    def test_worker_initialises_and_completes_the_store(self, worker_store):
        store = ResultsStore(worker_store)
        assert store.require_meta()["scale"] == "smoke"
        assert len(store.completed_keys()) == 4
        assert store.results_path.exists()
        assert store.claims() == {}  # every lease released
        records = store.worker_records()
        assert list(records) == ["solo"]
        assert len(records["solo"]["completed"]) == 4

    def test_worker_store_matches_run_store(self, worker_store, store_dir):
        worker = ResultsStore(worker_store)
        serial = ResultsStore(store_dir)
        assert serial.diff_cells(worker) == []

    def test_worker_without_meta_or_scale_is_an_error(self, tmp_path, capsys):
        code = main(["worker", "--store", str(tmp_path / "empty")])
        assert code == 2
        assert "no sweep" in capsys.readouterr().err

    def test_worker_rejects_shape_flags_without_scale(
        self, worker_store, capsys
    ):
        # Silently ignoring these would look like sharding while actually
        # running the store's full job list.
        code = main(
            ["worker", "--store", str(worker_store), "--protocols", "SRP"]
        )
        assert code == 2
        assert "--scale" in capsys.readouterr().err

    def test_worker_bad_options_are_usage_errors(
        self, worker_store, tmp_path, capsys
    ):
        code = main(
            ["worker", "--store", str(worker_store), "--worker-id", "a/b"]
        )
        assert code == 2
        assert "filesystem-safe" in capsys.readouterr().err
        # Against a *fresh* store the usage error must also not leave a
        # stamped directory behind (a retry with another --scale would
        # otherwise hit the sweep-mismatch exit 3).
        fresh = tmp_path / "fresh"
        code = main(
            ["worker", "--store", str(fresh), "--scale", "smoke",
             "--worker-id", "a/b"]
        )
        assert code == 2
        assert "filesystem-safe" in capsys.readouterr().err
        assert not fresh.exists()

    def test_worker_scale_conflict_exits_3(self, worker_store, capsys):
        code = main(
            ["worker", "--store", str(worker_store), "--scale", "benchmark",
             "--quiet"] + PROTOCOL_ARGS
        )
        assert code == 3
        assert "different sweep" in capsys.readouterr().err

    def test_status_reports_completion_and_workers(
        self, worker_store, tmp_path, capsys
    ):
        json_path = tmp_path / "status.json"
        code = main(
            ["status", "--out", str(worker_store), "--json", str(json_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 cells (complete)" in out
        assert "worker solo: 4 cells completed" in out
        status = json.loads(json_path.read_text(encoding="utf-8"))
        assert status["completed_cells"] == status["planned_cells"] == 4
        assert status["claims"] == []

    def test_status_needs_an_existing_store(self, tmp_path, capsys):
        code = main(["status", "--out", str(tmp_path / "nowhere")])
        assert code == 2
        assert "not a sweep results store" in capsys.readouterr().err


class TestReport:
    def test_report_renders_all_experiments_from_disk(self, store_dir, capsys):
        code = main(["report", "--out", str(store_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        for figure_number in range(3, 8):
            assert f"Fig. {figure_number}" in out

    def test_report_single_experiment(self, store_dir, capsys):
        code = main(["report", "--out", str(store_dir), "--experiment", "fig4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "Table I" not in out

    def test_report_warns_on_partial_store(self, store_dir, tmp_path, capsys):
        store = ResultsStore(store_dir)
        partial = ResultsStore(tmp_path / "partial")
        partial.root.mkdir(parents=True)
        meta = store.require_meta()
        partial.meta_path.write_text(json.dumps(meta), encoding="utf-8")
        jobs = store.planned_jobs()
        partial.put(jobs[0], store.get(jobs[0]))

        code = main(["report", "--out", str(partial.root)])
        assert code == 0
        captured = capsys.readouterr()
        assert "1/4 cells" in captured.err
        assert "Table I" in captured.out

    def test_report_needs_an_existing_store(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path / "nowhere")])
        assert code == 2
        assert "not a sweep results store" in capsys.readouterr().err

    def test_report_on_missing_path_creates_nothing(self, tmp_path):
        target = tmp_path / "typo-dir"
        main(["report", "--out", str(target)])
        assert not target.exists()  # read-only commands must not litter


class TestReadingCommandsLoadNoRuntime:
    """The commands that only read stores load no process pool, lease code,
    socket or asyncio runtime: each subcommand imports what it runs."""

    RUNTIME = (
        "asyncio",
        "concurrent.futures",
        "multiprocessing",
        "repro.experiments.distributed",
        "repro.experiments.executor",
        "repro.runtime.live",
        "socket",
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["gate", "--list"],
            ["gate", "--out", "{store}"],
            ["report", "--out", "{store}"],
            ["merge", "--out", "{merged}", "{store}"],
            ["trajectory", "{store}"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_command_loads_none_of_the_runtime(self, store_dir, tmp_path, argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        argv = [a.format(store=store_dir, merged=tmp_path / "m") for a in argv]
        script = (
            "import sys\n"
            "from repro.experiments.__main__ import main\n"
            f"code = main({argv!r})\n"
            f"print(code, [m for m in {self.RUNTIME!r} if m in sys.modules])\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"


class TestRetiredStoreVersion:
    """A store written before ``STORE_VERSION`` 2 holds cells simulated under
    the retired polling MAC model under the *same* content keys, so every
    command that would read or extend it must refuse, in one line."""

    @pytest.fixture()
    def v1_store(self, store_dir, tmp_path):
        import shutil

        out = tmp_path / "sweep-v1"
        shutil.copytree(store_dir, out)
        for path in [out / "sweep.json", *(out / "jobs").glob("*.json")]:
            document = json.loads(path.read_text(encoding="utf-8"))
            document["version"] = 1
            path.write_text(json.dumps(document), encoding="utf-8")
        # One cell missing, so a `resume` that got past the check would
        # simulate it under the new model next to the old cells.
        next((out / "jobs").glob("*.json")).unlink()
        return out

    @pytest.mark.parametrize(
        "argv",
        [
            ["resume", "--quiet", "--out"],
            ["gate", "--out"],
            ["report", "--out"],
            ["status", "--out"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_refuses_in_one_line(self, v1_store, capsys, argv):
        cells_before = sorted(p.name for p in (v1_store / "jobs").iterdir())
        code = main(argv + [str(v1_store)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "incompatible store version (1; this code reads 2)" in lines[0]
        assert "MAC model retired in PR 12" in lines[0]
        assert "fresh directory" in lines[0]
        assert sorted(p.name for p in (v1_store / "jobs").iterdir()) == cells_before

    def test_run_into_a_v1_store_refuses_too(self, v1_store, capsys):
        code = main(
            ["run", "--scale", "smoke", "--out", str(v1_store), "--quiet"]
            + PROTOCOL_ARGS
        )
        # 3 = "this directory cannot take the sweep; use a fresh one", the
        # same class as a store that holds a different sweep.
        assert code == 3
        assert "incompatible store version" in capsys.readouterr().err

    def test_nightly_ci_wipes_a_restored_v1_store(self, v1_store, tmp_path):
        """The nightly job restores the newest artifact, which after the
        version bump is a v1 store; the step that inspects it must wipe it
        (so ``run`` starts fresh) rather than die and re-upload it forever."""
        import re
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        workflow = (repo / ".github/workflows/ci.yml").read_text(encoding="utf-8")
        step = workflow.split("Keep the restored store only if it needs finishing")[1]
        snippet = re.search(r"python - <<'EOF'\n(.*?)\n\s*EOF\n", step, re.S).group(1)

        restored = tmp_path / "paper-tier-store"
        v1_store.rename(restored)
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(snippet)],
            cwd=tmp_path,
            env={"PYTHONPATH": str(repo / "src")},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "starting fresh" in done.stdout
        assert not restored.exists()


class TestRetiredPhyField:
    """A ``sweep.json`` whose phy block names a field this code does not
    know — one the retired finite-propagation-delay channel wrote, or a
    hand-edited typo — fails every reading command in one line, exit 2."""

    @pytest.fixture(params=["retired", "unknown"])
    def phy_store(self, request, store_dir, tmp_path):
        import shutil

        field, value, expected = {
            "retired": (
                "propagation_delay_s_per_m",
                3.336e-9,
                "finite-propagation-delay channel was retired",
            ),
            "unknown": ("bogus", 1, "unknown phy fields: ['bogus']"),
        }[request.param]
        out = tmp_path / "sweep-phy"
        shutil.copytree(store_dir, out)
        meta_path = out / "sweep.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["scenario"]["phy"][field] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        return out, field, expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["resume", "--quiet", "--out"],
            ["status", "--out"],
            ["gate", "--out"],
            ["report", "--out"],
            ["worker", "--quiet", "--store"],
            ["merge", "--out", "{merged}"],
            ["trajectory"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_refuses_in_one_line(self, phy_store, tmp_path, capsys, argv):
        out, field, expected = phy_store
        argv = [arg.replace("{merged}", str(tmp_path / "merged")) for arg in argv]
        cells_before = sorted(p.name for p in (out / "jobs").iterdir())
        code = main(argv + [str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.out + captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert field in lines[0] and expected in lines[0]
        assert sorted(p.name for p in (out / "jobs").iterdir()) == cells_before

    def test_run_into_the_store_refuses_too(self, phy_store, capsys):
        out, _, _ = phy_store
        cells_before = sorted(p.name for p in (out / "jobs").iterdir())
        code = main(
            ["run", "--scale", "smoke", "--out", str(out), "--quiet"]
            + PROTOCOL_ARGS
        )
        # 3, like any store holding another sweep: its scenario is not the
        # one this code would plan, so nothing may be simulated into it.
        assert code == 3
        assert "different sweep" in capsys.readouterr().err
        assert sorted(p.name for p in (out / "jobs").iterdir()) == cells_before


class TestMalformedFaultSpec:
    """A ``sweep.json`` whose fault plan holds a malformed spec — an unknown
    field, a non-finite time, a missing duration — fails every reading
    command in one line naming ``faults[i]`` and the field, exit 2."""

    @pytest.fixture(
        params=[
            ({"bogus": 1}, "unknown fault spec fields: ['bogus']"),
            ({"start": float("nan")}, "fault start must be a finite number"),
            ({"duration": None}, "missing fault spec fields: ['duration']"),
        ],
        ids=["unknown", "nan-start", "no-duration"],
    )
    def fault_store(self, request, store_dir, tmp_path):
        import shutil

        change, expected = request.param
        out = tmp_path / "sweep-fault"
        shutil.copytree(store_dir, out)
        meta_path = out / "sweep.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        spec = {"kind": "blackout", "start": 1.0, "duration": 2.0, **change}
        meta["scenario"]["faults"] = [{k: v for k, v in spec.items() if v is not None}]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        return out, expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["resume", "--quiet", "--out"],
            ["status", "--out"],
            ["report", "--out"],
            ["worker", "--quiet", "--store"],
            ["trajectory"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_refuses_in_one_line(self, fault_store, capsys, argv):
        out, expected = fault_store
        cells_before = sorted(p.name for p in (out / "jobs").iterdir())
        code = main(argv + [str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.out + captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "faults[0]: " in lines[0] and expected in lines[0]
        assert sorted(p.name for p in (out / "jobs").iterdir()) == cells_before


#: A worker that would initialise a fresh store ``d``.
FRESH_WORKER = ["worker", "--store", "d", "--scale", "smoke"]
#: A fast loopback soak into a fresh store ``d`` (a bad number must stop it).
FAST_LIVE = ["live", "--time-scale", "0.02", "--out", "d"]


class TestMistypedInputFailsClosed:
    """A mistyped protocol name or an out-of-range number is a usage error
    (at parse time, or before any work for a bad combination such as a live
    warmup past the duration): exit 2, one ``error:`` line naming the bad
    value, and nothing written — no store directory, no profile JSON."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["run", "--scale", "smoke", "--protocols", "SRP", "Bogus"], "'Bogus'"),
            (
                ["run", "--scale", "smoke", "--protocols", "Bogus", "--out", "d"],
                "'Bogus'",
            ),
            (
                ["worker", "--store", "d", "--scale", "smoke", "--protocols", "Bogus"],
                "'Bogus'",
            ),
            (["live", "--protocols", "Bogus", "--out", "d"], "'Bogus'"),
            (["profile", "--protocol", "Bogus", "--json", "p.json"], "'Bogus'"),
            (["profile", "--pause", "-5", "--json", "p.json"], "-5"),
            (["run", "--jobs", "0"], "got 0"),
            (["run", "--jobs", "-3", "--out", "d"], "got -3"),
            (["run", "--trials", "0"], "got 0"),
            (["run", "--trials", "-2", "--out", "d"], "got -2"),
            (["run", "--retries", "-1"], "got -1"),
            (["run", "--trial-timeout", "0"], "got 0"),
            (["run", "--retry-backoff", "-0.5"], "got -0.5"),
            (["resume", "--out", "d", "--jobs", "0"], "got 0"),
            (["resume", "--out", "d", "--trial-timeout", "-1"], "got -1"),
            ([*FRESH_WORKER, "--jobs", "0"], "got 0"),
            ([*FRESH_WORKER, "--trials", "0"], "got 0"),
            ([*FRESH_WORKER, "--retries", "-1"], "got -1"),
            ([*FRESH_WORKER, "--lease-ttl", "0"], "got 0"),
            ([*FRESH_WORKER, "--poll-interval", "0"], "got 0"),
            (["status", "--out", "d", "--lease-ttl", "-5"], "got -5"),
            (["live", "--max-ttl", "0", "--out", "d"], "got 0"),
            (["live", "--dedup-window", "0", "--out", "d"], "got 0"),
            (["live", "--duration", "-1", "--out", "d"], "got -1"),
            (["live", "--warmup", "-5", "--out", "d"], "got -5"),
            (
                ["live", "--duration", "10", "--warmup", "12", "--out", "d"],
                "no traffic window",
            ),
            (["run", "--trial-timeout", "inf", "--out", "d"], "got inf"),
            (
                ["run", "--retry-backoff", "inf", "--trial-timeout", "1e-9"],
                "got inf",
            ),
            ([*FAST_LIVE, "--rate", "inf"], "got inf"),
            ([*FAST_LIVE, "--duration", "inf"], "got inf"),
            ([*FAST_LIVE, "--rate", "nan"], "got nan"),
            ([*FAST_LIVE, "--rate", "0"], "got 0"),
            ([*FAST_LIVE, "--delivery-floor", "nan"], "got nan"),
            ([*FAST_LIVE, "--delivery-floor", "-1"], "got -1"),
            ([*FAST_LIVE, "--delivery-floor", "1.5"], "got 1.5"),
            ([*FAST_LIVE, "--time-scale", "nan"], "got nan"),
            ([*FAST_LIVE, "--time-scale", "0"], "got 0"),
            ([*FAST_LIVE, "--routers", "1"], "got 1"),
            ([*FAST_LIVE, "--flows", "0"], "got 0"),
        ],
        ids=[
            "run-default-out",
            "run",
            "worker",
            "live",
            "profile",
            "profile-pause",
            "run-jobs-0",
            "run-jobs-negative",
            "run-trials-0",
            "run-trials-negative",
            "run-retries-negative",
            "run-trial-timeout-0",
            "run-retry-backoff-negative",
            "resume-jobs-0",
            "resume-trial-timeout-negative",
            "worker-jobs-0",
            "worker-trials-0",
            "worker-retries-negative",
            "worker-lease-ttl-0",
            "worker-poll-interval-0",
            "status-lease-ttl-negative",
            "live-max-ttl-0",
            "live-dedup-window-0",
            "live-duration-negative",
            "live-warmup-negative",
            "live-warmup-past-duration",
            "run-trial-timeout-inf",
            "run-retry-backoff-inf",
            "live-rate-inf",
            "live-duration-inf",
            "live-rate-nan",
            "live-rate-0",
            "live-delivery-floor-nan",
            "live-delivery-floor-negative",
            "live-delivery-floor-above-1",
            "live-time-scale-nan",
            "live-time-scale-0",
            "live-routers-1",
            "live-flows-0",
        ],
    )
    def test_usage_error_writes_nothing(self, tmp_path, monkeypatch, capsys, argv, bad):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and bad in errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_every_registered_protocol_is_accepted(self):
        from repro.experiments.__main__ import build_parser
        from repro.protocols import PROTOCOLS

        args = build_parser().parse_args(["run", "--protocols", *PROTOCOLS])
        assert args.protocols == list(PROTOCOLS)
        args = build_parser().parse_args(["profile", "--pause", "0"])
        assert args.pause == 0.0
