"""The ``live`` subcommand: soak, store integration, and the live gate."""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.gate import live_invariants
from repro.experiments.store import ResultsStore

FAST = ["--time-scale", "0.02", "--duration", "40", "--warmup", "12"]


class TestLiveCommand:
    def test_loopback_soak_stores_results_and_passes_gate(self, tmp_path):
        out = tmp_path / "live-store"
        report_path = tmp_path / "soak.json"
        code = main(
            ["live", "--protocols", "LSR", "AODV", "--out", str(out),
             "--json", str(report_path)] + FAST
        )
        assert code == 0
        store = ResultsStore(out)
        results = store.load_results()
        assert results.protocols == ["LSR", "AODV"]
        for protocol in ("LSR", "AODV"):
            summary = results.summaries[(protocol, 0.0, 0)]
            assert summary.data_sent > 0
            assert summary.delivery_ratio >= 0.9
        document = json.loads(report_path.read_text())
        assert document["transport"] == "loopback"
        for name, entry in document["reports"].items():
            assert entry["violations"] == 0
        assert all(
            outcome["status"] == "pass"
            for outcome in document["gate"]["invariants"]
        )

    def test_unreachable_delivery_floor_fails(self, monkeypatch):
        # A floor above 1 is a usage error, so the soak misses the floor
        # instead: every report comes back with half its packets delivered.
        import dataclasses

        from repro.runtime import live

        soak = live.run_soak

        def lossy_soak(config):
            report = soak(config)
            delivered = report.summary.data_sent // 2
            summary = dataclasses.replace(report.summary, data_delivered=delivered)
            return dataclasses.replace(report, summary=summary)

        monkeypatch.setattr(live, "run_soak", lossy_soak)
        code = main(
            ["live", "--protocols", "LSR", "--delivery-floor", "0.75"] + FAST
        )
        assert code != 0

    def test_unknown_protocol_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exited:
            main(["live", "--protocols", "RIP"] + FAST)
        assert exited.value.code == 2
        # Registered, but it needs the simulator's global topology.
        with pytest.raises(SystemExit) as exited:
            main(["live", "--protocols", "Oracle"] + FAST)
        assert exited.value.code == 2

    def test_store_holding_a_different_sweep_is_refused(self, tmp_path):
        out = tmp_path / "store"
        assert main(["live", "--protocols", "LSR", "--out", str(out)] + FAST) == 0
        # Same store, different soak shape -> the sweep-mismatch exit code.
        code = main(
            ["live", "--protocols", "LSR", "--routers", "7", "--out", str(out)]
            + FAST
        )
        assert code == 3

    def test_gate_registry_live_reads_a_stored_soak(self, tmp_path):
        out = tmp_path / "store"
        assert main(["live", "--protocols", "LSR", "--out", str(out)] + FAST) == 0
        assert main(["gate", "--out", str(out), "--registry", "live",
                     "--strict"]) == 0


class TestLiveInvariants:
    def test_registry_defaults_cover_the_soakable_protocols(self):
        invariants = live_invariants()
        names = {invariant.name for invariant in invariants}
        assert "live-delivery-floor" in names
        floor = next(
            i for i in invariants if i.name == "live-delivery-floor"
        )
        assert "Oracle" not in floor.protocols
        assert "LSR" in floor.protocols

    def test_floor_is_parameterised(self):
        floor = next(
            i
            for i in live_invariants(("LSR",), delivery_floor=0.9)
            if i.name == "live-delivery-floor"
        )
        assert floor.lower == 0.9
        assert floor.protocols == ("LSR",)
