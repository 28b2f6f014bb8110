"""The profiling subsystem: layer mapping, trial profiles, CLI."""

import json

import pytest

from repro.experiments.profile import (
    KNOWN_LAYERS,
    CollectorCost,
    TrialProfile,
    layer_of,
    profile_trial,
)
from repro.workloads.scenario import scaled_scenario


def tiny_scenario():
    return scaled_scenario(
        node_count=10,
        flow_count=2,
        duration=8.0,
        terrain_width=700,
        terrain_height=300,
    )


class TestLayerMapping:
    @pytest.mark.parametrize(
        ("filename", "layer"),
        [
            ("/repo/src/repro/sim/engine.py", "engine"),
            ("/repo/src/repro/sim/channel.py", "channel"),
            ("/repo/src/repro/sim/spatial.py", "channel"),
            ("/repo/src/repro/sim/mac.py", "mac"),
            ("/repo/src/repro/sim/mobility.py", "mobility"),
            ("/repo/src/repro/sim/packet.py", "packet"),
            ("/repo/src/repro/protocols/olsr.py", "protocol"),
            ("/repo/src/repro/core/fractions.py", "protocol"),
            ("/repo/src/repro/workloads/cbr.py", "workload"),
            ("/repo/src/repro/metrics/collectors.py", "metrics"),
            ("/repo/src/repro/sim/stats.py", "metrics"),
            ("/usr/lib/python3.11/random.py", "rng"),
            ("~", "builtins"),
            ("/usr/lib/python3.11/json/encoder.py", "other"),
        ],
    )
    def test_layer_of(self, filename, layer):
        assert layer_of(filename) == layer

    def test_windows_separators_are_normalised(self):
        assert layer_of("C:\\repo\\src\\repro\\sim\\mac.py") == "mac"

    def test_eventq_is_its_own_sublayer(self):
        assert layer_of("/repo/src/repro/sim/eventq.py") == "engine.queue"
        assert layer_of("/repo/src/repro/sim/eventq.py", "push") == "engine.queue"

    @pytest.mark.parametrize(
        "name", ["fire", "draw", "on_idle", "_attempt", "_try_dequeue", "proceed"]
    )
    def test_mac_timer_machinery_is_its_own_sublayer(self, name):
        assert layer_of("/repo/src/repro/sim/mac.py", name) == "mac.timers"

    def test_mac_frame_handling_stays_in_mac(self):
        assert layer_of("/repo/src/repro/sim/mac.py", "radio_receive") == "mac"
        # Timer names only split inside the MAC file, nowhere else.
        assert layer_of("/repo/src/repro/sim/channel.py", "fire") == "channel"


class TestProfileTrial:
    @pytest.fixture(scope="class")
    def profile(self):
        return profile_trial(tiny_scenario(), "SRP", scale_name="tiny")

    def test_layers_cover_the_trial(self, profile):
        assert isinstance(profile, TrialProfile)
        names = [cost.layer for cost in profile.layers]
        assert sorted(names) == sorted(KNOWN_LAYERS)
        assert profile.profiled_seconds > 0
        # The simulation layers, not the harness, dominate.
        busy = {c.layer for c in profile.layers if c.seconds > 0}
        assert {"engine", "mac", "channel", "protocol"} <= busy

    def test_metadata_and_summary(self, profile):
        assert profile.protocol == "SRP"
        assert profile.scale == "tiny"
        assert profile.events_processed > 0
        assert profile.summary.data_sent > 0

    def test_dict_shape_is_json_safe(self, profile):
        data = profile.to_dict()
        json.dumps(data)  # must not raise
        assert data["protocol"] == "SRP"
        assert {layer["layer"] for layer in data["layers"]} == set(KNOWN_LAYERS)
        assert "summary" in data

    def test_text_rendering(self, profile):
        text = profile.to_text()
        assert "Trial profile: SRP" in text
        assert "events/s" in text
        assert "collections (gen 0/1/2)" in text

    def test_collector_is_recorded(self, profile):
        collector = profile.gc
        assert isinstance(collector, CollectorCost)
        assert len(collector.collections) == 3
        # Network.run() starts with a full collection: at least one gen 2.
        assert collector.collections[2] >= 1
        assert 0.0 < collector.seconds < profile.wall_seconds
        # A trial makes no cyclic garbage for the collector to find.
        assert collector.collected == 0
        assert profile.to_dict()["gc"] == {
            "collections": list(collector.collections),
            "seconds": round(collector.seconds, 6),
            "collected": 0,
        }

    def test_collector_callback_is_removed_afterwards(self):
        import gc

        before = list(gc.callbacks)
        profile_trial(tiny_scenario(), "OLSR", scale_name="tiny")
        assert gc.callbacks == before

    def test_profiled_trial_matches_unprofiled_summary(self):
        """Instrumentation must not change the science."""
        from repro.protocols import protocol_factory
        from repro.sim.network import run_trial

        scenario = tiny_scenario()
        profile = profile_trial(scenario, "AODV", scale_name="tiny")
        plain = run_trial(scenario, protocol_factory("AODV"))
        assert profile.summary == plain

    def test_allocation_tracking(self):
        profile = profile_trial(
            tiny_scenario(), "SRP", scale_name="tiny", track_allocations=True
        )
        sampled = [c for c in profile.layers if c.allocated_kb is not None]
        assert sampled, "tracemalloc pass recorded no layer allocations"
        assert any(c.allocated_kb > 0 for c in sampled)


class TestProfileCli:
    def test_profile_smoke_json(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--scale",
                "smoke",
                "--protocol",
                "SRP",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["version"] == 1
        assert document["profiles"][0]["protocol"] == "SRP"
        assert document["profiles"][0]["scale"] == "smoke"
        assert set(document["profiles"][0]["gc"]) == {
            "collections",
            "seconds",
            "collected",
        }
        captured = capsys.readouterr()
        assert "Trial profile: SRP" in captured.out
        assert "  gc: " in captured.out

    def test_profile_faulted_trial(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "profile.json"
        argv = [
            "profile",
            "--scale",
            "smoke",
            "--protocol",
            "SRP",
            "--faults",
            "churn-partition",
            "--json",
            str(out),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "faults=churn-partition" in text
        recorded = json.loads(out.read_text(encoding="utf-8"))["profiles"][0]
        assert recorded["faults"] == "churn-partition"
        layers = {layer["layer"] for layer in recorded["layers"]}
        assert {"engine.queue", "mac.timers"} <= layers
