"""The chaos layer: deterministic fault injection into the simulation.

PR 6's sim-side contract, in three parts:

* **Off-path**: a scenario with no fault specs builds a network with no
  fault machinery installed, serializes to the exact dict (and hence job
  content key) it had before the chaos layer existed, and produces the same
  trials.
* **Exactness under faults**: a *faulted* trial is still a pure function of
  its scenario — bit-identical across repeated runs, and to the faulted
  golden captures ``test_runtime_seam.py`` holds every protocol to.
* **Physics**: crashed nodes stop transmitting and receiving, blackouts
  silence the channel, partitions split the terrain, and the resilience
  counters (during/post-fault delivery, route-recovery time, heal burst)
  measure what they claim to.
"""

import pytest

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.sim.faults import (
    FAULT_PRESETS,
    FaultSchedule,
    FaultSpec,
    fault_preset,
)
from repro.sim.network import build_network, run_trial
from repro.workloads.scenario import Scenario, scaled_scenario


def smoke_scenario(pause_time: float = 0.0) -> Scenario:
    return EvaluationScale.smoke().scenario.with_pause_time(pause_time)


def churned(scenario: Scenario) -> Scenario:
    return scenario.with_faults(fault_preset("churn-partition", scenario))


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meteor", start=1.0, duration=1.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec.blackout(start=1.0, duration=0.0)

    def test_node_crash_requires_node(self):
        with pytest.raises(ValueError, match="node"):
            FaultSpec(kind="node_crash", start=1.0, duration=1.0)

    def test_partition_requires_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            FaultSpec(kind="partition", start=1.0, duration=1.0)

    def test_loss_burst_requires_rate_in_unit_interval(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultSpec.loss_burst(drop_rate=1.5, start=1.0, duration=1.0)

    def test_round_trips_through_dict(self):
        spec = FaultSpec.node_crash(node=3, start=2.5, duration=4.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = FaultSpec.blackout(start=1.0, duration=1.0).to_dict()
        data["severity"] = "bad"
        with pytest.raises(ValueError, match="severity"):
            FaultSpec.from_dict(data)


class TestScenarioSerialization:
    def test_fault_free_dict_is_unchanged(self):
        """No ``faults`` key when empty: content keys of every pre-existing
        sweep cell survive the chaos layer."""
        assert "faults" not in smoke_scenario().to_dict()

    def test_faulted_scenario_round_trips(self):
        scenario = churned(smoke_scenario())
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.faults == scenario.faults

    def test_faults_change_the_serialized_identity(self):
        clean = smoke_scenario()
        assert churned(clean).to_dict() != clean.to_dict()

    def test_presets_cover_every_registered_name(self):
        scenario = smoke_scenario()
        for name in FAULT_PRESETS:
            specs = fault_preset(name, scenario)
            assert specs, name
            assert all(isinstance(spec, FaultSpec) for spec in specs)
        with pytest.raises(ValueError, match="preset"):
            fault_preset("nope", scenario)


class TestOffPath:
    def test_no_faults_installs_nothing(self):
        network = build_network(smoke_scenario(), protocol_factory("SRP"))
        assert network.channel._faults is None
        assert all(not node.is_down for node in network.nodes.values())

    def test_empty_schedule_is_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(())


class TestExactnessUnderFaults:
    def test_faulted_trial_is_deterministic(self):
        scenario = churned(smoke_scenario())
        first = run_trial(scenario, protocol_factory("AODV"))
        second = run_trial(scenario, protocol_factory("AODV"))
        assert first == second

    def test_faults_actually_change_the_trial(self):
        clean = run_trial(smoke_scenario(), protocol_factory("SRP"))
        faulted = run_trial(churned(smoke_scenario()), protocol_factory("SRP"))
        assert faulted.data_delivered < clean.data_delivered


class TestFaultPhysics:
    def _tiny(self, **kwargs) -> Scenario:
        return scaled_scenario(
            node_count=6, flow_count=2, duration=10.0, seed=11
        ).with_pause_time(kwargs.pop("pause_time", 10.0))

    def test_crashed_node_goes_down_and_recovers(self):
        scenario = self._tiny().with_faults(
            [FaultSpec.node_crash(node=1, start=2.0, duration=3.0)]
        )
        network = build_network(scenario, protocol_factory("SRP"))
        node = network.nodes[1]
        network.simulator.schedule_at(3.0, lambda: flags.append(node.is_down))
        network.simulator.schedule_at(6.0, lambda: flags.append(node.is_down))
        flags = []
        network.run()
        assert flags == [True, False]

    def test_crash_drops_queued_frames_into_fault_counter(self):
        import random as random_module

        from repro.sim.channel import Channel
        from repro.sim.engine import Simulator
        from repro.sim.mac import Mac
        from repro.sim.packet import Packet, PacketKind
        from repro.sim.phy import PhyConfig

        simulator = Simulator()
        channel = Channel(simulator, PhyConfig())
        mac = Mac(
            "a",
            simulator,
            channel,
            random_module.Random(1),
            position_provider=lambda: (0.0, 0.0),
        )
        mac.set_handlers(lambda *args: None, lambda *args: None)
        for _ in range(3):
            mac.send(
                Packet(
                    kind=PacketKind.DATA,
                    source="a",
                    destination="b",
                    size_bytes=512,
                    created_at=0.0,
                ),
                "b",
            )
        drops_before = mac.stats.drops
        mac.power_down()
        # No event has run yet, so all three frames were still queued; the
        # queue losses land in the chaos counter, never in Fig. 3's metric.
        assert mac.stats.fault_drops == 3
        assert mac.stats.drops == drops_before
        # Sends while down are suppressed and counted the same way.
        mac.send(
            Packet(
                kind=PacketKind.DATA,
                source="a",
                destination="b",
                size_bytes=512,
                created_at=0.0,
            ),
            "b",
        )
        assert mac.stats.fault_drops == 4

    def test_blackout_suppresses_all_receptions(self):
        scenario = self._tiny().with_faults(
            [FaultSpec.blackout(start=0.0, duration=10.0)]
        )
        network = build_network(scenario, protocol_factory("SRP"))
        summary = network.run()
        assert summary.data_delivered == 0
        assert network.channel.stats.fault_suppressed > 0

    def test_partition_blocks_only_straddling_links(self):
        # All nodes static (pause = duration); boundary at mid-terrain.
        scenario = self._tiny().with_faults(
            [
                FaultSpec.partition(
                    boundary_x=EvaluationScale.smoke().scenario.terrain_width,
                    start=0.0,
                    duration=10.0,
                )
            ]
        )
        # Boundary beyond every node's x: nothing straddles, nothing blocked.
        network = build_network(scenario, protocol_factory("SRP"))
        network.run()
        assert network.channel.stats.fault_suppressed == 0

    def test_loss_burst_drops_a_fraction_of_receptions(self):
        scenario = self._tiny().with_faults(
            [FaultSpec.loss_burst(drop_rate=1.0, start=0.0, duration=10.0)]
        )
        network = build_network(scenario, protocol_factory("SRP"))
        summary = network.run()
        assert summary.data_delivered == 0
        assert network.channel.stats.fault_suppressed > 0


class TestResilienceMetrics:
    def test_phase_counters_partition_the_traffic(self):
        scenario = churned(smoke_scenario())
        summary = run_trial(scenario, protocol_factory("SRP"))
        assert summary.data_sent_during_fault > 0
        assert summary.data_sent_post_fault > 0
        assert (
            summary.data_sent_during_fault + summary.data_sent_post_fault
            <= summary.data_sent
        )
        assert 0.0 <= summary.delivery_ratio_during_fault <= 1.0
        assert 0.0 <= summary.delivery_ratio_post_fault <= 1.0

    def test_route_recovery_time_measured_from_heal(self):
        scenario = churned(smoke_scenario())
        summary = run_trial(scenario, protocol_factory("SRP"))
        assert summary.route_recovery_time >= 0.0
        schedule = FaultSchedule(scenario.faults)
        assert summary.route_recovery_time < scenario.duration - (
            schedule.heal_time() - 1.0
        )

    def test_clean_trial_reports_neutral_resilience_values(self):
        summary = run_trial(smoke_scenario(), protocol_factory("SRP"))
        assert summary.data_sent_during_fault == 0
        assert summary.delivery_ratio_during_fault == 0.0
        assert summary.route_recovery_time == -1.0
        assert summary.control_burst_on_heal == 0

    def test_srp_sequence_numbers_zero_under_churn(self):
        """The paper's headline claim survives crash/recover cycles."""
        scenario = churned(smoke_scenario())
        summary = run_trial(scenario, protocol_factory("SRP"))
        assert summary.average_sequence_number == 0.0


class _EdgeRadio:
    """A fixed radio that is also a crashable node for ``FaultSchedule``."""

    def __init__(self, node_id, position, received):
        self.node_id = node_id
        self._position = position
        self._received = received
        self.is_down = False

    def position(self):
        return self._position

    def is_transmitting(self):
        return False

    def radio_receive(self, frame, transmitter):
        self._received.append(self.node_id)

    def go_down(self):
        self.is_down = True

    def go_up(self):
        self.is_down = False


def edge_deliveries(specs, send_times):
    """Whether node 0's frame sent at each of ``send_times`` reaches node 1.

    Node 0 sits at x = 0 and node 1 at x = 100 (one hop apart, either side of
    x = 50); node 1 is the node a ``node_crash`` spec names.
    """
    import random as random_module

    from repro.sim.channel import Channel
    from repro.sim.engine import Simulator
    from repro.sim.packet import Frame, Packet, PacketKind
    from repro.sim.phy import PhyConfig

    simulator = Simulator()
    channel = Channel(simulator, PhyConfig(), max_node_speed=0.0)
    received = []
    nodes = {
        node_id: _EdgeRadio(node_id, (100.0 * node_id, 0.0), received)
        for node_id in (0, 1)
    }
    for node in nodes.values():
        channel.attach(node)
    FaultSchedule(specs).install(
        simulator, channel, nodes, rng=random_module.Random(3)
    )
    outcomes = []

    def send():
        before = len(received)
        packet = Packet(
            kind=PacketKind.DATA,
            source=0,
            destination=1,
            size_bytes=256,
            created_at=simulator.now,
        )
        channel.transmit(
            0, Frame(packet, 0, 1), lambda ok: outcomes.append(len(received) > before)
        )

    for when in send_times:
        simulator.schedule_at(when, send)
    simulator.run()
    return outcomes


class TestFaultWindowEdges:
    """Fault flips run at ``FAULT_PRIORITY``, before any same-instant event:
    a frame sent exactly at a window's start is already faulted and one sent
    exactly at its end already is not.  Sends are 10 ms from the other edges,
    well clear of the ~2 ms air time."""

    START, DURATION = 1.0, 2.0

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec.node_crash(node=1, start=START, duration=DURATION),
            FaultSpec.blackout(start=START, duration=DURATION),
            FaultSpec.partition(boundary_x=50.0, start=START, duration=DURATION),
            FaultSpec.loss_burst(drop_rate=1.0, start=START, duration=DURATION),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_window_is_closed_at_start_and_open_at_end(self, spec):
        sends = [spec.start - 0.01, spec.start, spec.end - 0.01, spec.end]
        assert edge_deliveries([spec], sends) == [True, False, False, True]

    def test_crash_during_air_time_loses_the_frame(self):
        # The frame is accepted before the crash but the receiver is down
        # when its end-of-air event runs.
        spec = FaultSpec.node_crash(node=1, start=1.0, duration=2.0)
        assert edge_deliveries([spec], [spec.start - 0.001]) == [False]

    def test_blackout_does_not_cut_a_frame_already_on_air(self):
        # Channel faults gate receptions as they start; one in progress when
        # the band goes dark completes.
        spec = FaultSpec.blackout(start=1.0, duration=2.0)
        assert edge_deliveries([spec], [spec.start - 0.001]) == [True]

    def test_overlapping_blackouts_nest(self):
        first = FaultSpec.blackout(start=1.0, duration=2.0)
        second = FaultSpec.blackout(start=2.0, duration=2.0)
        # Between the first window's end and the second's, the channel must
        # still be dark: a depth counter, not a flag, tracks them.
        assert edge_deliveries([first, second], [2.5, 3.5, 4.0]) == [
            False,
            False,
            True,
        ]


class TestScheduleGeometry:
    def test_activity_windows_merge_overlaps(self):
        schedule = FaultSchedule(
            [
                FaultSpec.blackout(start=1.0, duration=2.0),
                FaultSpec.blackout(start=2.0, duration=2.0),
                FaultSpec.blackout(start=6.0, duration=1.0),
            ]
        )
        assert schedule.activity_windows() == ((1.0, 4.0), (6.0, 7.0))
        assert schedule.heal_time() == 7.0

    def test_install_rejects_unknown_crash_node(self):
        scenario = self_tiny = scaled_scenario(
            node_count=4, flow_count=1, duration=5.0
        ).with_faults([FaultSpec.node_crash(node=99, start=1.0, duration=1.0)])
        with pytest.raises(ValueError, match="99"):
            build_network(self_tiny, protocol_factory("SRP"))
