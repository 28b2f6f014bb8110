"""Tests for scenarios and the CBR traffic generator."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.workloads.cbr import CbrTrafficManager
from repro.workloads.scenario import (
    PAPER_PAUSE_TIMES,
    PAPER_SCENARIO,
    Scenario,
    scaled_scenario,
)


class TestScenario:
    def test_paper_scenario_matches_section_v(self):
        assert PAPER_SCENARIO.node_count == 100
        assert PAPER_SCENARIO.terrain_width == 2200.0
        assert PAPER_SCENARIO.terrain_height == 600.0
        assert PAPER_SCENARIO.flow_count == 30
        assert PAPER_SCENARIO.packets_per_second == 4.0
        assert PAPER_SCENARIO.packet_size_bytes == 512
        assert PAPER_SCENARIO.max_speed == 20.0
        assert PAPER_SCENARIO.duration == 900.0
        assert PAPER_SCENARIO.phy.bitrate_bps == 2_000_000.0

    def test_paper_pause_times(self):
        assert PAPER_PAUSE_TIMES == (0, 50, 100, 200, 300, 500, 700, 900)

    def test_offered_load_matches_paper(self):
        # 30 flows x 4 pps = 120 pps network wide, just over 490 kbps.
        offered_pps = PAPER_SCENARIO.flow_count * PAPER_SCENARIO.packets_per_second
        assert offered_pps == 120.0
        assert offered_pps * PAPER_SCENARIO.packet_size_bytes * 8 == pytest.approx(
            491_520.0
        )

    def test_with_pause_time_and_seed_return_new_scenarios(self):
        base = scaled_scenario()
        changed = base.with_pause_time(300.0).with_seed(9)
        assert changed.pause_time == 300.0
        assert changed.seed == 9
        assert base.pause_time != 300.0 or base.seed != 9

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(node_count=1)
        with pytest.raises(ValueError):
            Scenario(duration=0)
        with pytest.raises(ValueError):
            Scenario(packets_per_second=0)

    def test_terrain_property(self):
        terrain = scaled_scenario().terrain
        assert terrain.width > 0 and terrain.height > 0


class FakeNode:
    """Captures originate_data calls without a real protocol stack."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.sent = []

    def originate_data(self, destination, size_bytes, flow_id=None):
        self.sent.append((destination, size_bytes, flow_id))


class TestCbrTrafficManager:
    def _run(self, *, flow_count=3, duration=20.0, seed=1, node_count=6):
        simulator = Simulator()
        nodes = {i: FakeNode(i) for i in range(node_count)}
        manager = CbrTrafficManager(
            simulator,
            nodes,
            random.Random(seed),
            flow_count=flow_count,
            packets_per_second=4.0,
            packet_size_bytes=512,
            mean_flow_duration=10.0,
            end_time=duration,
        )
        manager.start()
        simulator.run(until=duration)
        return manager, nodes, simulator

    def test_flows_are_created_and_packets_sent(self):
        manager, nodes, _ = self._run()
        assert len(manager.flows) >= 3
        total = sum(len(node.sent) for node in nodes.values())
        assert total > 0

    def test_sending_rate_close_to_nominal(self):
        manager, nodes, _ = self._run(flow_count=2, duration=30.0)
        total = sum(len(node.sent) for node in nodes.values())
        # 2 flows x 4 pps x 30 s = 240 nominal; allow slack for flow turnover.
        assert 120 <= total <= 300

    def test_source_differs_from_destination(self):
        manager, _, _ = self._run()
        for flow in manager.flows:
            assert flow.source != flow.destination

    def test_deterministic_given_seed(self):
        manager_a, nodes_a, _ = self._run(seed=3)
        manager_b, nodes_b, _ = self._run(seed=3)
        assert [(f.source, f.destination) for f in manager_a.flows] == [
            (f.source, f.destination) for f in manager_b.flows
        ]
        assert [len(nodes_a[i].sent) for i in nodes_a] == [
            len(nodes_b[i].sent) for i in nodes_b
        ]

    def test_different_seeds_differ(self):
        manager_a, _, _ = self._run(seed=1)
        manager_b, _, _ = self._run(seed=2)
        endpoints_a = [(f.source, f.destination) for f in manager_a.flows]
        endpoints_b = [(f.source, f.destination) for f in manager_b.flows]
        assert endpoints_a != endpoints_b

    def test_flows_replaced_when_they_end(self):
        manager, _, _ = self._run(flow_count=2, duration=60.0)
        # With a 10 s mean lifetime over 60 s, replacements must have occurred.
        assert len(manager.flows) > 2

    def test_no_packets_after_end_time(self):
        simulator = Simulator()
        nodes = {i: FakeNode(i) for i in range(4)}
        manager = CbrTrafficManager(
            simulator,
            nodes,
            random.Random(1),
            flow_count=2,
            packets_per_second=4.0,
            packet_size_bytes=512,
            mean_flow_duration=5.0,
            end_time=10.0,
        )
        manager.start()
        simulator.run()
        assert simulator.now <= 10.0 + 1.0

    def test_flow_interval(self):
        manager, _, _ = self._run()
        assert manager.flows[0].interval == pytest.approx(0.25)

    def test_rejects_negative_flow_count(self):
        with pytest.raises(ValueError):
            CbrTrafficManager(
                Simulator(),
                {},
                random.Random(1),
                flow_count=-1,
                packets_per_second=4.0,
                packet_size_bytes=512,
                mean_flow_duration=10.0,
                end_time=10.0,
            )
