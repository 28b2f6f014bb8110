"""Tests for trial statistics, network assembly and the loop-freedom monitor."""

import pytest

from repro.protocols import protocol_factory
from repro.sim.monitor import LoopFreedomMonitor
from repro.sim.network import build_network, run_trial
from repro.sim.stats import TrialStats
from repro.workloads.scenario import scaled_scenario


class TestTrialStats:
    def test_delivery_ratio(self):
        stats = TrialStats()
        for _ in range(4):
            stats.record_data_sent()
        stats.record_data_delivered(uid=1, latency=0.5)
        stats.record_data_delivered(uid=2, latency=1.5)
        summary = stats.summary()
        assert summary.delivery_ratio == pytest.approx(0.5)
        assert summary.mean_latency == pytest.approx(1.0)

    def test_duplicate_deliveries_not_double_counted(self):
        stats = TrialStats()
        stats.record_data_sent()
        stats.record_data_delivered(uid=7, latency=0.1)
        stats.record_data_delivered(uid=7, latency=0.2)
        summary = stats.summary()
        assert summary.data_delivered == 1
        assert summary.duplicate_deliveries == 1
        assert summary.delivery_ratio == pytest.approx(1.0)

    def test_network_load_normalised_by_delivered(self):
        stats = TrialStats()
        stats.record_data_sent()
        stats.record_data_delivered(uid=1, latency=0.1)
        for _ in range(5):
            stats.record_control_transmission()
        assert stats.summary().network_load == pytest.approx(5.0)

    def test_network_load_when_nothing_delivered(self):
        stats = TrialStats()
        for _ in range(10):
            stats.record_data_sent()
        for _ in range(20):
            stats.record_control_transmission()
        assert stats.summary().network_load == pytest.approx(2.0)

    def test_empty_trial_has_zero_metrics(self):
        summary = TrialStats().summary()
        assert summary.delivery_ratio == 0.0
        assert summary.network_load == 0.0
        assert summary.mean_latency == 0.0

    def test_per_node_rollups(self):
        stats = TrialStats()
        stats.record_mac_drops("a", 4)
        stats.record_mac_drops("b", 6)
        stats.record_sequence_number("a", 10)
        stats.record_sequence_number("b", 0)
        summary = stats.summary()
        assert summary.mac_drops_per_node == pytest.approx(5.0)
        assert summary.average_sequence_number == pytest.approx(5.0)


class TestNetworkAssembly:
    def test_build_network_creates_all_nodes(self):
        scenario = scaled_scenario(node_count=10, flow_count=2, duration=5.0)
        network = build_network(scenario, protocol_factory("SRP"))
        assert len(network.nodes) == 10
        for node in network.nodes.values():
            assert node.protocol is not None
            assert node.protocol.name == "SRP"

    def test_same_seed_same_traffic_across_protocols(self):
        scenario = scaled_scenario(node_count=12, flow_count=3, duration=10.0, seed=5)
        srp = build_network(scenario, protocol_factory("SRP"))
        aodv = build_network(scenario, protocol_factory("AODV"))
        srp_summary = srp.run()
        aodv_summary = aodv.run()
        # The offered load (packets sent) is identical: same flows, same times.
        assert srp_summary.data_sent == aodv_summary.data_sent
        assert [f.source for f in srp.traffic.flows] == [
            f.source for f in aodv.traffic.flows
        ]

    def test_run_trial_returns_summary(self):
        scenario = scaled_scenario(
            node_count=8,
            flow_count=2,
            duration=8.0,
            terrain_width=600,
            terrain_height=300,
        )
        summary = run_trial(scenario, protocol_factory("SRP"), static_positions=True)
        assert summary.data_sent > 0
        assert 0.0 <= summary.delivery_ratio <= 1.0

    def test_static_positions_disable_mobility(self):
        scenario = scaled_scenario(node_count=6, flow_count=1, duration=5.0)
        network = build_network(
            scenario, protocol_factory("SRP"), static_positions=True
        )
        node = next(iter(network.nodes.values()))
        start = node.position()
        network.run()
        assert node.position() == start


class TestLoopFreedomMonitor:
    def test_clean_dag_recording(self):
        monitor = LoopFreedomMonitor()
        monitor.record_successors(0.0, "T", "A", ["T"])
        monitor.record_successors(0.1, "T", "B", ["A", "T"])
        assert monitor.is_clean
        assert monitor.checks == 2

    def test_cycle_detected_and_reported(self):
        monitor = LoopFreedomMonitor()
        monitor.record_successors(0.0, "T", "A", ["B"])
        monitor.record_successors(1.0, "T", "B", ["A"])
        assert not monitor.is_clean
        violation = monitor.violations[0]
        assert violation.destination == "T"
        assert violation.time == 1.0
        assert sorted(violation.cycle) == [("A", "B"), ("B", "A")]

    def test_per_destination_graphs_are_independent(self):
        monitor = LoopFreedomMonitor()
        monitor.record_successors(0.0, "T1", "A", ["B"])
        monitor.record_successors(0.0, "T2", "B", ["A"])
        assert monitor.is_clean

    def test_successor_graph_snapshot(self):
        monitor = LoopFreedomMonitor()
        monitor.record_successors(0.0, "T", "A", ["T"])
        graph = monitor.successor_graph("T")
        assert set(graph.edges) == {("A", "T")}
