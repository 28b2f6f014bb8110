"""Tests for trial statistics, network assembly and the loop-freedom monitor."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.protocols import protocol_factory
from repro.sim.monitor import LoopFreedomMonitor, build_successor_graph, find_cycle
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


class FixedRoutes:
    """A protocol stand-in whose successor sets a test writes directly."""

    def __init__(self, **successors):
        self.hops = {destination: set(hops) for destination, hops in successors.items()}

    def successors(self, destination):
        return frozenset(self.hops.get(destination, ()))


class TestLoopFreedomMonitor:
    def test_clean_dag_check(self):
        protocols = {"A": FixedRoutes(T=["T"]), "B": FixedRoutes(T=["A", "T"])}
        protocols["T"] = FixedRoutes()
        monitor = LoopFreedomMonitor(protocols)
        assert monitor.check(0.0) == []
        assert monitor.is_clean
        assert monitor.checks == 1

    def test_cycle_detected_and_reported(self):
        protocols = {"A": FixedRoutes(T=["B"]), "B": FixedRoutes(T=["A"])}
        protocols["T"] = FixedRoutes()
        monitor = LoopFreedomMonitor(protocols)
        found = monitor.check(1.0)
        assert not monitor.is_clean
        assert found == monitor.violations
        [violation] = monitor.violations
        assert violation.destination == "T"
        assert violation.time == 1.0
        assert sorted(violation.cycle) == [("A", "B"), ("B", "A")]

    def test_per_destination_graphs_are_independent(self):
        protocols = {"A": FixedRoutes(T1=["B"]), "B": FixedRoutes(T2=["A"])}
        protocols.update(T1=FixedRoutes(), T2=FixedRoutes())
        monitor = LoopFreedomMonitor(protocols)
        monitor.check(0.0)
        assert monitor.is_clean

    def test_one_violation_per_cyclic_destination(self):
        protocols = {
            "A": FixedRoutes(T1=["B"], T2=["B"]),
            "B": FixedRoutes(T1=["A"], T2=["A"]),
        }
        protocols.update(T1=FixedRoutes(), T2=FixedRoutes())
        monitor = LoopFreedomMonitor(protocols)
        found = monitor.check(2.0)
        assert [violation.destination for violation in found] == ["T1", "T2"]

    def test_successor_graph_snapshot(self):
        monitor = LoopFreedomMonitor({"A": FixedRoutes(T=["T"]), "T": FixedRoutes()})
        assert monitor.successor_graph("T") == {"A": ("T",), "T": ()}

    def test_each_check_reads_the_protocols_anew(self):
        a, b = FixedRoutes(T=["B"]), FixedRoutes(T=["T"])
        monitor = LoopFreedomMonitor({"A": a, "B": b, "T": FixedRoutes()})
        monitor.check(0.0)
        b.hops["T"] = {"A"}  # the protocol repoints; the monitor holds no copy
        monitor.check(0.5)
        a.hops["T"] = {"T"}
        monitor.check(1.0)
        assert monitor.checks == 3
        assert [violation.time for violation in monitor.violations] == [0.5]


class TestFindCycle:
    """The monitor's own DFS against networkx, which it replaced in ``src/``."""

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.lists(st.integers(min_value=0, max_value=7), max_size=4),
            max_size=8,
        )
    )
    def test_agrees_with_networkx_on_random_digraphs(self, successors):
        graph = build_successor_graph(successors)
        oracle = nx.DiGraph([(tail, head) for tail in graph for head in graph[tail]])
        oracle.add_nodes_from(graph)
        cycle = find_cycle(graph)
        assert bool(cycle) == (not nx.is_directed_acyclic_graph(oracle))
        assert bool(find_cycle(oracle)) == bool(cycle)  # takes either graph type
        if cycle:
            assert all(oracle.has_edge(*edge) for edge in cycle)
            assert [tail for tail, _ in cycle[1:]] == [head for _, head in cycle[:-1]]
            assert cycle[-1][1] == cycle[0][0]

    @pytest.mark.parametrize(
        "successors, cyclic",
        [
            pytest.param({}, False, id="empty"),
            pytest.param({"A": []}, False, id="isolated-node"),
            pytest.param({"A": ["B"]}, False, id="successor-named-only-as-one"),
            pytest.param({"A": ["B"], "B": ["A"]}, True, id="two-cycle"),
            pytest.param(
                {"S": ["A", "B"], "A": ["T"], "B": ["T"]}, False, id="diamond"
            ),
            pytest.param({"A": ["B"], "B": ["C"], "C": ["A"]}, True, id="triangle"),
            pytest.param(
                {"A": ["B"], "C": ["D"], "D": ["C"]}, True, id="second-component"
            ),
            pytest.param(
                {"A": ["B", "C"], "B": ["C"], "C": []}, False, id="shortcut-edge"
            ),
        ],
    )
    def test_known_graphs(self, successors, cyclic):
        cycle = find_cycle(build_successor_graph(successors))
        assert bool(cycle) is cyclic
        # A reported cycle is closed and made of the graph's own edges.
        assert all(head in successors.get(tail, ()) for tail, head in cycle)
        if cycle:
            assert cycle[-1][1] == cycle[0][0]

    def test_build_successor_graph_includes_isolated_nodes(self):
        assert build_successor_graph({"A": ["B", "B"], "C": []}) == {
            "A": ("B",),
            "C": (),
            "B": (),
        }

    def test_self_loop_is_a_cycle(self):
        assert find_cycle(build_successor_graph({"A": ["A"]})) == [("A", "A")]

    def test_cycle_behind_a_shared_acyclic_prefix(self):
        graph = build_successor_graph(
            {"S": ["A", "B"], "A": ["T"], "B": ["C"], "C": ["D"], "D": ["B"]}
        )
        assert sorted(find_cycle(graph)) == [("B", "C"), ("C", "D"), ("D", "B")]

    def test_long_chains_need_no_recursion(self):
        chain = {node: [node + 1] for node in range(20_000)}
        assert find_cycle(build_successor_graph(chain)) == []
        chain[20_000] = [0]
        assert len(find_cycle(build_successor_graph(chain))) == 20_001
