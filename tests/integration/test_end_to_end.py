"""Integration tests: full trials, cross-protocol comparisons, loop freedom.

These tests exercise the same pipeline as the benchmark harness (scenario ->
network -> protocols -> metrics) at a reduced scale, and verify the properties
the paper's evaluation rests on: SRP stays loop-free and never increments its
sequence number, the shared-scenario design holds, and the qualitative
protocol ordering of Fig. 7 appears.
"""

import pytest

from repro.protocols import protocol_factory
from repro.sim.faults import FaultSpec
from repro.sim.monitor import LoopFreedomMonitor
from repro.sim.network import build_network, run_trial
from repro.workloads.scenario import scaled_scenario

from ..protocols.helpers import audit_routes, protocols_of, srp_route_violations

SMALL = dict(
    node_count=16,
    flow_count=3,
    duration=25.0,
    terrain_width=900.0,
    terrain_height=300.0,
)


def small_scenario(pause_time=0.0, seed=1):
    return scaled_scenario(pause_time=pause_time, seed=seed, **SMALL)


@pytest.fixture(scope="module")
def srp_network():
    """One mobile SRP trial, run once and inspected by several tests."""
    network = build_network(small_scenario(), protocol_factory("SRP"))
    network.run()
    return network


class TestSrpTrial(object):
    def test_traffic_was_offered_and_mostly_delivered(self, srp_network):
        summary = srp_network.stats.summary()
        assert summary.data_sent > 50
        assert summary.delivery_ratio > 0.5

    def test_successor_graphs_are_loop_free_at_end(self, srp_network):
        """Theorem 3 applied to the real protocol state after a mobile trial."""
        monitor = LoopFreedomMonitor(protocols_of(srp_network.nodes))
        assert monitor.check(srp_network.simulator.now) == []

    def test_labels_respect_topological_order_along_successor_edges(self, srp_network):
        """For every successor edge the stored successor ordering must be a
        feasible successor of the node's own ordering (Eq. 5 materialised)."""
        assert srp_route_violations(srp_network.nodes) == []

    def test_srp_never_increments_its_sequence_number(self, srp_network):
        for node in srp_network.nodes.values():
            assert node.protocol.sequence_number_metric() == 0

    def test_mac_drop_accounting_collected(self, srp_network):
        summary = srp_network.stats.summary()
        assert summary.mac_drops_per_node >= 0.0


class TestCrossProtocolComparison:
    @pytest.fixture(scope="class")
    def summaries(self):
        results = {}
        for protocol in ("SRP", "LDR", "AODV", "DSR", "OLSR"):
            results[protocol] = run_trial(
                small_scenario(seed=2), protocol_factory(protocol)
            )
        return results

    def test_all_protocols_deliver_something(self, summaries):
        for protocol, summary in summaries.items():
            assert summary.data_delivered > 0, protocol

    def test_offered_load_identical(self, summaries):
        sent = {summary.data_sent for summary in summaries.values()}
        assert len(sent) == 1

    def test_fig7_ordering_srp_zero_ldr_low_aodv_high(self, summaries):
        assert summaries["SRP"].average_sequence_number == 0.0
        assert (
            summaries["AODV"].average_sequence_number
            >= summaries["LDR"].average_sequence_number
        )
        assert summaries["AODV"].average_sequence_number > 0.0

    def test_olsr_has_highest_control_overhead(self, summaries):
        olsr = summaries["OLSR"].control_transmissions
        for protocol in ("SRP", "LDR", "AODV", "DSR"):
            assert olsr > summaries[protocol].control_transmissions

    def test_on_demand_overhead_is_bounded(self, summaries):
        """On-demand protocols only spend control packets on discoveries, so
        their load per delivered packet stays well below the proactive one."""
        for protocol in ("SRP", "LDR", "AODV", "DSR"):
            assert summaries[protocol].network_load < summaries["OLSR"].network_load


class TestMobilityEffects:
    def test_static_network_delivers_more_than_constant_mobility(self):
        mobile = run_trial(
            small_scenario(pause_time=0.0, seed=3), protocol_factory("SRP")
        )
        static = run_trial(
            small_scenario(pause_time=25.0, seed=3), protocol_factory("SRP")
        )
        assert static.delivery_ratio >= mobile.delivery_ratio - 0.05

    def test_determinism_same_seed_same_results(self):
        first = run_trial(small_scenario(seed=9), protocol_factory("SRP"))
        second = run_trial(small_scenario(seed=9), protocol_factory("SRP"))
        assert first.data_sent == second.data_sent
        assert first.data_delivered == second.data_delivered
        assert first.control_transmissions == second.control_transmissions

    def test_different_seeds_change_outcomes(self):
        first = run_trial(small_scenario(seed=1), protocol_factory("SRP"))
        second = run_trial(small_scenario(seed=5), protocol_factory("SRP"))
        assert (
            first.data_sent != second.data_sent
            or first.control_transmissions != second.control_transmissions
        )


class TestFailureInjection:
    def test_half_the_relays_failing_mid_trial_does_not_break_invariants(self):
        """Crash several nodes mid-trial for the rest of the run; the
        surviving SRP nodes keep loop-free state and keep delivering what is
        physically deliverable."""
        crashes = [
            FaultSpec.node_crash(node=node_id, start=10.0, duration=SMALL["duration"])
            for node_id in range(5, 10)
        ]
        scenario = small_scenario(seed=4).with_faults(crashes)
        network = build_network(scenario, protocol_factory("SRP"))
        summary = network.run()
        assert summary.data_sent > 0
        assert summary.delivery_ratio < run_trial(
            small_scenario(seed=4), protocol_factory("SRP")
        ).delivery_ratio
        # Loop freedom must survive the crashes.
        monitor = LoopFreedomMonitor(protocols_of(network.nodes))
        assert monitor.check(network.simulator.now) == []
        for node in network.nodes.values():
            assert node.protocol.sequence_number_metric() == 0


class TestLoopMonitorAcrossProtocols:
    """The loop monitor over every protocol's own route state, every 0.25 s of
    a mobile trial: measured for all six, asserted zero only for SRP (the
    per-protocol rates are recorded in EXPERIMENTS.md)."""

    @pytest.mark.parametrize("protocol", ["SRP", "LDR", "AODV", "DSR", "OLSR", "LSR"])
    def test_successor_graphs_are_checked_every_quarter_second(self, protocol):
        network = build_network(small_scenario(), protocol_factory(protocol))
        monitor = LoopFreedomMonitor(protocols_of(network.nodes))
        simulator = network.simulator
        audit_routes(simulator, lambda: monitor.check(simulator.now), until=25.0)
        summary = network.run()
        assert monitor.checks >= 100
        assert summary.data_delivered > 0
        if protocol == "SRP":
            assert monitor.violations == []
