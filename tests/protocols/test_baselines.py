"""Tests for the baseline protocols: AODV, LDR, DSR, OLSR and the oracle."""

import pytest

from repro.protocols import (
    PROTOCOLS,
    protocol_factory,
)
from repro.protocols.dsr import SourceRoute
from repro.protocols.common import INFINITE_DISTANCE, RouteEntry

from .helpers import StaticNetwork, chain_positions, grid_positions


def build_chain(protocol_name, length=5):
    network = StaticNetwork(chain_positions(length), protocol_factory(protocol_name))
    network.start()
    return network


class TestRegistry:
    def test_all_paper_protocols_registered(self):
        assert set(PROTOCOLS) >= {"SRP", "LDR", "AODV", "DSR", "OLSR"}

    def test_factory_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            protocol_factory("NOPE")

    def test_factory_creates_independent_instances(self):
        factory = protocol_factory("AODV")
        assert factory(1) is not factory(2)


@pytest.mark.parametrize("protocol_name", ["AODV", "LDR", "DSR", "Oracle"])
class TestOnDemandDelivery:
    def test_multihop_delivery(self, protocol_name):
        network = build_chain(protocol_name, 5)
        network.send_data(0, 4)
        network.run(until=5.0)
        summary = network.summary()
        assert summary.data_delivered == 1

    def test_bidirectional_delivery(self, protocol_name):
        network = build_chain(protocol_name, 4)
        network.send_data(0, 3)
        network.send_data(3, 0)
        network.run(until=5.0)
        assert network.summary().data_delivered == 2

    def test_unreachable_destination_is_not_delivered(self, protocol_name):
        positions = dict(chain_positions(3))
        positions[99] = (9000.0, 9000.0)
        network = StaticNetwork(positions, protocol_factory(protocol_name))
        network.start()
        network.send_data(0, 99)
        network.run(until=10.0)
        assert network.summary().data_delivered == 0


class TestOlsrDelivery:
    def test_proactive_delivery_after_convergence(self):
        network = build_chain("OLSR", 4)
        # Let HELLO/TC flooding converge before offering traffic.
        network.run(until=12.0)
        network.send_data(0, 3)
        network.run(until=16.0)
        assert network.summary().data_delivered == 1

    def test_no_route_before_convergence_drops_data(self):
        network = build_chain("OLSR", 4)
        network.send_data(0, 3)  # at t=0 no topology is known yet
        network.run(until=0.5)
        assert network.protocol(0).data_drops >= 1

    def test_topology_and_neighbors_learned(self):
        network = build_chain("OLSR", 4)
        network.run(until=12.0)
        middle = network.protocol(1)
        assert 0 in middle.neighbors and 2 in middle.neighbors
        assert middle.next_hop(3) == 2

    def test_olsr_control_overhead_is_periodic(self):
        network = build_chain("OLSR", 4)
        network.run(until=20.0)
        # Even with zero data traffic OLSR keeps transmitting control packets.
        assert network.stats.control_transmissions > 20


class TestAodvSpecifics:
    def test_sequence_number_grows_with_discoveries(self):
        network = build_chain("AODV", 4)
        network.send_data(0, 3)
        network.run(until=3.0)
        assert network.protocol(0).own_sequence_number >= 1
        assert network.protocol(3).own_sequence_number >= 1

    def test_route_update_prefers_fresher_sequence_number(self):
        network = StaticNetwork({0: (0, 0), 1: (100, 0)}, protocol_factory("AODV"))
        network.start()
        protocol = network.protocol(0)
        assert protocol._update_route("D", next_hop=1, sequence_number=5, hop_count=3)
        assert not protocol._update_route(
            "D", next_hop=1, sequence_number=4, hop_count=1
        )
        assert protocol._update_route("D", next_hop=1, sequence_number=5, hop_count=2)
        assert protocol._update_route("D", next_hop=1, sequence_number=6, hop_count=9)

    def test_link_failure_invalidates_and_inflates_sequence_number(self):
        network = build_chain("AODV", 4)
        network.send_data(0, 3)
        network.run(until=3.0)
        protocol = network.protocol(0)
        entry = protocol.routes[3]
        assert entry.valid
        before = entry.sequence_number
        from repro.sim.packet import Packet, PacketKind

        dummy = Packet(PacketKind.DATA, 0, 3, 512, network.simulator.now)
        protocol.handle_link_failure(dummy, entry.next_hop)
        route = protocol.routes[3]
        assert not route.valid or route.sequence_number > before

    def test_aodv_metric_reports_own_sequence_number(self):
        network = build_chain("AODV", 3)
        network.send_data(0, 2)
        network.run(until=3.0)
        assert network.protocol(0).sequence_number_metric() == network.protocol(
            0
        ).own_sequence_number


class TestLdrSpecifics:
    def test_in_order_condition(self):
        network = StaticNetwork({0: (0, 0), 1: (100, 0)}, protocol_factory("LDR"))
        network.start()
        protocol = network.protocol(0)
        entry = RouteEntry("D", sequence_number=3, feasible_distance=4.0)
        assert protocol._in_order(entry, 4, 100.0)      # fresher sn
        assert protocol._in_order(entry, 3, 3.0)        # same sn, smaller distance
        assert not protocol._in_order(entry, 3, 4.0)    # same sn, not smaller
        assert not protocol._in_order(entry, 2, 1.0)    # older sn

    def test_feasible_distance_never_increases_within_sequence_number(self):
        network = StaticNetwork({0: (0, 0), 1: (100, 0)}, protocol_factory("LDR"))
        network.start()
        protocol = network.protocol(0)
        assert protocol._accept_route("D", 1, sequence_number=2, distance=5.0)
        assert protocol.routes["D"].feasible_distance == 5.0
        assert protocol._accept_route("D", 1, sequence_number=2, distance=3.0)
        assert protocol.routes["D"].feasible_distance == 3.0
        # A longer route at the same sequence number is rejected outright.
        assert not protocol._accept_route("D", 1, sequence_number=2, distance=4.0)
        # A fresher sequence number resets the feasible distance.
        assert protocol._accept_route("D", 1, sequence_number=3, distance=9.0)
        assert protocol.routes["D"].feasible_distance == 9.0

    def test_new_node_has_infinite_feasible_distance(self):
        assert RouteEntry("D").feasible_distance == INFINITE_DISTANCE

    def test_ldr_sequence_numbers_grow_slower_than_aodv(self):
        """Fig. 7's ordering: AODV > LDR for the same workload."""
        results = {}
        for name in ("AODV", "LDR"):
            network = build_chain(name, 5)
            for _ in range(3):
                network.send_data(0, 4)
                network.send_data(4, 0)
            network.run(until=10.0)
            results[name] = network.summary().average_sequence_number
        assert results["AODV"] > results["LDR"]


class TestDsrSpecifics:
    def test_source_route_header_advances(self):
        header = SourceRoute(route=("a", "b", "c"), index=0)
        assert header.next_hop == "b"
        advanced = header.advanced()
        assert advanced.next_hop == "c"
        assert advanced.advanced().next_hop is None

    def test_route_cache_stores_suffixes_from_self(self):
        network = StaticNetwork({0: (0, 0), 1: (100, 0)}, protocol_factory("DSR"))
        network.start()
        protocol = network.protocol(0)
        protocol.cache_route((0, 1, 2, 3))
        assert protocol.best_route(3) == (0, 1, 2, 3)
        assert protocol.best_route(2) == (0, 1, 2)

    def test_route_cache_prefers_shorter_route(self):
        network = StaticNetwork({0: (0, 0), 1: (100, 0)}, protocol_factory("DSR"))
        network.start()
        protocol = network.protocol(0)
        protocol.cache_route((0, 1, 2, 3))
        protocol.cache_route((0, 5, 3))
        assert protocol.best_route(3) == (0, 5, 3)

    def test_remove_link_purges_routes(self):
        network = StaticNetwork({0: (0, 0), 1: (100, 0)}, protocol_factory("DSR"))
        network.start()
        protocol = network.protocol(0)
        protocol.cache_route((0, 1, 2, 3))
        protocol.remove_link(1, 2)
        assert protocol.best_route(3) is None

    def test_data_packets_carry_source_routes(self):
        network = build_chain("DSR", 4)
        network.send_data(0, 3)
        network.run(until=5.0)
        assert network.summary().data_delivered == 1
        assert network.protocol(0).best_route(3) is not None


class TestOracle:
    def test_oracle_uses_no_control_packets(self):
        network = build_chain("Oracle", 5)
        network.send_data(0, 4)
        network.run(until=2.0)
        summary = network.summary()
        assert summary.data_delivered == 1
        assert summary.control_transmissions == 0

    def test_oracle_delivery_on_grid(self):
        network = StaticNetwork(grid_positions(3, 3), protocol_factory("Oracle"))
        network.start()
        network.send_data(0, 8)
        network.run(until=2.0)
        assert network.summary().data_delivered == 1
