"""Tests for the SRP protocol: procedures, table behaviour, end-to-end routing,
and the paper's Example 1 and Theorem 3 asserted on the running protocol."""

import math
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fractions import ProperFraction
from repro.core.ordering import UNASSIGNED, Ordering
from repro.protocols import protocol_factory
from repro.protocols.srp import SrpConfig, SrpProtocol, SrpRreq
from repro.protocols.srp.table import SrpRoutingTable
from repro.sim.mobility import StaticMobility
from repro.sim.monitor import LoopFreedomMonitor
from repro.sim.network import build_network
from repro.sim.space import Position
from repro.workloads.scenario import scaled_scenario

from .helpers import (
    StaticNetwork,
    audit_routes,
    chain_positions,
    grid_positions,
    protocols_of,
    srp_route_violations,
)


def srp_factory(config=None):
    return lambda node_id: SrpProtocol(config or SrpConfig())


def build_chain(length=5, config=None):
    network = StaticNetwork(chain_positions(length), srp_factory(config))
    network.start()
    return network


class TestRoutingTable:
    def test_entry_created_on_demand(self):
        table = SrpRoutingTable()
        entry = table.entry("T")
        assert not entry.is_active
        assert not entry.is_assigned
        assert entry.ordering == UNASSIGNED

    def test_add_and_remove_successor(self):
        table = SrpRoutingTable()
        table.set_own_ordering("T", Ordering(1, ProperFraction(1, 2)), 2.0)
        table.add_successor("T", "B", Ordering(1, ProperFraction(1, 3)), 2.0, now=0.0)
        assert table.entry("T").is_active
        assert table.next_hop("T") == "B"
        became_invalid = table.remove_successor("T", "B")
        assert became_invalid
        assert table.next_hop("T") is None
        # Definition 3: the ordering outlives the successor set.
        assert table.entry("T").ordering == Ordering(1, ProperFraction(1, 2))

    def test_best_successor_is_min_distance(self):
        table = SrpRoutingTable()
        table.add_successor("T", "far", Ordering(1, ProperFraction(1, 3)), 5.0, now=0.0)
        table.add_successor(
            "T", "near", Ordering(1, ProperFraction(1, 4)), 2.0, now=0.0
        )
        assert table.next_hop("T") == "near"
        assert table.alternative_next_hop("T", excluding="near") == "far"

    def test_successor_maximum(self):
        table = SrpRoutingTable()
        far = Ordering(1, ProperFraction(2, 3))
        near = Ordering(1, ProperFraction(1, 3))
        table.add_successor("T", "a", far, 1.0, now=0.0)
        table.add_successor("T", "b", near, 1.0, now=0.0)
        assert table.entry("T").successor_maximum() == far

    def test_drop_out_of_order_successors(self):
        table = SrpRoutingTable()
        table.set_own_ordering("T", Ordering(1, ProperFraction(1, 2)), 2.0)
        table.add_successor(
            "T", "good", Ordering(1, ProperFraction(1, 3)), 1.0, now=0.0
        )
        table.add_successor("T", "bad", Ordering(1, ProperFraction(2, 3)), 1.0, now=0.0)
        dropped = table.drop_out_of_order_successors("T")
        assert dropped == ["bad"]
        assert "good" in table.entry("T").successors

    def test_remove_neighbor_everywhere(self):
        table = SrpRoutingTable()
        table.add_successor("T1", "B", Ordering(1, ProperFraction(1, 3)), 1.0, now=0.0)
        table.add_successor("T2", "B", Ordering(1, ProperFraction(1, 4)), 1.0, now=0.0)
        table.add_successor("T2", "C", Ordering(1, ProperFraction(1, 5)), 2.0, now=0.0)
        invalid = table.remove_neighbor_everywhere("B")
        assert invalid == ["T1"]
        assert table.entry("T2").is_active

    def test_successor_expiry(self):
        table = SrpRoutingTable(route_lifetime=5.0)
        table.add_successor("T", "B", Ordering(1, ProperFraction(1, 3)), 1.0, now=0.0)
        assert table.expire_stale_successors(now=4.0) == []
        assert table.expire_stale_successors(now=6.0) == ["T"]


class TestProtocolUnits:
    """Direct unit tests of protocol decision logic without a full network."""

    def _attached_protocol(self):
        network = StaticNetwork({0: (0, 0), 1: (100, 0)}, srp_factory())
        network.start()
        return network.protocol(0), network

    def test_node_labels_itself_on_start(self):
        protocol, _ = self._attached_protocol()
        own = protocol.own_ordering(protocol.node_id)
        assert own.sequence_number == 1
        assert own.fraction == ProperFraction.zero()

    def test_sdc_requires_active_route(self):
        protocol, _ = self._attached_protocol()
        rreq = SrpRreq(
            source=9,
            rreq_id=1,
            destination=5,
            requested_ordering=UNASSIGNED,
            unknown_ordering=True,
            traversed_distance=5.0,
        )
        assert not protocol._satisfies_sdc(rreq)

    def test_sdc_holds_for_in_order_route_beyond_min_distance(self):
        protocol, _ = self._attached_protocol()
        protocol.table.set_own_ordering(5, Ordering(2, ProperFraction(1, 3)), 2.0)
        protocol.table.add_successor(
            5, 1, Ordering(2, ProperFraction(1, 4)), 1.0, now=0.0
        )
        in_order = SrpRreq(
            source=9,
            rreq_id=1,
            destination=5,
            requested_ordering=Ordering(2, ProperFraction(1, 2)),
            traversed_distance=5.0,
        )
        assert protocol._satisfies_sdc(in_order)
        too_close = SrpRreq(
            source=9,
            rreq_id=2,
            destination=5,
            requested_ordering=Ordering(2, ProperFraction(1, 2)),
            traversed_distance=0.0,
        )
        assert not protocol._satisfies_sdc(too_close)

    def test_sdc_rejects_out_of_order_route(self):
        protocol, _ = self._attached_protocol()
        protocol.table.set_own_ordering(5, Ordering(2, ProperFraction(1, 2)), 2.0)
        protocol.table.add_successor(
            5, 1, Ordering(2, ProperFraction(1, 4)), 1.0, now=0.0
        )
        # The requester is already closer to the destination than we are.
        rreq = SrpRreq(
            source=9,
            rreq_id=1,
            destination=5,
            requested_ordering=Ordering(2, ProperFraction(1, 3)),
            traversed_distance=5.0,
        )
        assert not protocol._satisfies_sdc(rreq)

    def test_sdc_fresher_sequence_number_wins(self):
        protocol, _ = self._attached_protocol()
        protocol.table.set_own_ordering(5, Ordering(3, ProperFraction(2, 3)), 2.0)
        protocol.table.add_successor(
            5, 1, Ordering(3, ProperFraction(1, 4)), 1.0, now=0.0
        )
        rreq = SrpRreq(
            source=9,
            rreq_id=1,
            destination=5,
            requested_ordering=Ordering(2, ProperFraction(1, 100)),
            traversed_distance=5.0,
        )
        assert protocol._satisfies_sdc(rreq)

    def test_rreq_ordering_lie(self):
        protocol, _ = self._attached_protocol()
        lied = protocol._maybe_lie(Ordering(3, ProperFraction(5, 9)))
        assert lied.sequence_number == 3
        assert lied.fraction == ProperFraction(4, 8)
        assert lied.fraction < ProperFraction(5, 9)

    def test_rreq_ordering_lie_with_unit_numerator(self):
        protocol, _ = self._attached_protocol()
        lied = protocol._maybe_lie(Ordering(3, ProperFraction(1, 4)))
        assert lied.fraction < ProperFraction(1, 4)

    def test_lie_disabled_by_config(self):
        network = StaticNetwork(
            {0: (0, 0), 1: (100, 0)}, srp_factory(SrpConfig(lie_in_rreq=False))
        )
        network.start()
        ordering = Ordering(3, ProperFraction(5, 9))
        assert network.protocol(0)._maybe_lie(ordering) == ordering

    def test_sequence_number_metric_starts_at_zero(self):
        protocol, _ = self._attached_protocol()
        assert protocol.sequence_number_metric() == 0


class TestEndToEndRouting:
    def test_data_delivery_over_multihop_chain(self):
        network = build_chain(5)
        network.send_data(0, 4)
        network.run(until=5.0)
        summary = network.summary()
        assert summary.data_sent == 1
        assert summary.data_delivered == 1

    def test_route_discovery_creates_ordered_labels(self):
        network = build_chain(5)
        network.send_data(0, 4)
        network.run(until=5.0)
        # Labels along the chain must be in topological order toward node 4.
        orderings = [network.protocol(i).own_ordering(4) for i in range(4)]
        for closer, farther in zip(orderings[1:], orderings[:-1]):
            assert farther.precedes(closer) or farther == closer
        # And the requester's successor chain reaches the destination.
        hops = [0]
        while hops[-1] != 4 and len(hops) < 10:
            next_hop = network.protocol(hops[-1]).table.next_hop(4)
            assert next_hop is not None
            hops.append(next_hop)
        assert hops[-1] == 4

    def test_successor_graph_is_loop_free_after_discovery(self):
        network = build_chain(6)
        network.send_data(0, 5)
        network.send_data(2, 5)
        network.run(until=6.0)
        monitor = LoopFreedomMonitor(protocols_of(network.nodes))
        assert monitor.check(network.simulator.now) == []
        assert monitor.successor_graph(5) == {
            0: (1,), 1: (2,), 2: (3,), 3: (4,), 4: (5,), 5: ()
        }

    def test_bidirectional_traffic(self):
        network = build_chain(4)
        network.send_data(0, 3)
        network.send_data(3, 0)
        network.run(until=5.0)
        assert network.summary().data_delivered == 2

    def test_srp_sequence_number_stays_zero(self):
        """Fig. 7's headline: SRP never needs a sequence-number reset."""
        network = build_chain(6)
        for _ in range(3):
            network.send_data(0, 5)
            network.send_data(5, 0)
        network.run(until=10.0)
        summary = network.summary()
        assert summary.average_sequence_number == 0.0

    def test_unreachable_destination_drops_data(self):
        positions = dict(chain_positions(3))
        positions[99] = (5000.0, 5000.0)  # isolated node
        network = StaticNetwork(positions, srp_factory())
        network.start()
        network.send_data(0, 99)
        network.run(until=10.0)
        summary = network.summary()
        assert summary.data_delivered == 0
        assert network.protocol(0).data_drops >= 1

    def test_multiple_sources_to_one_destination(self):
        network = build_chain(6)
        for source in range(5):
            network.send_data(source, 5)
        network.run(until=8.0)
        assert network.summary().data_delivered == 5


class TestExample1:
    """Fig. 1: E requests a route to T over the chain E-D-C-B-A-T, here nodes
    0-5 of a static chain 200 m apart."""

    def test_chain_labels_and_successors_match_the_paper(self):
        network = build_chain(6)
        network.send_data(0, 5)
        network.run(until=5.0)
        orderings = [network.protocol(i).own_ordering(5) for i in range(6)]
        assert [o.sequence_number for o in orderings] == [1] * 6
        assert [o.fraction.as_tuple() for o in orderings] == [
            (5, 6),  # E
            (4, 5),  # D
            (3, 4),  # C
            (2, 3),  # B
            (1, 2),  # A
            (0, 1),  # T
        ]
        successors = [
            sorted(network.protocol(i).table.entry(5).successors) for i in range(5)
        ]
        assert successors == [[1], [2], [3], [4], [5]]

    def test_every_node_gains_a_successor_path(self):
        network = build_chain(6)
        network.send_data(0, 5)
        network.run(until=5.0)
        for start in range(5):
            hops = [start]
            while hops[-1] != 5 and len(hops) < 7:
                hops.append(network.protocol(hops[-1]).table.next_hop(5))
            assert hops == list(range(start, 6))
        assert network.summary().data_delivered == 1

    def test_invariants_hold_after_computation(self):
        network = build_chain(6)
        network.send_data(0, 5)
        network.run(until=5.0)
        assert srp_route_violations(network.nodes) == []

    @pytest.mark.parametrize("length", range(2, 11))
    def test_each_hop_takes_the_next_element(self, length):
        """Example 1 at any chain length: the node k hops from T holds
        ``(1, k/(k+1))``, the k-th next element of T's ``(1, 0/1)``."""
        network = build_chain(length)
        destination = length - 1
        network.send_data(0, destination)
        network.run(until=5.0)
        assert [
            network.protocol(i).own_ordering(destination) for i in range(length)
        ] == [Ordering(1, ProperFraction(k, k + 1)) for k in reversed(range(length))]
        assert network.summary().data_delivered == 1


def silence_a_relay(network, rng) -> None:
    """Move one node that another node forwards through out of everyone's
    radio range for the rest of the run."""
    relays = sorted(
        {
            successor
            for node in network.nodes.values()
            for destination in node.protocol.table.destinations()
            for successor in node.protocol.table.lookup(destination).successors
            if successor != destination
        }
    )
    if relays:
        relay = network.nodes[rng.choice(relays)]
        relay.mobility = StaticMobility(Position(10_000.0, 10_000.0))


def ring_positions(count: int, spacing: float = 200.0):
    """``count`` nodes on a circle, neighbours ``spacing`` metres apart."""
    radius = spacing / (2 * math.sin(math.pi / count))
    return {
        i: (
            radius * math.cos(2 * math.pi * i / count),
            radius * math.sin(2 * math.pi * i / count),
        )
        for i in range(count)
    }


#: Static topologies for a 250 m radio range; the comments give the links.
NAMED_TOPOLOGIES = {
    "chain": chain_positions(6),
    "ring": ring_positions(8),  # each node to its two ring neighbours
    "grid": grid_positions(3, 3),  # 4-neighbour grid, diagonals 283 m
    "ladder": grid_positions(2, 4),
    "star": {0: (0, 0), 1: (200, 0), 2: (0, 200), 3: (-200, 0), 4: (0, -200)},
    "diamond": {0: (0, 0), 1: (150, 150), 2: (150, -150), 3: (300, 0)},
    "tree": {  # 0-1, 1-2, 1-3, 3-4, 2-5
        0: (0, 0),
        1: (200, 0),
        2: (400, 0),
        3: (200, 200),
        4: (200, 400),
        5: (600, 0),
    },
    "clique": ring_positions(5, spacing=90.0),  # everyone hears everyone
}


def mobile_srp_trial(config, seed):
    """A 30 s mobile SRP trial (16 nodes, pause 0, 900 m x 300 m) audited
    every 0.25 s; returns its summary and the checks."""
    scenario = scaled_scenario(
        node_count=16,
        pause_time=0.0,
        duration=30.0,
        seed=seed,
        terrain_width=900.0,
        terrain_height=300.0,
    )
    network = build_network(scenario, protocol_factory("SRP", config))
    checks = audit_routes(
        network.simulator, partial(srp_route_violations, network.nodes), until=30.0
    )
    return network.run(), checks


#: The run-out configuration: 8-bit fraction fields, resets asked at 2**7.
SMALL_FRACTIONS = {"fraction_limit": 2**8, "max_denominator": 2**7}


class TestTheorem3:
    """Theorem 3 on the shipped protocol: at every 0.25 s check of a run, for
    every destination, the successor graph is acyclic and every successor edge
    satisfies Eq. 5 — through discovery, and after a relay goes silent."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5, max_value=9), st.randoms(use_true_random=False))
    def test_random_static_topologies_stay_loop_free(self, node_count, rng):
        positions = {
            node_id: (rng.uniform(0.0, 700.0), rng.uniform(0.0, 500.0))
            for node_id in range(node_count)
        }
        network = StaticNetwork(positions, srp_factory(), seed=rng.randrange(1000))
        network.start()
        for i in range(8):
            source, destination = rng.sample(range(node_count), 2)
            network.simulator.schedule_at(
                0.5 * i, partial(network.send_data, source, destination)
            )
        network.simulator.schedule_at(2.2, partial(silence_a_relay, network, rng))
        checks = audit_routes(
            network.simulator, partial(srp_route_violations, network.nodes), until=6.0
        )
        network.run(until=6.0)
        assert len(checks) == 25
        assert [violations for violations in checks if violations] == []

    @pytest.mark.parametrize("silence", [False, True], ids=["steady", "relay-silenced"])
    @pytest.mark.parametrize("topology", sorted(NAMED_TOPOLOGIES))
    def test_named_topologies_stay_loop_free(self, topology, silence):
        """The same checks on hand-built topologies, among them a ring and a
        grid, where distance-vector routing can count to infinity."""
        positions = NAMED_TOPOLOGIES[topology]
        rng = random.Random(topology)
        network = StaticNetwork(positions, srp_factory())
        network.start()
        for i in range(8):
            source, destination = rng.sample(sorted(positions), 2)
            network.simulator.schedule_at(
                0.5 * i, partial(network.send_data, source, destination)
            )
        if silence:
            network.simulator.schedule_at(2.2, partial(silence_a_relay, network, rng))
        checks = audit_routes(
            network.simulator, partial(srp_route_violations, network.nodes), until=6.0
        )
        network.run(until=6.0)
        summary = network.summary()
        assert len(checks) == 25
        assert [violations for violations in checks if violations] == []
        assert summary.data_delivered > 0
        if not silence:
            assert summary.data_delivered == 8
            assert summary.average_sequence_number == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 4, 5, 6])
    def test_mobile_trials_stay_loop_free(self, seed):
        """And in the simulator's mobile trials, default configuration."""
        summary, checks = mobile_srp_trial(None, seed)
        assert len(checks) == 121
        assert [violations for violations in checks if violations] == []
        assert summary.data_delivered > 0


class TestLabelsRunOut:
    """Fig. 7's "SRP ≡ 0" on the path the sweeps never run: with 8-bit
    fractions the mediant splits overflow, relays set the reset-required (T)
    bit, and a destination must raise its own sequence number."""

    def test_a_destination_resets_and_no_loop_ever_forms(self):
        summary, checks = mobile_srp_trial(SMALL_FRACTIONS, seed=3)
        assert summary.average_sequence_number > 0.0, "no destination reset"
        # Only destinations raise their own sequence number: every check also
        # found no node holding an sn its destination had not issued.
        assert len(checks) == 121
        assert [violations for violations in checks if violations] == []
        assert summary.delivery_ratio > 0.9

    def test_default_fractions_never_reset_on_the_same_scenario(self):
        summary, checks = mobile_srp_trial(None, seed=3)
        assert summary.average_sequence_number == 0.0
        assert [violations for violations in checks if violations] == []

    @pytest.mark.parametrize("seed", [1, 2, 4, 5, 6])
    def test_small_fractions_stay_loop_free_on_other_seeds(self, seed):
        """Whether or not a destination has to reset, 8-bit fractions never
        cost the successor graphs their order."""
        summary, checks = mobile_srp_trial(SMALL_FRACTIONS, seed)
        assert len(checks) == 121
        assert [violations for violations in checks if violations] == []
        assert summary.data_delivered > 0


class TestRouteRepair:
    def test_node_disappearance_triggers_new_discovery_and_delivery(self):
        """Break the only path by silencing a relay; the source re-discovers
        over the surviving topology and keeps delivering."""
        positions = {
            0: (0.0, 0.0),
            1: (200.0, 0.0),     # primary relay
            2: (200.0, 150.0),   # alternative relay
            3: (400.0, 0.0),     # destination
        }
        network = StaticNetwork(positions, srp_factory())
        network.start()
        network.send_data(0, 3)
        network.run(until=3.0)
        assert network.stats.data_delivered == 1
        # Silence node 1: drop everything it would transmit from now on by
        # moving it out of range (its MAC keeps its position provider).
        from repro.sim.mobility import StaticMobility
        from repro.sim.space import Position

        network.nodes[1].mobility = StaticMobility(Position(10_000.0, 10_000.0))
        network.send_data(0, 3)
        network.run(until=10.0)
        summary = network.summary()
        assert summary.data_delivered == 2
        assert summary.average_sequence_number == 0.0
