"""Tests for the shared protocol machinery (RREQ cache, discovery
controller, flood dedup)."""

from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.protocols.base import PacketBuffer
from repro.protocols.common import (
    ComputationState,
    DiscoveryController,
    RreqCache,
    SeenSequences,
)
from repro.sim.engine import Simulator
from repro.sim.network import build_network
from repro.sim.packet import Packet, PacketKind

from .helpers import StaticNetwork, chain_positions


def data_packet(destination, source="s"):
    return Packet(PacketKind.DATA, source, destination, 512, 0.0)


class TestPacketBuffer:
    def test_push_and_pop(self):
        buffer = PacketBuffer(max_per_destination=2)
        a, b = data_packet("d"), data_packet("d")
        assert buffer.push(a) and buffer.push(b)
        assert buffer.pop_all("d") == [a, b]
        assert buffer.pop_all("d") == []

    def test_overflow_rejected(self):
        buffer = PacketBuffer(max_per_destination=1)
        assert buffer.push(data_packet("d"))
        assert not buffer.push(data_packet("d"))

    def test_drop_all_counts(self):
        buffer = PacketBuffer()
        buffer.push(data_packet("d"))
        buffer.push(data_packet("d"))
        assert buffer.drop_all("d") == 2
        assert buffer.drop_all("d") == 0

    def test_destinations_are_independent(self):
        buffer = PacketBuffer(max_per_destination=1)
        assert buffer.push(data_packet("d1"))
        assert buffer.push(data_packet("d2"))


class TestRreqCache:
    def test_passive_until_engaged(self):
        cache = RreqCache()
        assert cache.state_of("s", 1) is ComputationState.PASSIVE
        entry = cache.try_engage("s", 1, now=0.0, last_hop="x")
        assert entry is not None
        assert cache.state_of("s", 1) is ComputationState.ENGAGED

    def test_node_enters_computation_at_most_once(self):
        """Theorem 7's premise: a node is engaged/active at most once per
        (source, rreq_id), so control packets cannot loop."""
        cache = RreqCache()
        assert cache.try_engage("s", 1, now=0.0, last_hop="x") is not None
        assert cache.try_engage("s", 1, now=0.0, last_hop="y") is None

    def test_activate_marks_originator(self):
        cache = RreqCache()
        cache.activate("me", 7, now=0.0)
        assert cache.state_of("me", 7) is ComputationState.ACTIVE
        assert cache.try_engage("me", 7, now=0.0, last_hop="x") is None

    def test_different_rreq_ids_are_independent(self):
        cache = RreqCache()
        cache.activate("s", 1, now=0.0)
        assert cache.state_of("s", 2) is ComputationState.PASSIVE

    def test_expiry(self):
        cache = RreqCache(max_age=10.0)
        cache.try_engage("s", 1, now=0.0, last_hop="x")
        cache.expire(now=5.0)
        assert cache.state_of("s", 1) is ComputationState.ENGAGED
        cache.expire(now=20.0)
        assert cache.state_of("s", 1) is ComputationState.PASSIVE

    def test_cached_ordering_round_trip(self):
        cache = RreqCache()
        cache.try_engage("s", 1, now=0.0, last_hop="x", cached_ordering="M")
        assert cache.get("s", 1).cached_ordering == "M"
        assert cache.get("s", 2) is None


class TestDiscoveryController:
    def _controller(self, *, timeout=1.0, max_attempts=3):
        simulator = Simulator()
        sent = []
        failed = []
        controller = DiscoveryController(
            simulator,
            send_request=lambda destination, rreq_id, attempt: sent.append(
                (destination, rreq_id, attempt)
            ),
            give_up=failed.append,
            timeout=timeout,
            max_attempts=max_attempts,
        )
        return simulator, controller, sent, failed

    def test_begin_sends_first_request(self):
        _, controller, sent, _ = self._controller()
        controller.begin("d")
        assert sent == [("d", 1, 1)]
        assert controller.is_active("d")

    def test_begin_is_idempotent_while_active(self):
        _, controller, sent, _ = self._controller()
        controller.begin("d")
        assert controller.begin("d") is None
        assert len(sent) == 1

    def test_retries_then_gives_up(self):
        simulator, controller, sent, failed = self._controller(max_attempts=3)
        controller.begin("d")
        simulator.run()
        assert [attempt for _, _, attempt in sent] == [1, 2, 3]
        assert failed == ["d"]
        assert not controller.is_active("d")

    def test_complete_cancels_retries(self):
        simulator, controller, sent, failed = self._controller()
        controller.begin("d")
        controller.complete("d")
        simulator.run()
        assert len(sent) == 1
        assert failed == []

    def test_rreq_ids_are_unique_per_attempt(self):
        simulator, controller, sent, _ = self._controller(max_attempts=3)
        controller.begin("d")
        simulator.run()
        rreq_ids = [rreq_id for _, rreq_id, _ in sent]
        assert len(set(rreq_ids)) == len(rreq_ids)

    def test_multiple_destinations_tracked_independently(self):
        _, controller, sent, _ = self._controller()
        controller.begin("d1")
        controller.begin("d2")
        assert controller.is_active("d1") and controller.is_active("d2")
        assert len(sent) == 2


#: One dedup operation: ``None`` clears, ``(origin, seq)`` adds.  Few
#: origins and a small seq range so duplicates and out-of-order arrivals
#: are the common case.
_DEDUP_OPS = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["a", "b", 3]), st.integers(0, 70)),
    ),
    max_size=200,
)


class TestSeenSequences:
    @given(_DEDUP_OPS)
    @settings(max_examples=300, deadline=None)
    def test_same_membership_as_a_set_of_tuples(self, ops):
        seen, reference = SeenSequences(), set()
        for op in ops:
            if op is None:
                seen.clear()
                reference.clear()
                continue
            assert seen.add(*op) == (op not in reference)
            reference.add(op)

    def test_an_older_sequence_number_is_still_new_once(self):
        seen = SeenSequences()
        assert seen.add("o", 9)
        assert seen.add("o", 4)
        assert not seen.add("o", 4)
        assert not seen.add("o", 9)
        assert seen.add("o", 5)

    def test_negative_sequence_number_is_refused_by_name(self):
        seen = SeenSequences()
        with pytest.raises(ValueError, match="-3"):
            seen.add("o", -3)
        assert seen._masks == {}

    @pytest.mark.parametrize(
        ("protocol", "dedup", "sequence"),
        [
            ("OLSR", "seen_tcs", "tc_sequence_number"),
            ("LSR", "seen_lsas", "lsa_sequence_number"),
            # RREQ ids: 1, 2, 3, ... per origin, never reset by a crash.
            ("AODV", "seen_rreqs", "discovery._next_rreq_id"),
            ("LDR", "seen_rreqs", "discovery._next_rreq_id"),
            ("DSR", "seen_rreqs", "discovery._next_rreq_id"),
        ],
    )
    def test_one_small_int_per_origin_after_a_trial(self, protocol, dedup, sequence):
        network = build_network(
            EvaluationScale.smoke().scenario, protocol_factory(protocol)
        )
        network.run()
        protocols = {node_id: node.protocol for node_id, node in network.nodes.items()}
        relayed = 0
        for state in protocols.values():
            masks = getattr(state, dedup)._masks
            assert set(masks) <= set(protocols)
            for origin, mask in masks.items():
                assert isinstance(mask, int)
                # No bit above the origin's own counter: the mask is as
                # wide as the floods that origin has sent, no wider.
                assert mask.bit_length() <= attrgetter(sequence)(protocols[origin]) + 1
            relayed += len(masks)
        assert relayed > len(protocols)


def _forget_route(protocol, destination, *, reboot):
    """The relay's route to ``destination`` goes: invalid, or (``reboot``)
    gone from its table altogether, as after a crash."""
    if protocol.name == "SRP":
        if reboot:
            protocol.table.entry(destination).successors.clear()
        else:
            protocol.table.remove_successor(
                destination, protocol.next_hop(destination)
            )
    elif reboot:
        del protocol.routes[destination]
    else:
        protocol.routes[destination].valid = False


@pytest.mark.parametrize("reboot", [False, True], ids=["invalid", "no-entry"])
@pytest.mark.parametrize("name", ["SRP", "LDR", "AODV"])
def test_relay_without_a_route_drops_and_reports(name, reboot):
    """A relay that can no longer forward a data packet counts the drop and
    unicasts a route error to the neighbour it came from, which then stops
    routing through it (``OnDemandProtocol._handle_data`` ->
    ``_report_no_route``)."""
    net = StaticNetwork(chain_positions(4), protocol_factory(name))
    net.start()
    net.send_data(0, 3)
    net.run(until=2.0)
    source, relay = net.protocol(0), net.protocol(1)
    assert source.next_hop(3) == 1 and relay.next_hop(3) == 2
    assert net.summary().data_delivered == 1

    _forget_route(relay, 3, reboot=reboot)
    sent = []
    send_unicast = net.nodes[1].send_unicast

    def recording_send_unicast(packet, next_hop):
        sent.append((type(packet.payload).__name__, next_hop))
        send_unicast(packet, next_hop)

    net.nodes[1].send_unicast = recording_send_unicast
    drops = relay.data_drops
    net.send_data(0, 3)
    net.run(until=3.0)
    assert relay.data_drops == drops + 1
    assert (f"{name.title()}Rerr", 0) in sent
    assert source.next_hop(3) is None
    assert net.summary().data_delivered == 1
