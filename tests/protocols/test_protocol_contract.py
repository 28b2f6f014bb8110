"""The contract every registered protocol keeps, whatever its family.

Each protocol answers two route queries, ``next_hop(destination)`` and
``successors(destination)`` (the next hop is one of the successors; only
SRP has more than one), and handles only its own control messages: a
payload of another protocol's type reaches no handler, so it sends nothing
and raises nothing.
"""

import pytest

from repro.core.ordering import UNASSIGNED
from repro.protocols import PROTOCOLS, protocol_factory
from repro.protocols.aodv import AodvRreq
from repro.protocols.dsr import DsrRreq
from repro.protocols.ldr import INFINITE_DISTANCE, LdrRreq
from repro.protocols.lsr import LsrLsa
from repro.protocols.olsr import OlsrTc
from repro.protocols.srp import SrpRreq
from repro.sim.packet import Packet, PacketKind

from .helpers import StaticNetwork, chain_positions

#: One control message per protocol that its owner must answer or relay
#: when node 0 receives it from node 1: a request for node 0 itself, or a
#: flood from a node beyond node 1.
OWN_MESSAGE = {
    "SRP": SrpRreq(
        source=2, rreq_id=1, destination=0, requested_ordering=UNASSIGNED
    ),
    "LDR": LdrRreq(
        source=2,
        rreq_id=1,
        destination=0,
        destination_sequence_number=0,
        feasible_distance=INFINITE_DISTANCE,
        unknown=True,
    ),
    "AODV": AodvRreq(
        source=2,
        source_sequence_number=1,
        rreq_id=1,
        destination=0,
        destination_sequence_number=0,
        destination_sequence_unknown=True,
    ),
    "DSR": DsrRreq(source=2, rreq_id=1, destination=0, path=(2, 1)),
    "OLSR": OlsrTc(origin=2, sequence_number=1, advertised_neighbors=(1,)),
    "LSR": LsrLsa(origin=2, sequence_number=1, links=(1,)),
}


def node_zero(name):
    """Node 0 of a started three-node chain, with its sends recorded."""
    network = StaticNetwork(chain_positions(3), protocol_factory(name))
    network.start()
    node = network.nodes[0]
    sent = []
    node.send_unicast = lambda packet, next_hop: sent.append((packet, next_hop))
    node.send_broadcast = lambda packet: sent.append((packet, None))
    return node.protocol, sent


def control_packet(payload):
    return Packet(PacketKind.CONTROL, 1, 0, 52, 0.0, payload=payload)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestProtocolContract:
    def test_no_next_hop_to_an_unknown_destination(self, name):
        protocol, sent = node_zero(name)
        assert protocol.next_hop("nowhere") is None
        assert sent == []

    def test_no_successors_toward_an_unknown_destination(self, name):
        protocol, _ = node_zero(name)
        assert protocol.successors("nowhere") == frozenset()

    def test_the_next_hop_is_a_successor(self, name):
        # Link-state tables converge first; the on-demand route is then
        # discovered by one packet and is fresh when the queries run.
        network = StaticNetwork(chain_positions(3), protocol_factory(name))
        network.start()
        network.run(until=15.0)
        network.send_data(0, 2)
        network.run(until=17.0)
        protocol = network.protocol(0)
        assert network.summary().data_delivered == 1
        assert protocol.next_hop(2) == 1
        assert protocol.next_hop(2) in protocol.successors(2)
        if name != "SRP":
            assert protocol.successors(2) == {protocol.next_hop(2)}

    def test_another_protocols_control_payload_is_ignored(self, name):
        protocol, sent = node_zero(name)
        for other, payload in OWN_MESSAGE.items():
            if other != name:
                protocol.handle_packet(control_packet(payload), 1)
        assert sent == []
        if name in OWN_MESSAGE:
            # The same probe in the protocol's own language does reach it.
            protocol.handle_packet(control_packet(OWN_MESSAGE[name]), 1)
            assert sent
