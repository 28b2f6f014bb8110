"""LSR: the OSPF-style link-state protocol on static topologies."""

from .helpers import StaticNetwork, chain_positions, grid_positions

from repro.protocols import protocol_factory
from repro.protocols.lsr import LsrConfig, LsrLsa, LsrProtocol


def lsr_factory(config: LsrConfig | None = None):
    return lambda node_id: LsrProtocol(config or LsrConfig())


class TestConvergence:
    def test_chain_converges_to_hop_by_hop_routes(self):
        net = StaticNetwork(chain_positions(5), lsr_factory())
        net.start()
        net.run(until=20.0)
        # Node 0 reaches node 4 via 1, node 4 reaches 0 via 3.
        assert net.protocol(0).next_hop(4) == 1
        assert net.protocol(4).next_hop(0) == 3
        # Middle node routes both ways.
        assert net.protocol(2).next_hop(0) == 1
        assert net.protocol(2).next_hop(4) == 3

    def test_grid_delivers_data_end_to_end(self):
        net = StaticNetwork(grid_positions(3, 3), lsr_factory())
        net.start()
        net.run(until=20.0)
        for _ in range(10):
            net.send_data(0, 8)
        net.run(until=30.0)
        summary = net.summary()
        assert summary.data_delivered == 10

    def test_all_pairs_reachable_after_convergence(self):
        net = StaticNetwork(chain_positions(4), lsr_factory())
        net.start()
        net.run(until=20.0)
        for source in range(4):
            protocol = net.protocol(source)
            for destination in range(4):
                if destination != source:
                    assert protocol.next_hop(destination) is not None


class TestLsaDiscipline:
    def test_duplicate_lsas_are_dropped_and_counted(self):
        net = StaticNetwork(chain_positions(3), lsr_factory())
        net.start()
        net.run(until=20.0)
        # Flooding over a shared medium necessarily re-delivers (origin, seq)
        # pairs; the dedup set must absorb them.
        total_duplicates = sum(
            net.protocol(n).duplicate_lsa_drops for n in range(3)
        )
        assert total_duplicates > 0
        # And the LSDB holds exactly one row per other origin.
        for n in range(3):
            assert set(net.protocol(n).lsdb) == {m for m in range(3) if m != n}

    def test_stale_sequence_number_does_not_replace_newer(self):
        net = StaticNetwork(chain_positions(2), lsr_factory())
        net.start()
        net.run(until=20.0)
        protocol = net.protocol(0)
        entry = protocol.lsdb[1]
        stored_seq = entry.sequence_number
        stale = LsrLsa(origin=1, sequence_number=stored_seq - 1, links=(), ttl=5)
        protocol._handle_lsa(stale, 1)
        assert protocol.lsdb[1].sequence_number == stored_seq
        assert protocol.lsdb[1].links == entry.links

    def test_ttl_zero_lsa_is_not_installed(self):
        net = StaticNetwork(chain_positions(2), lsr_factory())
        net.start()
        net.run(until=5.0)
        protocol = net.protocol(0)
        dead = LsrLsa(origin=99, sequence_number=1, links=(1,), ttl=0)
        protocol._handle_lsa(dead, 1)
        assert 99 not in protocol.lsdb
        assert protocol.ttl_expired_drops == 1

    def test_two_way_check_ignores_one_sided_links(self):
        net = StaticNetwork(chain_positions(2), lsr_factory())
        net.start()
        net.run(until=20.0)
        protocol = net.protocol(0)
        # A ghost origin claims a link to node 1, but node 1 never
        # advertises the ghost back: SPF must not route through it.
        ghost = LsrLsa(origin=77, sequence_number=1, links=(1,), ttl=5)
        protocol._handle_lsa(ghost, 1)
        protocol._routes_dirty = True
        protocol._recompute_routes()
        assert protocol.next_hop(77) is None


class TestDynamics:
    def test_link_failure_triggers_reroute_in_grid(self):
        # 3x3 grid: 0 -> 2 goes via 1; killing that adjacency must reroute
        # through the second row rather than blackholing.
        net = StaticNetwork(grid_positions(3, 3), lsr_factory())
        net.start()
        net.run(until=20.0)
        protocol = net.protocol(0)
        first = protocol.next_hop(2)
        assert first is not None
        from repro.sim.packet import Packet, PacketKind

        packet = Packet(
            kind=PacketKind.DATA,
            source=0,
            destination=2,
            size_bytes=64,
            created_at=net.simulator.now,
        )
        protocol.handle_link_failure(packet, first)
        rerouted = protocol.next_hop(2)
        assert rerouted != first

    def test_crash_clears_volatile_state_but_keeps_sequence_number(self):
        net = StaticNetwork(chain_positions(3), lsr_factory())
        net.start()
        net.run(until=20.0)
        protocol = net.protocol(1)
        seq_before = protocol.lsa_sequence_number
        assert seq_before > 0
        net.nodes[1].go_down()
        assert protocol.lsdb == {}
        assert protocol.neighbors == {}
        assert protocol.routing_table == {}
        assert protocol.lsa_sequence_number == seq_before
        net.nodes[1].go_up()
        net.run(until=45.0)
        # Rebooted node re-learns the chain and its neighbours re-accept it
        # (monotone seq means their dedup state never blocks fresh LSAs).
        assert protocol.next_hop(0) == 0
        assert protocol.next_hop(2) == 2
        assert net.protocol(0).next_hop(2) == 1


class TestRegistry:
    def test_lsr_is_registered(self):
        factory = protocol_factory("LSR")
        protocol = factory(0)
        assert isinstance(protocol, LsrProtocol)
        assert protocol.name == "LSR"

    def test_factory_accepts_a_config(self):
        factory = protocol_factory("LSR", LsrConfig(hello_interval=1.0, lsa_ttl=4))
        protocol = factory(0)
        assert protocol.config.hello_interval == 1.0
        assert protocol.config.lsa_ttl == 4
        # Unspecified fields keep their defaults.
        assert protocol.config.lsa_interval == LsrConfig().lsa_interval
