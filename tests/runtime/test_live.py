"""The live runtime: clock scaling, flood control, and full soaks."""

import asyncio
import pickle
import socket

import pytest

from repro.experiments.gate import LIVE_PROTOCOLS
from repro.sim.packet import Packet, PacketKind
from repro.runtime.live import (
    ExpiringSet,
    LiveClock,
    LiveCounters,
    LiveNode,
    LiveRunConfig,
    LiveTransportBase,
    LoopbackNetwork,
    UdpTransport,
    adjacency_from_positions,
    plan_flows,
    run_soak,
    topology_positions,
)
from repro.sim.stats import TrialStats


class ManualClock:
    """A clock whose time only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0


class SinkTransport(LiveTransportBase):
    """Records every send instead of delivering it."""

    def __init__(self) -> None:
        self.sent = []

    def send(self, origin, packet, receiver) -> None:
        self.sent.append((origin, packet, receiver))


class RecorderProtocol:
    """A stand-in protocol that records what the runtime hands it."""

    def __init__(self) -> None:
        self.packets = []

    def attach(self, node) -> None:
        self.node = node

    def start(self) -> None:
        pass

    def handle_packet(self, packet, from_node) -> None:
        self.packets.append((packet, from_node))

    def finalize(self) -> None:
        pass

    def sequence_number_metric(self) -> int:
        return 0


def data_packet(source=0, destination=1, hops=0) -> Packet:
    packet = Packet(
        kind=PacketKind.DATA,
        source=source,
        destination=destination,
        size_bytes=64,
        created_at=0.0,
    )
    packet.hops = hops
    return packet


def make_node(clock=None, **kwargs) -> LiveNode:
    clock = clock or ManualClock()
    node = LiveNode(0, clock, SinkTransport(), TrialStats(), **kwargs)
    node.attach_protocol(RecorderProtocol())
    return node


class TestLiveClock:
    def test_time_scale_maps_wall_to_protocol_seconds(self):
        async def go():
            clock = LiveClock(asyncio.get_running_loop(), time_scale=0.01)
            start = clock.now
            await asyncio.sleep(0.05)  # 5 protocol seconds of wall time
            return clock.now - start

        elapsed = asyncio.run(go())
        # Loop overhead only ever makes more protocol time pass, not less.
        assert elapsed >= 4.0

    def test_schedule_in_fires_in_protocol_time(self):
        async def go():
            clock = LiveClock(asyncio.get_running_loop(), time_scale=0.01)
            fired = []
            clock.schedule_in(2.0, lambda: fired.append(clock.now))
            await asyncio.sleep(0.2)  # 20 protocol seconds
            return fired

        fired = asyncio.run(go())
        assert len(fired) == 1
        assert fired[0] >= 2.0

    def test_schedule_at_in_the_past_still_fires(self):
        async def go():
            clock = LiveClock(asyncio.get_running_loop(), time_scale=0.01)
            fired = []
            clock.schedule_at(-5.0, lambda: fired.append(True))
            await asyncio.sleep(0.02)
            return fired

        assert asyncio.run(go()) == [True]

    def test_cancel_prevents_firing(self):
        async def go():
            clock = LiveClock(asyncio.get_running_loop(), time_scale=0.01)
            fired = []
            handle = clock.schedule_in(1.0, lambda: fired.append(True))
            handle.cancel()
            await asyncio.sleep(0.05)
            return fired

        assert asyncio.run(go()) == []

    def test_rejects_nonpositive_scale(self):
        async def go():
            with pytest.raises(ValueError):
                LiveClock(asyncio.get_running_loop(), time_scale=0.0)

        asyncio.run(go())


class TestExpiringSet:
    def test_first_add_accepts_duplicate_rejects(self):
        clock = ManualClock()
        seen = ExpiringSet(clock, window=10.0)
        assert seen.add(("a", 1)) is True
        assert seen.add(("a", 1)) is False
        assert ("a", 1) in seen

    def test_entries_expire_after_the_window(self):
        clock = ManualClock()
        seen = ExpiringSet(clock, window=10.0)
        seen.add("key")
        clock.now = 10.5
        assert "key" not in seen
        assert seen.add("key") is True  # re-admitted after expiry

    def test_len_reflects_eviction(self):
        clock = ManualClock()
        seen = ExpiringSet(clock, window=5.0)
        for i in range(4):
            seen.add(i)
            clock.now += 2.0
        # now = 8.0: entries added at t=0 and t=2 have expired.
        assert len(seen) == 2

    def test_readded_key_keeps_fresh_expiry(self):
        clock = ManualClock()
        seen = ExpiringSet(clock, window=5.0)
        seen.add("key")
        clock.now = 6.0
        seen.add("key")  # fresh entry; the stale order pair must not evict it
        clock.now = 7.0
        assert "key" in seen


class TestFloodControl:
    def test_send_increments_hops_and_enforces_ttl(self):
        node = make_node(max_ttl=4)
        packet = data_packet(hops=3)
        node.send_unicast(packet, 1)
        assert packet.hops == 4
        assert len(node.transport.sent) == 1
        over = data_packet(hops=4)
        node.send_unicast(over, 1)
        assert node.counters.ttl_drops == 1
        assert len(node.transport.sent) == 1  # not transmitted

    def test_receiving_over_ttl_is_a_violation(self):
        node = make_node(max_ttl=4)
        node.receive(data_packet(hops=5), from_node=1, was_broadcast=False)
        assert node.counters.ttl_violations == 1
        assert node.protocol.packets == []

    def test_broadcast_duplicates_are_dropped(self):
        node = make_node()
        packet = data_packet(source=2)
        node.receive(packet, from_node=1, was_broadcast=True)
        node.receive(packet.copy_for_forwarding(), from_node=3, was_broadcast=True)
        assert len(node.protocol.packets) == 1
        assert node.counters.dedup_drops == 1
        assert node.counters.dedup_violations == 0

    def test_unicast_is_never_deduplicated(self):
        node = make_node()
        packet = data_packet(source=2)
        node.receive(packet, from_node=1, was_broadcast=False)
        node.receive(packet.copy_for_forwarding(), from_node=1, was_broadcast=False)
        assert len(node.protocol.packets) == 2
        assert node.counters.dedup_drops == 0

    def test_duplicate_outliving_the_window_is_a_violation(self):
        clock = ManualClock()
        node = make_node(clock=clock, dedup_window=1.0)
        packet = data_packet(source=2)
        node.receive(packet, from_node=1, was_broadcast=True)
        clock.now = 5.0  # the dedup entry has expired
        node.receive(packet.copy_for_forwarding(), from_node=3, was_broadcast=True)
        assert node.counters.dedup_violations == 1
        assert node.counters.dedup_drops == 1
        assert len(node.protocol.packets) == 1  # still not re-delivered

    def test_closed_node_neither_sends_nor_receives(self):
        node = make_node()
        node.close()
        node.send_broadcast(data_packet())
        node.receive(data_packet(), from_node=1, was_broadcast=False)
        assert node.transport.sent == []
        assert node.protocol.packets == []

    def test_delivery_dedup_keys_on_source_and_uid(self):
        # Two routers in different processes can mint the same uid; the
        # delivery key must still tell their packets apart.
        node = make_node()
        a = data_packet(source=1)
        b = data_packet(source=2)
        b.uid = a.uid
        node.deliver_data(a)
        node.deliver_data(b)
        assert node.stats.data_delivered == 2
        assert node.stats.duplicate_deliveries == 0
        node.deliver_data(a.copy_for_forwarding())
        assert node.stats.duplicate_deliveries == 1


class TestTopology:
    def test_line_is_a_chain(self):
        positions = topology_positions("line", 4)
        adjacency = adjacency_from_positions(positions)
        assert adjacency[0] == (1,)
        assert adjacency[1] == (0, 2)
        assert adjacency[3] == (2,)

    def test_grid_is_four_connected(self):
        positions = topology_positions("grid", 9)
        adjacency = adjacency_from_positions(positions)
        assert set(adjacency[4]) == {1, 3, 5, 7}  # centre of the 3x3
        assert set(adjacency[0]) == {1, 3}  # corner

    def test_random_topology_is_connected_and_deterministic(self):
        a = topology_positions("random", 8, seed=7)
        b = topology_positions("random", 8, seed=7)
        assert a == b
        adjacency = adjacency_from_positions(a)
        seen = {0}
        frontier = [0]
        while frontier:
            for neighbor in adjacency[frontier.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert seen == set(range(8))

    def test_unknown_topology_is_rejected(self):
        with pytest.raises(ValueError):
            topology_positions("torus", 4)


class TestFlowPlan:
    def test_plan_is_deterministic_and_inside_the_window(self):
        plan_a = plan_flows(range(5), flows=4, seed=3, warmup=10.0, duration=40.0)
        plan_b = plan_flows(range(5), flows=4, seed=3, warmup=10.0, duration=40.0)
        assert plan_a == plan_b
        for flow in plan_a:
            assert flow.source != flow.destination
            assert 10.0 <= flow.start < flow.end <= 36.0

    def test_no_traffic_window_is_rejected(self):
        with pytest.raises(ValueError):
            plan_flows(range(5), flows=1, seed=1, warmup=20.0, duration=22.0)


class TestCounters:
    def test_merge_and_round_trip(self):
        a = LiveCounters(unicast_sent=3, ttl_drops=1, dedup_violations=2)
        b = LiveCounters(unicast_sent=4, received=9)
        a.merge(b)
        assert a.unicast_sent == 7
        assert a.received == 9
        assert a.violations == 2
        assert LiveCounters.from_dict(a.to_dict()) == a


def soak_config(**overrides) -> LiveRunConfig:
    defaults = dict(
        transport="loopback",
        routers=5,
        topology="line",
        duration=40.0,
        warmup=12.0,
        time_scale=0.02,
        flows=3,
        rate=4.0,
        seed=1,
    )
    defaults.update(overrides)
    return LiveRunConfig(**defaults)


class TestLoopbackSoak:
    @pytest.mark.parametrize("protocol", LIVE_PROTOCOLS)
    def test_daemons_deliver_on_a_line(self, protocol):
        report = run_soak(soak_config(protocol=protocol))
        assert report.summary.data_sent > 0
        assert report.summary.delivery_ratio >= 0.9
        assert report.summary.mean_latency >= 0.0
        assert report.summary.control_transmissions > 0
        assert report.counters.ttl_violations == 0
        assert report.counters.dedup_violations == 0

    @pytest.mark.parametrize("protocol", ["AODV", "SRP"])
    def test_routing_tables_show_on_demand_routes(self, protocol):
        async def go():
            network = LoopbackNetwork(soak_config(protocol=protocol))
            network.start()
            flows = network.schedule_traffic()
            # Mid-traffic: every flow has started and its route is in use.
            await network.run_for(30.0)
            tables = network.routing_tables()
            network.finish()
            return network.adjacency, flows, tables

        adjacency, flows, tables = asyncio.run(go())
        source = flows[0].source
        assert tables[source]
        assert set(tables[source].values()) <= set(adjacency[source])

    def test_grid_topology_soak(self):
        report = run_soak(
            soak_config(protocol="LSR", topology="grid", routers=9, seed=5)
        )
        assert report.summary.delivery_ratio >= 0.9
        assert report.violations == 0

    def test_soak_is_deterministic_in_counts(self):
        # Wall-clock jitter moves latencies, but the offered load is a pure
        # function of the seed.
        first = run_soak(soak_config(protocol="LSR", seed=9))
        second = run_soak(soak_config(protocol="LSR", seed=9))
        assert first.summary.data_sent == second.summary.data_sent
        assert first.flows == second.flows

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LiveRunConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            LiveRunConfig(routers=1)
        with pytest.raises(ValueError):
            LiveRunConfig(time_scale=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_ttl": 0},
            {"dedup_window": 0.0},
            {"duration": -1.0},
            {"warmup": -5.0},
            {"duration": 10.0, "warmup": 12.0},
            {"duration": 16.0, "warmup": 12.0},  # drain 4 closes the window
            {"rate": float("inf")},  # the flow scheduler would never advance
            {"rate": float("nan")},
            {"duration": float("inf")},
            {"time_scale": float("nan")},
            {"warmup": float("nan")},
            {"routers": 1},
            {"flows": 0},
            {"rate": 0.0},
            {"time_scale": 0.0},
        ],
        ids=lambda bad: ",".join(f"{k}={v:g}" for k, v in bad.items()),
    )
    def test_out_of_range_numbers_fail_closed(self, bad):
        with pytest.raises(ValueError):
            LiveRunConfig(**bad)
        # The UDP handshake rebuilds every router's config through from_dict.
        with pytest.raises(ValueError):
            LiveRunConfig.from_dict({**LiveRunConfig().to_dict(), **bad})

    def test_config_round_trip(self):
        config = soak_config(protocol="OLSR", routers=7)
        assert LiveRunConfig.from_dict(config.to_dict()) == config


class TestUdpSoak:
    def test_router_processes_exchange_real_datagrams(self):
        report = run_soak(
            LiveRunConfig(
                protocol="LSR",
                transport="udp",
                routers=3,
                topology="line",
                duration=24.0,
                warmup=10.0,
                time_scale=0.05,
                flows=2,
                rate=4.0,
                seed=3,
            )
        )
        assert report.summary.data_sent > 0
        assert report.summary.delivery_ratio >= 0.9
        assert report.summary.mean_latency >= 0.0
        assert report.violations == 0
        assert report.counters.rejected_datagrams == 0


#: Set by :func:`_plant` if a received pickle is ever loaded.
TAMPERED = []


def _plant():
    """What a hostile pickle runs the moment it is loaded."""
    TAMPERED.append(True)
    return (1, False, data_packet(source=1))


class _HostilePayload:
    def __reduce__(self):
        return (_plant, ())


def _bound_udp_socket() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


class TestUdpReceiver:
    def test_datagrams_from_outside_the_address_book_are_never_unpickled(self):
        router, peer, stranger = (_bound_udp_socket() for _ in range(3))
        node = make_node()

        async def go():
            # The handshake may deliver the book's addresses as lists.
            book = {0: list(router.getsockname()), 1: list(peer.getsockname())}
            transport = UdpTransport(0, {0: (1,), 1: (0,)}, book)
            await transport.open(node, router)
            target = router.getsockname()
            stranger.sendto(pickle.dumps(_HostilePayload()), target)
            peer.sendto(b"not a frame", target)
            peer.sendto(pickle.dumps((1, False, data_packet(source=1))), target)
            # The peer's frame went last; once it is in, the others were read.
            for _ in range(200):
                if node.protocol.packets:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.02)
            transport.close()

        try:
            asyncio.run(go())
        finally:
            peer.close()
            stranger.close()
        assert TAMPERED == []
        assert node.counters.rejected_datagrams == 2
        assert [packet.source for packet, _ in node.protocol.packets] == [1]
