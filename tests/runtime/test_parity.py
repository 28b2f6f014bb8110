"""Sim-vs-live parity: one protocol, two runtimes, the same routing tables.

The runtime seam's core promise is that a protocol cannot tell whether it is
running inside the discrete-event simulator or as a live asyncio daemon.
These tests make the promise falsifiable: run a protocol on the same static
topology under both runtimes and require *identical* routing tables, read in
both through the protocol's own ``next_hop`` (never its table attributes).

On a chain there is one path per pair, so every live-capable protocol must
agree: the link-state pair after converging, the on-demand four after the
same single 0 -> 4 packet has discovered its route.  The grid has
equal-cost paths; LSR's SPF is a deterministic function of the topology
alone (sorted BFS, two-way check), so any difference there is a seam leak —
a protocol reading sim state directly — rather than tie-breaking noise.
On-demand tie-breaks depend on timing, so the grid stays LSR's.
"""

import asyncio

import pytest

from repro.protocols import protocol_factory
from repro.runtime.live import LiveRunConfig, LoopbackNetwork

from ..protocols.helpers import StaticNetwork, chain_positions, grid_positions

CONVERGE_AT = 20.0

#: When the on-demand protocols send their one packet: late enough that the
#: route is still fresh (10 s lifetime) at CONVERGE_AT.
SEND_AT = CONVERGE_AT - 5.0

ON_DEMAND = ("SRP", "LDR", "AODV", "DSR")
LIVE_CAPABLE = ON_DEMAND + ("OLSR", "LSR")


def next_hop_tables(protocols):
    """``{node: {destination: next hop}}`` over every other node with a route,
    the shape of the live runtime's ``routing_tables()``."""
    tables = {}
    for node_id, protocol in protocols.items():
        table = tables[node_id] = {}
        for destination in protocols:
            hop = protocol.next_hop(destination)
            if destination != node_id and hop is not None:
                table[destination] = hop
    return tables


def sim_tables(positions, protocol="LSR"):
    net = StaticNetwork(positions, protocol_factory(protocol))
    net.start()
    if protocol in ON_DEMAND:
        net.run(until=SEND_AT)
        net.send_data(0, 4)
    net.run(until=CONVERGE_AT)
    return next_hop_tables({node_id: net.protocol(node_id) for node_id in positions})


def live_tables(topology: str, routers: int, protocol="LSR"):
    async def go():
        network = LoopbackNetwork(
            LiveRunConfig(
                protocol=protocol,
                transport="loopback",
                topology=topology,
                routers=routers,
                duration=CONVERGE_AT + 10.0,
                warmup=CONVERGE_AT,
                time_scale=0.05,
                flows=1,
                seed=1,
            )
        )
        network.start()
        if protocol in ON_DEMAND:
            await network.run_for(SEND_AT)
            network.nodes[0].originate_data(4, 512)
            await network.run_for(CONVERGE_AT - SEND_AT)
        else:
            await network.run_for(CONVERGE_AT)
        tables = network.routing_tables()  # the runtime's dump, via next_hop
        network.finish()
        return tables

    return asyncio.run(go())


class TestRoutingTableParity:
    @pytest.mark.parametrize("protocol", LIVE_CAPABLE)
    def test_chain_converges_to_identical_tables(self, protocol):
        # 5 nodes in a line: one path per pair, no tie-breaking.
        sim = sim_tables(chain_positions(5), protocol)
        live = live_tables("line", 5, protocol)
        assert sim == live
        if protocol in ON_DEMAND:
            # The discovered route: every node on the way forwards toward 4.
            assert [sim[node_id].get(4) for node_id in range(4)] == [1, 2, 3, 4]
        else:
            # The tables are complete: every node routes to every other.
            for node_id, table in sim.items():
                assert set(table) == {n for n in range(5) if n != node_id}

    def test_grid_converges_to_identical_tables(self):
        # 3x3 grid: equal-cost paths exist, so parity additionally proves
        # both runtimes present neighbours to SPF in the same order.
        sim = sim_tables(grid_positions(3, 3))
        live = live_tables("grid", 9)
        assert sim == live

    def test_parity_runs_share_no_clock(self):
        # Guard against accidental coupling: the live tables must come from
        # protocol-time convergence, not from the sim having run first.
        live_first = live_tables("line", 4)
        sim_after = sim_tables(chain_positions(4))
        assert live_first == sim_after

