"""OLSR and LSR skip route rebuilds only when a rebuild would change nothing.

Both link-state protocols rebuild their routing table on a periodic tick,
but skip the shortest-path run while no input was added or replaced (dirty
flag) and no entry that fed the last rebuild can have expired (validity
horizon).  The contract is exactness: after every tick the kept table must
equal a fresh rebuild over the protocol's current state.  These tests probe
that after each tick of a whole smoke trial, then restore the protocol's
table and bookkeeping, so the probed trial must still reproduce its golden
capture bit for bit.
"""

import pytest

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.sim.faults import fault_preset
from repro.sim.network import build_network

from ..sim.test_runtime_seam import GOLDEN_CELLS, WIDE_CELLS

GOLDEN = {**GOLDEN_CELLS, **WIDE_CELLS}


def probe_route_ticks(protocol, counts):
    """Wrap ``protocol``'s route tick to check the kept table after each one.

    ``counts`` tallies ticks that skipped the rebuild and ticks that ran it.
    """
    maintain = protocol._route_maintenance

    def checked(now):
        before = protocol.routing_table
        maintain(now)
        kept = protocol.routing_table
        counts["skipped" if kept is before else "rebuilt"] += 1
        bookkeeping = (
            protocol._routes_dirty,
            protocol._routes_valid_until,
            protocol._routes_computed_at,
        )
        protocol._recompute_routes()
        assert protocol.routing_table == kept, (protocol.node_id, now)
        protocol.routing_table = kept
        (
            protocol._routes_dirty,
            protocol._routes_valid_until,
            protocol._routes_computed_at,
        ) = bookkeeping

    protocol._route_maintenance = checked


@pytest.mark.parametrize(
    "preset", [None, "churn-partition"], ids=["clean", "churn-partition"]
)
@pytest.mark.parametrize("pause", [0, 25])
@pytest.mark.parametrize("name", ["OLSR", "LSR"])
def test_every_route_tick_leaves_a_fresh_table(name, pause, preset):
    scenario = EvaluationScale.smoke().scenario.with_pause_time(float(pause))
    cell_key = f"{name}:pause={pause}"
    if preset is not None:
        scenario = scenario.with_faults(fault_preset(preset, scenario))
        cell_key += f":faults={preset}"
    network = build_network(scenario, protocol_factory(name))
    counts = {"skipped": 0, "rebuilt": 0}
    for node in network.nodes.values():
        probe_route_ticks(node.protocol, counts)
    summary = network.run()
    # Both branches of the tick ran, dozens of times over.
    assert min(counts.values()) > 30, counts
    assert {
        "events_processed": network.simulator.events_processed,
        "summary": summary.to_dict(),
    } == GOLDEN[cell_key]
