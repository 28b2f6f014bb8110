"""A trial leaves the cyclic garbage collector nothing to free.

Everything a running trial allocates and drops — backoffs, frames'
completions, proceed steps, protocol timers, flood dedup state — must die by
reference counting.  ``gc.DEBUG_SAVEALL`` makes every collection, automatic
or explicit, append what it found unreachable to ``gc.garbage`` instead of
freeing it, so an empty ``gc.garbage`` after the trial and one last collect
means no reference cycle was ever dropped.  A per-attempt closure cycle in
the MAC once left 51 935 such objects in one smoke OLSR trial.

A *finished* network is cyclic by construction (MAC and channel, node and
protocol, simulator and queue), so ``Network.run()`` starts with a
collection that frees the previous trial's network; the last test pins that.
"""

import collections
import gc
import weakref

import pytest

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.sim.faults import fault_preset
from repro.sim.network import build_network

PROTOCOLS = ("SRP", "LDR", "AODV", "DSR", "OLSR", "LSR")
FAULTS = ("clean", "churn-partition", "blackout-burst")


def smoke_scenario(faults="clean"):
    scenario = EvaluationScale.smoke().scenario
    if faults == "clean":
        return scenario
    return scenario.with_faults(fault_preset(faults, scenario))


@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trial_leaves_no_cyclic_garbage(protocol, faults):
    network = build_network(smoke_scenario(faults), protocol_factory(protocol))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        network.run()
        gc.collect()
        kinds = collections.Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert network.simulator.events_processed > 0
    assert sum(kinds.values()) == 0, f"cyclic garbage: {kinds.most_common(8)}"


def test_finished_network_is_freed_when_the_next_trial_starts():
    scenario = smoke_scenario()
    first = build_network(scenario, protocol_factory("OLSR"))
    first.run()
    # The Network record itself is acyclic; its channel sits in the cycles
    # (channel -> listener MACs -> channel) that hold the whole trial.
    finished = weakref.ref(first.channel)
    enabled = gc.isenabled()
    # With automatic collection off, the only collection between here and
    # the check is the one the second trial's run() starts with.
    gc.disable()
    try:
        del first
        assert finished() is not None, "reference counting alone freed it"
        build_network(scenario, protocol_factory("OLSR")).run()
        assert finished() is None
    finally:
        if enabled:
            gc.enable()
