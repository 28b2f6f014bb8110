"""Refactors must be invisible to the simulator: the golden trial captures.

``golden_seed_summaries.json`` pins smoke-scale cells — all five protocols x
pause {0, 25} x {clean, ``churn-partition``} — to concrete ``TrialSummary``
dicts *and* engine event counts, so a refactor is held to numbers captured
from the tree *before* it rather than to an off/on self-comparison.

The file was last regenerated for PR 12, which retired the polling MAC
backoff (a gate-validated *model* change, so the PR 8 pre-seam captures
could not carry over): it was captured at the parent commit ``71166b6``
under ``REPRO_MAC_MODEL=frozen`` — i.e. from the parent's freeze/resume
path, before ``mac.py`` was touched — and the folded single-MAC code must
reproduce it bit for bit.

They double as the conformance suite for the seam itself: the simulator
must satisfy :class:`~repro.runtime.base.Clock` structurally and ``Node``
must be a :class:`~repro.runtime.base.Runtime`.
"""

import json
import random
from pathlib import Path

import pytest

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.runtime.base import Clock, Runtime, TimerHandle
from repro.sim.engine import Simulator
from repro.sim.faults import fault_preset
from repro.sim.network import build_network

GOLDEN_PATH = Path(__file__).parent / "golden_seed_summaries.json"


def _golden_cells():
    with GOLDEN_PATH.open() as f:
        data = json.load(f)
    assert data["scale"] == "smoke"
    return data["cells"]


GOLDEN_CELLS = _golden_cells()


@pytest.mark.parametrize("cell_key", sorted(GOLDEN_CELLS))
def test_summary_bit_identical_to_golden_capture(cell_key):
    protocol, _, rest = cell_key.partition(":pause=")
    pause_part, _, preset = rest.partition(":faults=")
    scenario = EvaluationScale.smoke().scenario.with_pause_time(float(pause_part))
    if preset:
        scenario = scenario.with_faults(fault_preset(preset, scenario))
    net = build_network(scenario, protocol_factory(protocol))
    summary = net.run()
    expected = GOLDEN_CELLS[cell_key]
    assert summary.to_dict() == expected["summary"]
    assert net.simulator.events_processed == expected["events_processed"]


def test_golden_file_covers_all_five_protocols_and_both_pauses():
    protocols = {key.split(":")[0] for key in GOLDEN_CELLS}
    assert protocols == {"SRP", "LDR", "AODV", "DSR", "OLSR"}
    assert len(GOLDEN_CELLS) == 20
    assert sum("faults=churn-partition" in key for key in GOLDEN_CELLS) == 10


class TestRuntimeConformance:
    def test_simulator_satisfies_clock_protocol(self):
        sim = Simulator()
        assert isinstance(sim, Clock)
        handle = sim.schedule_in(1.0, lambda: None)
        assert isinstance(handle, TimerHandle)
        handle.cancel()

    def test_node_is_a_runtime_with_the_simulator_as_clock(self):
        scenario = EvaluationScale.smoke().scenario
        net = build_network(scenario, protocol_factory("SRP"))
        node = next(iter(net.nodes.values()))
        assert isinstance(node, Runtime)
        assert node.clock is net.simulator

    def test_node_rng_is_seed_deterministic(self):
        scenario = EvaluationScale.smoke().scenario
        nets = [
            build_network(scenario, protocol_factory("SRP")) for _ in range(2)
        ]
        draws = []
        for net in nets:
            node = net.nodes[0]
            rng = node.rng("test-stream")
            assert isinstance(rng, random.Random)
            draws.append([rng.random() for _ in range(4)])
        assert draws[0] == draws[1]

    def test_protocol_clock_accessor_is_the_runtime_clock(self):
        scenario = EvaluationScale.smoke().scenario
        net = build_network(scenario, protocol_factory("OLSR"))
        node = next(iter(net.nodes.values()))
        assert node.protocol.clock is node.clock
        # Backward-compatible alias kept during the transition.
        assert node.protocol.simulator is node.clock
