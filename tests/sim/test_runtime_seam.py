"""Refactors must be invisible to the simulator: the golden trial captures.

``golden_seed_summaries.json`` pins smoke-scale cells — all five protocols x
pause {0, 25} x {clean, ``churn-partition``} — to concrete ``TrialSummary``
dicts *and* engine event counts, so a refactor is held to numbers captured
from the tree *before* it rather than to an off/on self-comparison.

The ``cells`` were last regenerated for PR 12, which retired the polling MAC
backoff (a gate-validated *model* change, so the PR 8 pre-seam captures
could not carry over): it was captured at the parent commit ``71166b6``
under ``REPRO_MAC_MODEL=frozen`` — i.e. from the parent's freeze/resume
path, before ``mac.py`` was touched — and the folded single-MAC code must
reproduce it bit for bit.

The ``wide_cells`` widen that oracle where the twenty cells do not reach:
LSR (the same pause x fault grid), every protocol under ``blackout-burst``,
and static-position trials.  They were captured at commit ``fd6d2e2``,
before the exact fast-path switches were folded into one path each, so they
hold the folded code to the numbers of the switchable one.

They double as the conformance suite for the seam itself: the simulator
must satisfy :class:`~repro.runtime.base.Clock` structurally and ``Node``
must be a :class:`~repro.runtime.base.Runtime`.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.runtime.base import Clock, Runtime, TimerHandle
from repro.sim.engine import Simulator
from repro.sim.faults import fault_preset
from repro.sim.network import build_network

GOLDEN_PATH = Path(__file__).parent / "golden_seed_summaries.json"


def _golden():
    with GOLDEN_PATH.open() as f:
        data = json.load(f)
    assert data["scale"] == "smoke"
    return data


GOLDEN = _golden()
GOLDEN_CELLS = GOLDEN["cells"]
WIDE_CELLS = GOLDEN["wide_cells"]


def capture_cell(cell_key):
    """Run the smoke trial a cell key names and return its capture.

    A key is ``PROTOCOL:pause=P`` plus optional ``:faults=PRESET`` and
    ``:static`` (nodes fixed at their initial positions).
    """
    protocol, *fields = cell_key.split(":")
    options = dict(field.partition("=")[::2] for field in fields)
    scenario = EvaluationScale.smoke().scenario.with_pause_time(float(options["pause"]))
    if options.get("faults"):
        scenario = scenario.with_faults(fault_preset(options["faults"], scenario))
    net = build_network(
        scenario, protocol_factory(protocol), static_positions="static" in options
    )
    summary = net.run()
    return {
        "events_processed": net.simulator.events_processed,
        "summary": summary.to_dict(),
    }


@pytest.mark.parametrize("cell_key", sorted(GOLDEN_CELLS))
def test_summary_bit_identical_to_golden_capture(cell_key):
    assert capture_cell(cell_key) == GOLDEN_CELLS[cell_key]


@pytest.mark.parametrize("cell_key", sorted(WIDE_CELLS))
def test_summary_bit_identical_to_wide_capture(cell_key):
    assert capture_cell(cell_key) == WIDE_CELLS[cell_key]


def test_golden_file_covers_all_five_protocols_and_both_pauses():
    protocols = {key.split(":")[0] for key in GOLDEN_CELLS}
    assert protocols == {"SRP", "LDR", "AODV", "DSR", "OLSR"}
    assert len(GOLDEN_CELLS) == 20
    assert sum("faults=churn-partition" in key for key in GOLDEN_CELLS) == 10


def test_wide_captures_cover_lsr_blackouts_and_static_trials():
    assert sorted(key for key in WIDE_CELLS if key.startswith("LSR:pause=")) == [
        "LSR:pause=0",
        "LSR:pause=0:faults=blackout-burst",
        "LSR:pause=0:faults=churn-partition",
        "LSR:pause=25",
        "LSR:pause=25:faults=churn-partition",
    ]
    blackouts = {
        key.split(":")[0] for key in WIDE_CELLS if key.endswith("faults=blackout-burst")
    }
    assert blackouts == {"SRP", "LDR", "AODV", "DSR", "OLSR", "LSR"}
    assert sorted(key for key in WIDE_CELLS if key.endswith(":static")) == [
        "OLSR:pause=0:static",
        "SRP:pause=0:static",
    ]
    assert len(WIDE_CELLS) == 4 + 6 + 2


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

    def test_protocol_clock_accessor_is_the_runtime_clock(self):
        scenario = EvaluationScale.smoke().scenario
        net = build_network(scenario, protocol_factory("OLSR"))
        node = next(iter(net.nodes.values()))
        assert node.protocol.clock is node.clock
