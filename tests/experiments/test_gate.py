"""Unit tests for the science gate's invariant engine.

Every invariant type is driven with hand-built :class:`SweepResults` so each
verdict — pass, fail, and the deliberately distinct *inconclusive* for partial
stores and statistically tied comparisons — is pinned down without running a
single simulation.
"""

from typing import Dict, Tuple

import pytest

from repro.experiments.gate import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    BoundInvariant,
    ExactInvariant,
    OrderingInvariant,
    evaluate_gate,
    paper_invariants,
)
from repro.experiments.runner import SweepResults
from repro.sim.stats import TrialSummary


def summary(
    *,
    delivery: float = 1.0,
    load: float = 0.5,
    latency: float = 0.01,
    drops: float = 0.0,
    seqno: float = 0.0,
) -> TrialSummary:
    """A synthetic trial summary with the paper metrics set directly."""
    sent = 1000
    delivered = round(delivery * sent)
    return TrialSummary(
        data_sent=sent,
        data_delivered=delivered,
        control_transmissions=round(load * delivered),
        mean_latency=latency,
        mac_drops_per_node=drops,
        average_sequence_number=seqno,
        duplicate_deliveries=0,
    )


def make_results(
    cells: Dict[Tuple[str, float, int], TrialSummary],
    *,
    pause_times=(0.0, 30.0),
    trials: int = 2,
    protocols=("SRP", "OLSR"),
) -> SweepResults:
    results = SweepResults(
        pause_times=list(pause_times), trials=trials, protocols=list(protocols)
    )
    for (protocol, pause, trial), cell_summary in cells.items():
        results.add(protocol, pause, trial, cell_summary)
    return results


def full_results(per_protocol, **kwargs) -> SweepResults:
    """Complete results: ``per_protocol[name]`` is a summary factory taking
    (pause, trial), applied to every cell of the sweep."""
    pause_times = kwargs.get("pause_times", (0.0, 30.0))
    trials = kwargs.get("trials", 2)
    cells = {
        (protocol, pause, trial): factory(pause, trial)
        for protocol, factory in per_protocol.items()
        for pause in pause_times
        for trial in range(trials)
    }
    return make_results(
        cells, protocols=list(per_protocol), **kwargs
    )


def ordering(**overrides) -> OrderingInvariant:
    defaults = dict(
        name="olsr-above-srp",
        figure="Fig. 5",
        claim="OLSR load above SRP",
        metric="network_load",
        greater="OLSR",
        lesser="SRP",
    )
    defaults.update(overrides)
    return OrderingInvariant(**defaults)


class TestOrderingInvariant:
    def test_clear_separation_passes(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(load=0.5 + 0.01 * t),
                "OLSR": lambda p, t: summary(load=6.0 + 0.01 * t),
            }
        )
        outcome = ordering(require_separation=True).evaluate(results)
        assert outcome.status == PASS

    def test_significant_reversal_fails(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(load=6.0 + 0.01 * t),
                "OLSR": lambda p, t: summary(load=0.5 + 0.01 * t),
            }
        )
        outcome = ordering().evaluate(results)
        assert outcome.status == FAIL
        assert any("ordering reversed" in detail for detail in outcome.details)

    def test_reversal_at_one_pause_is_named(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(
                    load=(9.0 if p == 30.0 else 0.5) + 0.01 * t
                ),
                "OLSR": lambda p, t: summary(load=6.0 + 0.01 * t),
            }
        )
        outcome = ordering().evaluate(results)
        assert outcome.status == FAIL
        assert any(
            "pause 30" in detail and "reversed" in detail
            for detail in outcome.details
        )

    def test_overlap_passes_a_matches_claim(self):
        # Wide within-protocol spread -> overlapping intervals.
        results = full_results(
            {
                "SRP": lambda p, t: summary(load=0.5 + 3.0 * t),
                "OLSR": lambda p, t: summary(load=0.6 + 3.0 * t),
            }
        )
        assert ordering().evaluate(results).status == PASS

    def test_overlap_is_inconclusive_for_a_dominance_claim(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(load=0.5 + 3.0 * t),
                "OLSR": lambda p, t: summary(load=0.6 + 3.0 * t),
            }
        )
        outcome = ordering(require_separation=True).evaluate(results)
        assert outcome.status == INCONCLUSIVE
        assert any("overlap" in detail for detail in outcome.details)

    def test_tolerance_absorbs_a_tiny_reversal(self):
        # Single trial -> zero-width intervals: every difference is
        # "significant", which is exactly what the tolerance is for.
        results = full_results(
            {
                "SRP": lambda p, t: summary(load=0.510),
                "OLSR": lambda p, t: summary(load=0.500),
            },
            trials=1,
        )
        assert ordering().evaluate(results).status == FAIL
        assert ordering(tolerance=0.02).evaluate(results).status == PASS

    def test_rel_tolerance_scales_with_the_metric(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(latency=0.014),
                "OLSR": lambda p, t: summary(latency=0.010),
            },
            trials=1,
        )
        lenient = ordering(metric="latency", rel_tolerance=0.5)
        strict = ordering(metric="latency")
        assert strict.evaluate(results).status == FAIL
        assert lenient.evaluate(results).status == PASS

    def test_partial_store_is_inconclusive_not_pass(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(load=0.5),
                "OLSR": lambda p, t: summary(load=6.0),
            }
        )
        del results.summaries[("OLSR", 30.0, 1)]
        outcome = ordering().evaluate(results)
        assert outcome.status == INCONCLUSIVE

    def test_missing_protocol_is_inconclusive(self):
        results = full_results({"SRP": lambda p, t: summary(load=0.5)})
        outcome = ordering().evaluate(results)
        assert outcome.status == INCONCLUSIVE
        assert any("no stored trials for OLSR" in d for d in outcome.details)

    def test_first_pause_only_ignores_later_pauses(self):
        # Reversed everywhere except pause 0; a first-pause-only claim passes.
        results = full_results(
            {
                "SRP": lambda p, t: summary(load=0.5 if p == 0.0 else 9.0),
                "OLSR": lambda p, t: summary(load=6.0),
            }
        )
        assert ordering(first_pause_only=True).evaluate(results).status == PASS
        assert ordering().evaluate(results).status == FAIL

    def test_pooled_compares_averages_over_all_pauses(self):
        # Per-pause: SRP is tightly above OLSR at pause 0 -> that pause fails.
        # Pooled: the pause-0 spike widens SRP's interval into overlap -> tie.
        results = full_results(
            {
                "SRP": lambda p, t: summary(
                    latency=0.100 if p == 0.0 else 0.010
                ),
                "OLSR": lambda p, t: summary(latency=0.015 + 0.001 * t),
            }
        )
        per_pause = ordering(metric="latency")
        pooled = ordering(metric="latency", pooled=True)
        assert per_pause.evaluate(results).status == FAIL
        assert pooled.evaluate(results).status == PASS
        assert "all pauses" in pooled.evaluate(results).details[0]


class TestBoundInvariant:
    def bound(self, **overrides) -> BoundInvariant:
        defaults = dict(
            name="delivery-bounded",
            figure="Fig. 4",
            claim="ratios are fractions",
            metric="delivery_ratio",
            protocols=("SRP", "OLSR"),
            lower=0.0,
            upper=1.0,
        )
        defaults.update(overrides)
        return BoundInvariant(**defaults)

    def test_in_bounds_passes(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(delivery=0.99),
                "OLSR": lambda p, t: summary(delivery=0.95),
            }
        )
        assert self.bound().evaluate(results).status == PASS

    def test_violation_fails_naming_the_cell(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(delivery=0.99),
                "OLSR": lambda p, t: summary(
                    delivery=1.2 if p == 30.0 else 0.95
                ),
            }
        )
        outcome = self.bound().evaluate(results)
        assert outcome.status == FAIL
        assert any(
            "OLSR" in detail and "pause 30" in detail
            for detail in outcome.details
        )

    def test_partial_store_is_inconclusive_not_pass(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(delivery=0.99),
                "OLSR": lambda p, t: summary(delivery=0.95),
            }
        )
        del results.summaries[("SRP", 0.0, 0)]
        assert self.bound().evaluate(results).status == INCONCLUSIVE

    def test_empty_store_is_inconclusive(self):
        results = make_results({})
        assert self.bound().evaluate(results).status == INCONCLUSIVE

    def test_one_sided_bound(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(seqno=-1.0),
                "OLSR": lambda p, t: summary(seqno=0.0),
            }
        )
        lower_only = self.bound(
            metric="sequence_number", lower=0.0, upper=None
        )
        assert lower_only.evaluate(results).status == FAIL


class TestExactInvariant:
    def exact(self, **overrides) -> ExactInvariant:
        defaults = dict(
            name="srp-seqno-zero",
            figure="Fig. 7",
            claim="SRP never uses a sequence number",
            metric="sequence_number",
            protocol="SRP",
            expected=0.0,
        )
        defaults.update(overrides)
        return ExactInvariant(**defaults)

    def test_all_zero_passes(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(seqno=0.0),
                "OLSR": lambda p, t: summary(seqno=5.0),  # other protocols free
            }
        )
        assert self.exact().evaluate(results).status == PASS

    def test_single_nonzero_cell_fails_naming_pause_and_trial(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(
                    seqno=3.0 if (p, t) == (30.0, 1) else 0.0
                ),
                "OLSR": lambda p, t: summary(seqno=0.0),
            }
        )
        outcome = self.exact().evaluate(results)
        assert outcome.status == FAIL
        assert any(
            "pause 30" in detail and "trial 1" in detail
            for detail in outcome.details
        )

    def test_partial_store_is_inconclusive_not_pass(self):
        results = full_results(
            {
                "SRP": lambda p, t: summary(seqno=0.0),
                "OLSR": lambda p, t: summary(seqno=0.0),
            }
        )
        del results.summaries[("SRP", 30.0, 1)]
        outcome = self.exact().evaluate(results)
        assert outcome.status == INCONCLUSIVE
        assert any("3/4 cells" in detail for detail in outcome.details)


class TestPaperRegistry:
    def test_registry_shape(self):
        registry = paper_invariants()
        names = [invariant.name for invariant in registry]
        assert len(names) == len(set(names)), "invariant names must be unique"
        assert len(registry) >= 10
        for invariant in registry:
            assert invariant.figure
            assert invariant.claim

    def test_flagship_invariants_registered(self):
        names = {invariant.name for invariant in paper_invariants()}
        assert "srp-sequence-numbers-zero" in names
        assert "olsr-load-above-srp" in names
        assert "srp-delivery-no-worse-than-dsr" in names


class TestEvaluateGate:
    def healthy_results(self) -> SweepResults:
        return full_results(
            {
                "SRP": lambda p, t: summary(
                    delivery=0.99, load=0.5, latency=0.010, seqno=0.0
                ),
                "LDR": lambda p, t: summary(
                    delivery=0.99, load=0.6, latency=0.010, seqno=0.1
                ),
                "AODV": lambda p, t: summary(
                    delivery=0.99, load=0.6, latency=0.010, seqno=1.0
                ),
                "DSR": lambda p, t: summary(
                    delivery=0.95, load=0.4, latency=0.010, seqno=0.0
                ),
                "OLSR": lambda p, t: summary(
                    delivery=0.98, load=6.0 + 0.01 * t, latency=0.040, seqno=0.0
                ),
            }
        )

    def test_healthy_sweep_passes_every_invariant(self):
        report = evaluate_gate(self.healthy_results())
        assert not report.failed
        assert report.exit_code() == 0

    def test_corrupted_seqno_fails_and_is_named(self):
        results = self.healthy_results()
        results.add("SRP", 0.0, 0, summary(seqno=2.0, delivery=0.99, load=0.5))
        report = evaluate_gate(results)
        assert report.exit_code() == 1
        assert "srp-sequence-numbers-zero" in [
            outcome.name for outcome in report.failed
        ]
        assert "srp-sequence-numbers-zero" in report.to_text()
        assert "VIOLATED" in report.to_text()

    def test_strict_turns_inconclusive_into_failure(self):
        results = self.healthy_results()
        del results.summaries[("DSR", 0.0, 0)]
        report = evaluate_gate(results)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1
        assert report.inconclusive

    def test_report_dict_is_structured(self):
        report = evaluate_gate(self.healthy_results(), scale="unit")
        data = report.to_dict()
        assert data["scale"] == "unit"
        assert data["failed"] == 0
        assert data["completed_cells"] == data["planned_cells"] == 20
        assert {entry["name"] for entry in data["invariants"]} == {
            invariant.name for invariant in paper_invariants()
        }

    def test_custom_registry(self):
        invariant = ExactInvariant(
            name="custom",
            figure="-",
            claim="-",
            metric="sequence_number",
            protocol="SRP",
        )
        report = evaluate_gate(self.healthy_results(), [invariant])
        assert [outcome.name for outcome in report.outcomes] == ["custom"]


@pytest.mark.parametrize("status", [PASS, FAIL, INCONCLUSIVE])
def test_statuses_are_distinct_strings(status):
    assert status in {"pass", "fail", "inconclusive"}
