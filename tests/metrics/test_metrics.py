"""Tests for confidence intervals, metric extraction and report formatting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collectors import METRIC_EXTRACTORS, extract_metric
from repro.metrics.confidence import ConfidenceInterval, mean_confidence_interval
from repro.metrics.report import format_series, format_table, series_from_results
from repro.sim.stats import TrialSummary


def make_summary(**overrides):
    base = dict(
        data_sent=100,
        data_delivered=80,
        control_transmissions=40,
        mean_latency=0.5,
        mac_drops_per_node=3.0,
        average_sequence_number=1.5,
        duplicate_deliveries=0,
    )
    base.update(overrides)
    return TrialSummary(**base)


class TestConfidenceIntervals:
    def test_known_small_sample(self):
        interval = mean_confidence_interval([1.0, 2.0, 3.0])
        assert interval.mean == pytest.approx(2.0)
        # t(0.975, 2 dof) = 4.3027; s = 1.0; half width = 4.3027/sqrt(3)
        assert interval.half_width == pytest.approx(4.3027 / math.sqrt(3), rel=1e-3)

    def test_single_sample_has_zero_width(self):
        interval = mean_confidence_interval([5.0])
        assert interval.mean == 5.0
        assert interval.half_width == 0.0

    def test_identical_samples_have_zero_width(self):
        interval = mean_confidence_interval([2.0, 2.0, 2.0, 2.0])
        assert interval.half_width == pytest.approx(0.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)

    def test_bounds(self):
        interval = ConfidenceInterval(1.0, 0.25, 0.95, 5)
        assert interval.low == 0.75
        assert interval.high == 1.25

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=20))
    def test_mean_always_inside_interval(self, values):
        interval = mean_confidence_interval(values)
        assert interval.low <= interval.mean <= interval.high

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=20))
    def test_higher_confidence_widens_interval(self, values):
        narrow = mean_confidence_interval(values, confidence=0.90)
        wide = mean_confidence_interval(values, confidence=0.99)
        assert wide.half_width >= narrow.half_width - 1e-12


class TestMetricExtraction:
    def test_all_paper_metrics_defined(self):
        assert set(METRIC_EXTRACTORS) == {
            "delivery_ratio",
            "network_load",
            "latency",
            "mac_drops",
            "sequence_number",
            # Resilience metrics (fault-injection trials; neutral when clean).
            "delivery_during_fault",
            "delivery_post_fault",
            "route_recovery_time",
            "heal_control_burst",
        }

    def test_extract_each_metric(self):
        summary = make_summary()
        assert extract_metric(summary, "delivery_ratio") == pytest.approx(0.8)
        assert extract_metric(summary, "network_load") == pytest.approx(0.5)
        assert extract_metric(summary, "latency") == 0.5
        assert extract_metric(summary, "mac_drops") == 3.0
        assert extract_metric(summary, "sequence_number") == 1.5

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            extract_metric(make_summary(), "goodput")


class TestReportFormatting:
    def _results(self):
        return {
            "SRP": {0.0: [0.9, 0.92], 100.0: [0.95, 0.97]},
            "AODV": {0.0: [0.7, 0.72], 100.0: [0.8, 0.82]},
        }

    def test_series_from_results(self):
        series = series_from_results(
            "delivery ratio", "pause time", [0.0, 100.0], self._results()
        )
        assert [interval.mean for interval in series.by_protocol["SRP"]] == [
            pytest.approx(0.91),
            pytest.approx(0.96),
        ]
        assert len(series.by_protocol["AODV"]) == 2

    def test_format_series_contains_all_protocols_and_x_values(self):
        series = series_from_results(
            "delivery ratio", "pause time", [0.0, 100.0], self._results()
        )
        text = format_series(series)
        assert "SRP" in text and "AODV" in text
        assert "0" in text and "100" in text

    def test_format_table(self):
        rows = {
            "SRP": {"delivery_ratio": ConfidenceInterval(0.83, 0.01, 0.95, 10)},
            "AODV": {"delivery_ratio": ConfidenceInterval(0.74, 0.04, 0.95, 10)},
        }
        text = format_table(rows, title="Table I", metric_order=["delivery_ratio"])
        assert "Table I" in text
        assert "SRP" in text and "0.830" in text
        assert "AODV" in text and "0.740" in text
