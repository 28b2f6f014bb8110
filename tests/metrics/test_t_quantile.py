"""The standard-library Student-t critical value against its oracle.

``repro.metrics.confidence`` computes the quantile itself so that no process of
a sweep loads scipy; ``scipy.stats.t.ppf`` — what the module called until
PR 19 — stays here, in the tests, as the second implementation it is held to.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.metrics.collectors import METRIC_EXTRACTORS
from repro.metrics.confidence import mean_confidence_interval, t_critical_value
from repro.sim.stats import TrialSummary

GOLDENS = Path(__file__).resolve().parent.parent / "sim" / "golden_seed_summaries.json"


def scipy_t_critical(confidence, df):
    """Exactly the expression ``mean_confidence_interval`` used before PR 19."""
    return float(stats.t.ppf((1.0 + confidence) / 2.0, df))


class TestAgainstScipy:
    @given(
        df=st.integers(min_value=1, max_value=1000),
        confidence=st.floats(min_value=0.5, max_value=0.9999),
    )
    @settings(max_examples=300, deadline=None)
    def test_relative_error_below_1e_10(self, df, confidence):
        expected = scipy_t_critical(confidence, df)
        assert t_critical_value(confidence, df) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "df, expected", [(1, 12.706204736), (9, 2.262157163), (99, 1.984216952)]
    )
    def test_pinned_values_at_95_percent(self, df, expected):
        assert t_critical_value(0.95, df) == pytest.approx(expected, abs=5e-10)

    @pytest.mark.parametrize("df", [5000, 100_000])
    def test_large_samples_keep_the_precision(self, df):
        # The normaliser is a product recurrence, not a difference of lgamma
        # values (which alone loses 4e-12 by df = 5 000), so the error stays
        # under 1e-12 far past any pooled sample here (a 4 000-cell store
        # reaches df = 799; nothing stops a user pooling more).
        for confidence in (0.5, 0.95, 0.9999):
            expected = scipy_t_critical(confidence, df)
            assert t_critical_value(confidence, df) == pytest.approx(
                expected, rel=1e-12
            )

    def test_golden_half_widths_equal_the_parents(self):
        # Every metric the reports print, over the golden smoke cells pooled
        # per protocol: the interval a user reads must not have moved.
        cells = json.loads(GOLDENS.read_text(encoding="utf-8"))["cells"]
        by_protocol = {}
        for name, cell in sorted(cells.items()):
            summary = TrialSummary.from_dict(cell["summary"])
            by_protocol.setdefault(name.split(":")[0], []).append(summary)
        assert sorted(by_protocol) == ["AODV", "DSR", "LDR", "OLSR", "SRP"]
        compared = 0
        for summaries in by_protocol.values():
            n = len(summaries)
            for extract in METRIC_EXTRACTORS.values():
                values = [extract(summary) for summary in summaries]
                mean = sum(values) / n
                variance = sum((v - mean) ** 2 for v in values) / (n - 1)
                parent = scipy_t_critical(0.95, n - 1) * math.sqrt(variance / n)
                interval = mean_confidence_interval(values)
                assert interval.half_width == pytest.approx(parent, rel=1e-12, abs=0)
                compared += 1
        assert compared == 5 * len(METRIC_EXTRACTORS)


class TestShape:
    @given(
        df=st.integers(min_value=1, max_value=1000),
        low=st.floats(min_value=0.01, max_value=0.9999),
        high=st.floats(min_value=0.01, max_value=0.9999),
    )
    @settings(max_examples=200, deadline=None)
    def test_wider_confidence_needs_a_larger_value(self, df, low, high):
        low, high = sorted((low, high))
        if high - low > 1e-9:
            assert t_critical_value(low, df) < t_critical_value(high, df)

    @given(
        df=st.integers(min_value=1, max_value=999),
        confidence=st.floats(min_value=0.01, max_value=0.9999),
    )
    @settings(max_examples=200, deadline=None)
    def test_more_degrees_of_freedom_need_a_smaller_value(self, df, confidence):
        assert t_critical_value(confidence, df + 1) < t_critical_value(confidence, df)

    def test_approaches_the_normal_quantile_from_above(self):
        assert 1.959963984 < t_critical_value(0.95, 10**6) < 1.959970


class TestMalformedInput:
    @pytest.mark.parametrize("df", [0, -1, 0.5, 2.5, float("nan"), None, "9"])
    def test_bad_degrees_of_freedom_name_the_argument(self, df):
        with pytest.raises(ValueError, match=r"\bdf\b"):
            t_critical_value(0.95, df)

    @pytest.mark.parametrize(
        "confidence", [0.0, 1.0, -0.1, 1.5, float("nan"), float("inf")]
    )
    def test_bad_confidence_names_the_argument(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            t_critical_value(confidence, 9)
        with pytest.raises(ValueError, match="confidence"):
            mean_confidence_interval([1.0, 2.0, 3.0], confidence=confidence)
