"""Rendering experiment results as the paper's tables and figure series.

Results flow out of :mod:`repro.experiments.runner` as nested dictionaries
(protocol -> pause time -> list of per-trial metric values).  The helpers here
turn them into:

* a fixed-width text table in the format of Table I (protocol rows, metric
  columns, ``mean ± half-width``), and
* per-figure series (one row per pause time, one column per protocol) that can
  be printed, asserted against in tests, or dumped for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .confidence import ConfidenceInterval, mean_confidence_interval

__all__ = [
    "MetricSeries",
    "format_table",
    "format_series",
    "interval_or_empty",
    "series_from_results",
]


def interval_or_empty(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Interval of ``values``, or a NaN placeholder for an empty sample.

    Reports rendered from a partially-completed sweep store have cells with no
    trials yet; those render as ``nan ± nan`` rather than refusing to report
    the cells that did complete.
    """
    if not values:
        return ConfidenceInterval(math.nan, math.nan, confidence, 0)
    return mean_confidence_interval(list(values), confidence)


@dataclass(frozen=True, slots=True)
class MetricSeries:
    """One figure's worth of data: metric values by (protocol, x value)."""

    metric: str
    x_label: str
    x_values: Sequence[float]
    by_protocol: Mapping[str, Sequence[ConfidenceInterval]]

def series_from_results(
    metric: str,
    x_label: str,
    x_values: Sequence[float],
    results: Mapping[str, Mapping[float, Sequence[float]]],
    confidence: float = 0.95,
) -> MetricSeries:
    """Collapse per-trial values into per-point confidence intervals."""
    by_protocol: Dict[str, List[ConfidenceInterval]] = {}
    for protocol, per_x in results.items():
        by_protocol[protocol] = [
            interval_or_empty(per_x[x], confidence) for x in x_values
        ]
    return MetricSeries(metric, x_label, list(x_values), by_protocol)


def format_table(
    rows: Mapping[str, Mapping[str, ConfidenceInterval]],
    *,
    title: str = "",
    metric_order: Sequence[str] = (),
) -> str:
    """Render a Table-I-style table: one row per protocol, one column per metric."""
    protocols = list(rows)
    metrics = list(metric_order) if metric_order else list(next(iter(rows.values())))
    header = ["protocol"] + list(metrics)
    lines = []
    if title:
        lines.append(title)
    widths = [max(len(header[0]), max((len(p) for p in protocols), default=8))]
    widths += [max(len(m), 17) for m in metrics]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for protocol in protocols:
        cells = [protocol.ljust(widths[0])]
        for metric, width in zip(metrics, widths[1:]):
            interval = rows[protocol][metric]
            cells.append(
                f"{interval.mean:.3f} ± {interval.half_width:.3f}".ljust(width)
            )
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_series(series: MetricSeries) -> str:
    """Render a figure's series as a fixed-width text table (x by protocol)."""
    protocols = list(series.by_protocol)
    header = [series.x_label] + protocols
    widths = [max(len(series.x_label), 10)] + [max(len(p), 17) for p in protocols]
    lines = [f"{series.metric}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for index, x in enumerate(series.x_values):
        cells = [f"{x:g}".ljust(widths[0])]
        for protocol, width in zip(protocols, widths[1:]):
            interval = series.by_protocol[protocol][index]
            cells.append(
                f"{interval.mean:.3f} ± {interval.half_width:.3f}".ljust(width)
            )
        lines.append("  ".join(cells))
    return "\n".join(lines)
