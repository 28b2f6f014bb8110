"""From the passes' raw results to the record: medians, checks, printing.

A record is plain JSON.  Per workload it holds every end-to-end metric as
median, quartiles, minimum and the raw values with their count; the exact
counts and the digest of the simulated statistics; and, after a traced pass,
every per-layer metric ``BENCHMARK.json`` declares (0 where the workload does
not exercise the layer, which for ``store_4k``'s ``sim.*`` is the prediction).
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Mapping, Sequence

from catalogue import (
    CONTRACT_END_TO_END,
    END_TO_END,
    EXACT_COUNTS,
    NAME_RE,
    PER_LAYER,
    REFERENCE_JSON,
    UNIT_RE,
    WORKLOADS,
)

SCHEMA = 1

#: Per-layer metrics that are statistics of the simulated network, not of the
#: simulator: printed with a label so nobody reads them as host performance.
SIMULATED_STATISTICS = (
    "protocols.control_transmissions",
    "protocols.data_delivered",
    "protocols.delivery_ratio",
    "protocols.mean_latency_ms",
    "protocols.network_load",
)


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles(n=4)``), extremes, raw values."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def workload_entry(
    workload: str,
    passes: Sequence[Mapping[str, Any]],
    extra_setups: Sequence[float] = (),
) -> Dict[str, Any]:
    """One workload's part of the record, from its untraced passes."""
    samples: Dict[str, List[float]] = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "cells_per_s": [p["cells"] / p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes] + list(extra_setups),
        "sim_speedup": [p["sim_seconds"] / p["wall_s"] for p in passes],
        "failed_share": [
            p["failed"] / p["attempted"] if p["attempted"] else 1.0 for p in passes
        ],
    }
    end_to_end = {
        name: {
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
            **summarize(samples[name]),
        }
        for name, metric in END_TO_END.items()
        if metric.applies(workload)
    }
    failures = [message for p in passes for message in p["failures"]]
    digests = {p["stats_digest"] for p in passes}
    if len(digests) > 1:
        failures.append(f"{len(digests)} different stats_digests over the passes")
    exact = [_exact_counts(p["counts"]) for p in passes]
    if any(counts != exact[0] for counts in exact):
        failures.append("exact counts differ between passes")
    failed = sum(p["failed"] for p in passes)
    steps: Dict[str, float] = {}
    for name in passes[0].get("steps", {}):
        steps[name] = statistics.median(p["steps"][name] for p in passes)
    return {
        "passes": len(passes),
        "end_to_end": end_to_end,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "failures": failures,
        "correct": failed == 0 and not failures,
        "stats_digest": digests.pop() if len(digests) == 1 else None,
        "events_by_trial": passes[0].get("events_by_trial"),
        "counts": {**passes[0]["counts"], **steps},
    }


def _exact_counts(counts: Mapping[str, Any]) -> Dict[str, Any]:
    return {name: counts[name] for name in EXACT_COUNTS if name in counts}


def per_layer_values(
    traced: Mapping[str, Any], drivers: Mapping[str, float]
) -> Dict[str, Dict[str, Any]]:
    """Every declared per-layer metric for one workload, from its traced
    child's result and the drivers'; raises on a metric nobody declared."""
    measured: Dict[str, float] = {
        **traced["counts"],
        **traced.get("steps", {}),
        **traced.get("layers", {}),
        **drivers,
    }
    undeclared = sorted(set(measured) - set(PER_LAYER))
    if undeclared:
        raise KeyError(f"per-layer metrics not in BENCHMARK.json: {undeclared}")
    return {
        name: {"value": measured.get(name, 0), "unit": metric.unit}
        for name, metric in PER_LAYER.items()
    }


def reference_check(workloads: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """The pinned event counts against this record's: a mismatch means the
    simulated behaviour changed, which a gate-validated model change may do —
    reported, never a failure."""
    pinned = json.loads(REFERENCE_JSON.read_text(encoding="utf-8"))["workloads"]
    out: Dict[str, Any] = {}
    for workload, reference in pinned.items():
        entry = workloads.get(workload)
        if entry is None:
            continue
        measured = {
            "events_by_trial": entry.get("events_by_trial"),
            "stats_digest": entry.get("stats_digest"),
        }
        out[workload] = {
            "pinned": reference,
            "measured": measured,
            "matches": all(measured[key] == value for key, value in reference.items()),
        }
    return out


def validate(record: Mapping[str, Any]) -> List[str]:
    """Problems that make a record unusable against ``BENCHMARK.json``."""
    problems: List[str] = []
    for workload in WORKLOADS:
        entry = record["workloads"].get(workload)
        if entry is None:
            problems.append(f"{workload}: missing from the record")
            continue
        expected = {n: m for n, m in END_TO_END.items() if m.applies(workload)}
        problems += _check_metrics(
            f"{workload} end_to_end", entry["end_to_end"], expected
        )
        if "per_layer" in entry:
            problems += _check_metrics(
                f"{workload} per_layer", entry["per_layer"], PER_LAYER
            )
    for workload in record["workloads"]:
        if workload not in WORKLOADS:
            problems.append(f"{workload}: not a declared workload")
    return problems


def _check_metrics(where: str, found: Mapping[str, Any], declared) -> List[str]:
    problems = []
    for name, metric in declared.items():
        if name not in found:
            problems.append(f"{where}: {name} missing")
        elif found[name]["unit"] != metric.unit:
            problems.append(
                f"{where}: {name} has unit {found[name]['unit']!r}, "
                f"declared {metric.unit!r}"
            )
    for name, value in found.items():
        if name not in declared:
            problems.append(f"{where}: {name} is not declared")
        if not NAME_RE.match(name) or not UNIT_RE.match(value["unit"]):
            problems.append(f"{where}: bad name or unit {name!r} {value['unit']!r}")
    return problems


def contract_line(entry: Mapping[str, Any]) -> str:
    """The one JSON object a contract run prints last: every per-layer metric
    when the entry has a traced pass, else every contract end-to-end metric."""
    if "per_layer" in entry:
        metrics = entry["per_layer"]
    else:
        metrics = {
            name: {"value": entry["end_to_end"][name]["median"], "unit": metric.unit}
            for name, metric in CONTRACT_END_TO_END.items()
        }
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": max(1, entry["attempted"]),
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def print_record(record: Mapping[str, Any]) -> None:
    host = record["host"]
    print(
        f"host: {host['cpu_model']} x{host['host_cpus']}, python {host['python']}, "
        f"commit {host['commit']}{' (dirty)' if host['dirty'] else ''}, "
        f"load {host['loadavg_1m_start']:.2f}"
        f"{' NOISY' if host['noisy'] else ''}, tmp on {host['tmp_fs']}, "
        f"seed {host['seed']}, size {record['size']}"
        f"{'' if record['comparable'] else ' (NOT COMPARABLE)'}"
    )
    for workload, entry in record["workloads"].items():
        print(f"\n{workload}  ({entry['passes']} passes)")
        print(
            f"  {'metric':<14} {'unit':<8} {'median':>11} {'q1':>11} "
            f"{'q3':>11} {'min':>11} {'n':>3}"
        )
        for name, m in entry["end_to_end"].items():
            print(
                f"  {name:<14} {m['unit']:<8} {m['median']:>11.4f} {m['q1']:>11.4f} "
                f"{m['q3']:>11.4f} {m['min']:>11.4f} {m['n']:>3}"
            )
        state = "yes" if entry["correct"] else "NO"
        print(
            f"  outputs correct: {state} ({entry['failed']} of {entry['attempted']} "
            f"operations failed); stats_digest {str(entry['stats_digest'])[:16]}"
        )
        for message in entry["failures"]:
            print(f"    FAILED: {message}")
        if "per_layer" in entry:
            print("  per layer (traced pass; seconds are traced seconds, not speed):")
            idle = 0
            for name, m in entry["per_layer"].items():
                if not m["value"]:
                    idle += 1
                    continue
                note = " (simulated)" if name in SIMULATED_STATISTICS else ""
                print(f"    {name:<40} {m['value']:>16.6g} {m['unit']}{note}")
            print(f"    ({idle} more read 0: layers this workload does not exercise)")
    for workload, check in record.get("reference", {}).items():
        state = "matches" if check["matches"] else "SIMULATED BEHAVIOUR CHANGED"
        print(f"\nreference {workload}: {state}")
