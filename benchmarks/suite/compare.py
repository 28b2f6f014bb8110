"""``--compare A.json B.json``: judge record B against record A.

One row per (workload, end-to-end metric) with both medians and quartiles,
the ratio with its base, and a verdict:

``better`` / ``worse``
    B's median differs from A's by more than the metric's bound — or, when
    the run-to-run spread is wider than the bound, every run of B reads
    better (worse) than every run of A.
``same``
    The medians are within the bound and so is the spread.
``unresolved``
    The spread (interquartile distance over median, of either record) is
    wider than the bound and the two records' runs overlap: the benchmark
    cannot tell, and says so instead of saying "unchanged".

Counts the program makes itself (events, frames, receptions) are printed as
counts, equal or not — never as a speed-up — beside whether the simulated
statistics are identical.  Exit code 1 on any ``worse`` or any rise in
``failed_share``; 2 when the records are not comparable at all.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping

from catalogue import END_TO_END, EXACT_COUNTS, Metric

HOST_KEYS = ("cpu_model", "host_cpus", "python")


def _spread(summary: Mapping[str, Any]) -> float:
    median = abs(summary["median"])
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def verdict(metric: Metric, a: Mapping[str, Any], b: Mapping[str, Any]) -> str:
    if metric.name == "failed_share":
        return "worse" if b["max"] > a["max"] else "same"
    lower = metric.better == "lower"
    if max(_spread(a), _spread(b)) > metric.bound:
        if (b["max"] < a["min"]) if lower else (b["min"] > a["max"]):
            return "better"
        if (b["min"] > a["max"]) if lower else (b["max"] < a["min"]):
            return "worse"
        return "unresolved"
    worse_by = metric.worse_by(a["median"], b["median"])
    if worse_by > metric.bound:
        return "worse"
    return "better" if worse_by < -metric.bound else "same"


def refusal(a: Mapping[str, Any], b: Mapping[str, Any]) -> str:
    """Why the two records cannot be compared, or ``""``."""
    for record, label in ((a, "A"), (b, "B")):
        if not record.get("comparable", False):
            return f"record {label} is stamped non-comparable (a --selfcheck record)"
    differing = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if differing:
        return "the records come from different hosts: " + ", ".join(
            f"{k} {a['host'].get(k)!r} vs {b['host'].get(k)!r}" for k in differing
        )
    return ""


def compare(a: Mapping[str, Any], b: Mapping[str, Any]) -> Dict[str, Any]:
    """The rows, count tables and exit code; printing is :func:`render`."""
    rows: List[Dict[str, Any]] = []
    counts: List[Dict[str, Any]] = []
    digests: Dict[str, bool] = {}
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, metric in END_TO_END.items():
            if name not in entry_a["end_to_end"] or name not in entry_b["end_to_end"]:
                continue
            sa, sb = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric.unit,
                    "a": sa,
                    "b": sb,
                    "ratio": sb["median"] / sa["median"] if sa["median"] else None,
                    "verdict": verdict(metric, sa, sb),
                }
            )
        digests[workload] = (
            entry_a["stats_digest"] is not None
            and entry_a["stats_digest"] == entry_b["stats_digest"]
        )
        for name in EXACT_COUNTS:
            if name in entry_a["counts"] and name in entry_b["counts"]:
                counts.append(
                    {
                        "workload": workload,
                        "metric": name,
                        "a": entry_a["counts"][name],
                        "b": entry_b["counts"][name],
                    }
                )
    worse = [r for r in rows if r["verdict"] == "worse"]
    return {
        "rows": rows,
        "counts": counts,
        "digests": digests,
        "reference": {"a": a.get("reference", {}), "b": b.get("reference", {})},
        "noisy": [label for label, r in (("A", a), ("B", b)) if r["host"].get("noisy")],
        "exit_code": 1 if worse else 0,
    }


def render(result: Mapping[str, Any]) -> None:
    for label in result["noisy"]:
        print(f"note: record {label} was taken on a loaded host (noisy: true)")
    print(
        f"{'workload':<17} {'metric':<13} {'unit':<8} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'B/A':>7}  verdict"
    )
    for row in result["rows"]:
        a, b = row["a"], row["b"]
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(
            f"{row['workload']:<17} {row['metric']:<13} {row['unit']:<8} "
            f"{a['median']:>10.4f} [{a['q1']:>8.4f},{a['q3']:>8.4f}] "
            f"{b['median']:>10.4f} [{b['q1']:>8.4f},{b['q3']:>8.4f}] "
            f"{ratio:>7}  {row['verdict']}"
        )
    print("(ratios are B over A: base A)")
    print("\nsimulated statistics identical (stats_digest):")
    for workload, same in result["digests"].items():
        print(f"  {workload:<17} {'yes' if same else 'NO'}")
    print("\nexact counts (counts made by the program; not speed-ups):")
    for row in result["counts"]:
        state = "equal" if row["a"] == row["b"] else "DIFFERENT"
        print(
            f"  {row['workload']:<17} {row['metric']:<34} "
            f"{row['a']:>12} {row['b']:>12}  {state}"
        )
    for label, reference in result["reference"].items():
        for workload, check in reference.items():
            state = "matches" if check["matches"] else "simulated behaviour changed"
            print(f"reference, record {label.upper()}, {workload}: {state}")
    worse = [r for r in result["rows"] if r["verdict"] == "worse"]
    unresolved = [r for r in result["rows"] if r["verdict"] == "unresolved"]
    rows = len(result["rows"])
    print(f"\n{rows} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    for row in worse:
        print(f"  WORSE: {row['workload']} {row['metric']}")


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    reason = refusal(a, b)
    if reason:
        print(f"refusing to compare: {reason}")
        return 2
    result = compare(a, b)
    render(result)
    return result["exit_code"]
