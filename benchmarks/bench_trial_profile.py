"""End-to-end single-trial wall-clock benchmark and the perf trajectory.

This is the *un-instrumented* companion of ``python -m repro.experiments
profile``: one trial per protocol, measured with ``time.perf_counter`` and
nothing else, so the seconds are honest.  It writes/updates the repo's
committed performance trajectory record (``BENCH_5.json``: commit, scale,
per-protocol seconds + events/s, and — with ``--with-off`` — the reference
slow-path seconds and the resulting fast-path speedup), and it *checks* a
committed record so CI fails loudly when a change regresses the trial hot
path.

Runable three ways:

* under pytest-benchmark with the rest of the suite,
* ``python benchmarks/bench_trial_profile.py --scale paper-tier --with-off
  --json BENCH_5.json`` to (re)generate the trajectory record, or
* ``python benchmarks/bench_trial_profile.py --scale smoke --check
  BENCH_5.json --tolerance 1.5`` — the CI perf-smoke gate.  The tolerance is
  generous because CI hardware differs from the hardware that produced the
  committed record; it catches step-change regressions (an accidentally
  disabled fast path, a new quadratic loop), not single-digit drift.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.experiments.paper import SCALE_NAMES, resolve_scale
from repro.experiments.profile import reference_protocol_factory
from repro.protocols import protocol_factory
from repro.sim.network import build_network
from repro.sim.tuning import EngineTuning, FastPaths

#: The two acceptance protocols: the costliest trial (OLSR, proactive
#: flooding) and the paper's own protocol (SRP).
DEFAULT_PROTOCOLS = ("OLSR", "SRP")

RECORD_VERSION = 1


def _git_commit() -> Optional[str]:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                cwd=Path(__file__).resolve().parent,
            ).stdout.strip()
            or None
        )
    except OSError:
        return None


def run_point(
    scenario,
    protocol: str,
    *,
    fast_paths: Optional[FastPaths] = None,
    tuning: Optional[EngineTuning] = None,
    repeat: int = 1,
) -> Dict[str, float]:
    """One un-instrumented trial; seconds, events and events/s.

    ``repeat`` takes the best of N identical runs — the right estimator for
    wall-clock on a shared/noisy box, since every run computes the same
    deterministic trial and only the interference differs.  ``tuning``
    selects the engine configuration (event queue, backend) to measure.
    """
    factory = (
        reference_protocol_factory(protocol)
        if fast_paths == FastPaths.none()
        else protocol_factory(protocol)
    )
    seconds = float("inf")
    for _ in range(max(repeat, 1)):
        network = build_network(
            scenario, factory, fast_paths=fast_paths, tuning=tuning
        )
        started = time.perf_counter()
        summary = network.run()
        seconds = min(seconds, time.perf_counter() - started)
        events = network.simulator.events_processed
    return {
        "seconds": round(seconds, 3),
        "events": events,
        "events_per_second": round(events / seconds, 1) if seconds > 0 else 0.0,
        "delivery_ratio": round(summary.delivery_ratio, 4),
    }


def build_record(
    scale_name: str,
    protocols: List[str],
    *,
    pause: Optional[float] = None,
    with_off: bool = False,
    repeat: int = 1,
    event_queue: str = "calendar",
    engine_backend: str = "serial",
    shard_count: int = 0,
) -> Dict:
    """Measure every protocol point and assemble one configuration's record."""
    scale = resolve_scale(scale_name)
    pause_time = pause if pause is not None else scale.pause_times[0]
    scenario = scale.scenario.with_pause_time(pause_time)
    tuning = EngineTuning(
        event_queue=event_queue,
        engine_backend=engine_backend,
        shard_count=shard_count,
    )
    record: Dict = {
        "scale": scale.name,
        "pause_time": pause_time,
        "node_count": scenario.node_count,
        "duration": scenario.duration,
        "event_queue": event_queue,
        "engine_backend": engine_backend,
        "shard_count": tuning.resolved_shard_count() if engine_backend != "serial" else 0,
        "commit": _git_commit(),
        "protocols": {},
    }
    for protocol in protocols:
        point = run_point(scenario, protocol, tuning=tuning, repeat=repeat)
        if with_off:
            off = run_point(
                scenario,
                protocol,
                fast_paths=FastPaths.none(),
                tuning=tuning,
                repeat=repeat,
            )
            point["off_seconds"] = off["seconds"]
            if point["seconds"] > 0:
                point["speedup"] = round(off["seconds"] / point["seconds"], 2)
        record["protocols"][protocol] = point
    return record


def record_key(record: Dict) -> str:
    """The trajectory-document key for one record.

    The engine's default configuration (calendar queue, serial backend)
    keeps the bare scale name and non-default axes are appended:
    ``smoke+heap``, ``smoke+sharded2``, ``smoke+heap+sharded2``.
    """
    key = record["scale"]
    if record.get("event_queue", "calendar") != "calendar":
        key += f"+{record['event_queue']}"
    if record.get("engine_backend", "serial") != "serial":
        key += f"+{record['engine_backend']}{record.get('shard_count', 0)}"
    return key


def merge_into_document(document: Optional[Dict], record: Dict) -> Dict:
    """Fold one record into the trajectory document.

    ``BENCH_5.json`` keeps one record per :func:`record_key` — scale plus
    any non-default engine configuration (the paper-tier numbers are the
    headline trajectory; the smoke records are the CI gate's baselines) —
    so regenerating one configuration leaves the others untouched.
    """
    if not document or "records" not in document:
        document = {"version": RECORD_VERSION, "records": {}}
    document["version"] = RECORD_VERSION
    document["commit"] = record["commit"]
    document["python"] = platform.python_version()
    document["records"][record_key(record)] = record
    return document


def check_against_baseline(
    record: Dict, baseline_document: Dict, tolerance: float
) -> List[str]:
    """Regression messages (empty = pass) comparing seconds per protocol."""
    key = record_key(record)
    baseline = baseline_document.get("records", {}).get(key)
    if baseline is None:
        return [
            f"baseline document holds no record for configuration "
            f"{key!r}; regenerate it with --json"
        ]
    problems: List[str] = []
    for protocol, point in record["protocols"].items():
        base = baseline.get("protocols", {}).get(protocol)
        if base is None:
            continue
        limit = base["seconds"] * tolerance
        if point["seconds"] > limit:
            problems.append(
                f"{protocol}: {point['seconds']:.2f}s exceeds "
                f"{tolerance:g}x the recorded baseline "
                f"({base['seconds']:.2f}s -> limit {limit:.2f}s)"
            )
    return problems


def _print_record(record: Dict) -> None:
    print(
        f"scale={record['scale']} pause={record['pause_time']:g} "
        f"queue={record.get('event_queue', 'calendar')} "
        + (
            f"backend={record['engine_backend']}x{record.get('shard_count', 0)} "
            if record.get("engine_backend", "serial") != "serial"
            else ""
        )
        + f"({record['node_count']} nodes, {record['duration']:g}s simulated, "
        f"commit {record['commit'] or '?'})"
    )
    header = (
        f"{'protocol':<8} {'wall s':>8} {'events':>10} "
        f"{'events/s':>10} {'delivery':>9}"
    )
    if any("off_seconds" in p for p in record["protocols"].values()):
        header += f" {'off s':>8} {'speedup':>8}"
    print(header)
    for protocol, point in record["protocols"].items():
        line = (
            f"{protocol:<8} {point['seconds']:>8.2f} {point['events']:>10} "
            f"{point['events_per_second']:>10,.0f} {point['delivery_ratio']:>9.3f}"
        )
        if "off_seconds" in point:
            line += f" {point['off_seconds']:>8.2f} {point.get('speedup', 0):>7.2f}x"
        print(line)


# -- pytest-benchmark integration -------------------------------------------------


@pytest.mark.parametrize("protocol", DEFAULT_PROTOCOLS)
def bench_trial_wall_clock(benchmark, protocol):
    """One smoke-scale trial per protocol with events/s in the report."""
    scale = resolve_scale("smoke")
    scenario = scale.scenario.with_pause_time(scale.pause_times[0])
    result = benchmark.pedantic(
        run_point, args=(scenario, protocol), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    assert result["events"] > 0


# -- CLI ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=tuple(SCALE_NAMES),
        default="paper-tier",
        help="scenario size to measure (default: paper-tier)",
    )
    parser.add_argument(
        "--protocol",
        nargs="+",
        metavar="PROTO",
        default=list(DEFAULT_PROTOCOLS),
        help=f"protocols to measure (default: {' '.join(DEFAULT_PROTOCOLS)})",
    )
    parser.add_argument(
        "--pause",
        type=float,
        default=None,
        metavar="S",
        help="mobility pause time (default: the scale's first pause time)",
    )
    parser.add_argument(
        "--with-off",
        action="store_true",
        help="also measure the reference slow path (fast paths disabled) "
        "and record the speedup",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the trajectory record to PATH (e.g. BENCH_5.json)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against a committed trajectory record; exit 1 on "
        "regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="allowed wall-clock ratio vs the baseline (default: 1.5)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="take the best of N runs per point (for noisy/shared hosts)",
    )
    parser.add_argument(
        "--queue",
        choices=("heap", "calendar"),
        default="calendar",
        help="event-queue implementation to measure (default: calendar)",
    )
    parser.add_argument(
        "--engine-backend",
        choices=("serial", "sharded"),
        default="serial",
        help="engine backend to measure (default: serial); the sharded "
        "backend gets its own record (e.g. 'smoke+sharded2')",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="K",
        help="shard count for the sharded backend (0 = auto from cores)",
    )
    args = parser.parse_args(argv)

    record = build_record(
        args.scale,
        args.protocol,
        pause=args.pause,
        with_off=args.with_off,
        repeat=args.repeat,
        event_queue=args.queue,
        engine_backend=args.engine_backend,
        shard_count=args.shards,
    )
    _print_record(record)

    if args.json is not None:
        path = Path(args.json)
        document = None
        if path.exists():
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                # A corrupt trajectory file must fail loudly: silently
                # resetting it would wipe every other record on disk.
                print(
                    f"error: {path} is not valid JSON ({exc}); fix or "
                    "remove it before merging new records",
                    file=sys.stderr,
                )
                return 2
        document = merge_into_document(document, record)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print(f"(trajectory record for scale '{record['scale']}' written to {path})")

    if args.check is not None:
        baseline_path = Path(args.check)
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        problems = check_against_baseline(record, baseline, args.tolerance)
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(
            f"perf check OK: every protocol within {args.tolerance:g}x of "
            f"the committed baseline (commit {baseline.get('commit') or '?'})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
