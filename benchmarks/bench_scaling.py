"""Node-count scaling benchmark: events/sec as trials grow past paper size.

The spatial-index + hot-path work (uniform-grid neighbour queries, the
per-timestamp position cache and the tuple-entry event heap) exists so that
sweeps *larger* than the paper's 50–100 nodes stay tractable.  This benchmark
tracks that directly: one SRP trial per node count on a terrain scaled to the
paper's node density, recording simulator events per wall-clock second so the
trajectory catches regressions in the channel or engine hot paths.

Runable two ways:

* under pytest-benchmark with the rest of the suite, or
* as a plain script — ``python benchmarks/bench_scaling.py --nodes 24``
  (the CI smoke invocation) or with several ``--nodes`` values for the
  full sweep table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from repro.protocols import protocol_factory
from repro.sim.network import build_network
from repro.sim.tuning import EngineTuning
from repro.workloads.scenario import scaled_scenario

#: The sweep: laptop scale, the paper's two evaluation sizes, and 2x paper.
NODE_COUNTS = (24, 50, 100, 200)

#: Paper node density: 100 nodes on 2200 m x 600 m.
_PAPER_DENSITY_AREA_PER_NODE = 2200.0 * 600.0 / 100.0


def scaling_scenario(node_count: int, *, duration: float = 25.0, seed: int = 31):
    """A scenario with the paper's node density and traffic mix at ``node_count``.

    The terrain keeps the paper's 600 m height and grows in width, so the
    network stays a multi-hop strip and per-node contention is comparable
    across sweep points.
    """
    height = 600.0
    width = max(node_count * _PAPER_DENSITY_AREA_PER_NODE / height, 600.0)
    return scaled_scenario(
        node_count=node_count,
        flow_count=max(4, (30 * node_count) // 100),
        duration=duration,
        terrain_width=width,
        terrain_height=height,
        seed=seed,
    )


def run_point(
    node_count: int,
    *,
    duration: float = 25.0,
    protocol: str = "SRP",
    shards: int = 0,
    processes: bool = False,
):
    """Run one sweep point; returns (wall_seconds, events, summary).

    ``shards > 0`` runs the point on the sharded PDES backend with that
    shard count (the trial is bit-identical; only the wall clock differs),
    adding a shard-count axis to the scaling table.  ``processes`` runs it
    in the windowed cross-process mode instead — one worker per shard
    under the speed-of-light propagation-delay channel (the model the
    science gate validates), which is where multi-core hosts see actual
    wall-clock speedup.
    """
    if processes:
        from repro.sim.pdes import run_trial_sharded_processes
        from repro.sim.phy import SPEED_OF_LIGHT_DELAY_S_PER_M

        scenario = scaling_scenario(node_count, duration=duration)
        scenario = scenario.with_propagation_delay(SPEED_OF_LIGHT_DELAY_S_PER_M)
        start = time.perf_counter()
        report = run_trial_sharded_processes(
            scenario,
            protocol,
            static_positions=False,
            max_workers=max(shards, 2),
        )
        elapsed = time.perf_counter() - start
        return elapsed, report.events_processed, report.summary
    tuning = (
        EngineTuning(engine_backend="sharded", shard_count=shards)
        if shards > 0
        else None
    )
    network = build_network(
        scaling_scenario(node_count, duration=duration),
        protocol_factory(protocol),
        tuning=tuning,
    )
    start = time.perf_counter()
    summary = network.run()
    elapsed = time.perf_counter() - start
    return elapsed, network.simulator.events_processed, summary


@pytest.mark.parametrize("node_count", NODE_COUNTS)
def bench_scaling_srp(benchmark, node_count):
    """One SRP trial per sweep point, reported with its events/sec rate."""
    result = benchmark.pedantic(
        run_point, args=(node_count,), rounds=1, iterations=1
    )
    elapsed, events, summary = result
    benchmark.extra_info["node_count"] = node_count
    benchmark.extra_info["events_processed"] = events
    benchmark.extra_info["events_per_second"] = round(events / elapsed, 1)
    assert summary.data_sent > 0


def _scaling_record(
    node_count,
    duration,
    protocol,
    shards,
    elapsed,
    events,
    summary,
    processes=False,
):
    """One trajectory record for a scaling point, bench_trial_profile-shaped.

    The record keys read ``scaling200`` (serial) / ``scaling200+sharded4`` /
    ``scaling200+proc2`` (windowed process mode), so the node-count x
    shard-count grid lives in BENCH_5.json beside the per-scale records and
    the same ``--check`` machinery gates both.  Process-mode records carry
    the host's core count so a single-vCPU runner's honest overhead number
    is never mistaken for a multi-core speedup measurement.
    """
    import os

    from bench_trial_profile import _git_commit

    if processes:
        backend = "proc"
    elif shards > 0:
        backend = "sharded"
    else:
        backend = "serial"
    record = {
        "scale": f"scaling{node_count}",
        "pause_time": 0.0,
        "node_count": node_count,
        "duration": duration,
        "event_queue": "calendar",
        "engine_backend": backend,
        "shard_count": shards,
        "commit": _git_commit(),
        "protocols": {
            protocol: {
                "seconds": round(elapsed, 3),
                "events": events,
                "events_per_second": round(events / elapsed, 1) if elapsed else 0.0,
                "delivery_ratio": round(summary.delivery_ratio, 4),
            }
        },
    }
    if processes:
        record["host_cpus"] = os.cpu_count() or 1
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes",
        type=int,
        action="append",
        help="node count to run (repeatable; default: the full sweep)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        action="append",
        metavar="K",
        help="also run each point on the sharded PDES backend with K shards "
        "(repeatable; 0 = the serial engine, the default single axis)",
    )
    parser.add_argument("--duration", type=float, default=25.0)
    parser.add_argument("--protocol", default="SRP")
    parser.add_argument(
        "--processes",
        action="store_true",
        help="run the nonzero --shards points in the windowed cross-process "
        "mode (speed-of-light propagation-delay channel, one worker per "
        "shard); records key as e.g. scaling200+proc2 and carry host_cpus "
        "so single-core overhead is never read as speedup",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="merge per-point trajectory records into PATH (e.g. BENCH_5.json)",
    )
    args = parser.parse_args(argv)
    counts = tuple(args.nodes) if args.nodes else NODE_COUNTS
    shard_axis = tuple(args.shards) if args.shards else (0,)

    # bench_trial_profile owns the trajectory-record machinery; the
    # benchmarks directory is only on sys.path when run under pytest.
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    records = []
    print(
        f"{'nodes':>6} {'shards':>6} {'wall s':>8} {'events':>10} "
        f"{'events/s':>10} {'delivery':>9}"
    )
    for node_count in counts:
        for shards in shard_axis:
            processes = bool(args.processes and shards > 0)
            try:
                elapsed, events, summary = run_point(
                    node_count,
                    duration=args.duration,
                    protocol=args.protocol,
                    shards=shards,
                    processes=processes,
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            backend_tag = "proc" if processes else (shards or "-")
            print(
                f"{node_count:>6} {backend_tag:>6} {elapsed:>8.2f} {events:>10} "
                f"{events / elapsed:>10.0f} {summary.delivery_ratio:>9.3f}"
            )
            if summary.data_sent <= 0:
                print("error: trial originated no data packets", file=sys.stderr)
                return 1
            records.append(
                _scaling_record(
                    node_count,
                    args.duration,
                    args.protocol,
                    shards,
                    elapsed,
                    events,
                    summary,
                    processes=processes,
                )
            )

    if args.json is not None:
        from bench_trial_profile import merge_into_document

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
        for record in records:
            document = merge_into_document(document, record)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print(f"({len(records)} scaling record(s) merged into {path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
