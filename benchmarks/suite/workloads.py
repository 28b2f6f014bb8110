"""The four workloads, as run inside one fresh child process per pass.

Each workload sets up (imports, inputs), measures one timed region from
outside through the layers' public functions, then checks the outputs.  With
``trace`` it afterwards repeats the work once under instrumentation — cProfile
for the trial workloads, the benchmark's own spans for the harness workloads —
so traced seconds never mix with the end-to-end numbers.

The shipped default configuration is what runs: no tuning or fast-path
argument is passed anywhere, and the parent strips ``REPRO_*`` from the
environment.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.experiments.__main__  # noqa: F401  (what every CLI step imports)
from repro.experiments.distributed import store_status
from repro.experiments.executor import SerialBackend, execute_jobs, run_job
from repro.experiments.gate import evaluate_gate
from repro.experiments.jobs import TrialJob, plan_sweep
from repro.experiments.paper import (
    EXPERIMENTS,
    PAPER_PROTOCOLS,
    figure_text,
    resolve_scale,
    table1_text,
)
from repro.experiments.runner import collect_sweep
from repro.experiments.store import ResultsStore
from repro.experiments.trajectory import merge_stores
from repro.protocols import protocol_factory
from repro.sim.network import build_network
from repro.sim.stats import TrialSummary
from repro.workloads.scenario import PAPER_PAUSE_TIMES, PAPER_SCENARIO

import layers
from catalogue import SIZES
from proc import run_process
from spans import Tracer

STORE_METHODS = (
    "ensure_meta",
    "put",
    "get",
    "missing",
    "planned_jobs",
    "load_results",
    "write_results",
    "merge_from",
    "diff_cells",
)


class Checks:
    """Operations attempted and failed in one pass, with the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def tally(self, attempted: int, failed: int, message: str) -> None:
        """``attempted`` operations, of which ``failed`` failed for ``message``."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.messages) < 10:
                self.messages.append(message)

    def expect(self, ok: bool, message: str) -> None:
        self.tally(1, 0 if ok else 1, message)


class Region:
    """Wall, CPU (children included) and set-up time of one timed region."""

    def __init__(self, spawned_at: float) -> None:
        self.setup_s = time.time() - spawned_at
        self._cpu = _cpu_seconds()
        self._wall = perf_counter()
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def stop(self) -> None:
        self.wall_s = perf_counter() - self._wall
        self.cpu_s = _cpu_seconds() - self._cpu


def _cpu_seconds() -> float:
    """User + system CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set among this process and the children it waited
    for (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cells_wrong(expected: int, *found: int) -> int:
    """How many of ``expected`` cells to count as failed when the counts
    ``found`` along the pipeline do not all equal it."""
    return min(expected, sum(abs(expected - n) for n in found))


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_step(
    name: str, argv: Sequence[str], steps: Dict[str, float], checks: Checks
) -> None:
    """One ``python -m repro.experiments`` subprocess, as a user types it."""
    code, output, wall = run_process(
        [sys.executable, "-m", "repro.experiments", *argv]
    )
    steps[f"experiments.cli.{name}_s"] = wall
    tail = " | ".join(output.strip().splitlines()[-3:])
    checks.expect(code == 0, f"CLI {name} exited {code}: {tail}")


def _cold_import_s() -> float:
    code, output, wall = run_process(
        [sys.executable, "-c", "import repro.experiments.__main__"]
    )
    if code != 0:
        raise RuntimeError(f"cold import failed: {output.strip()[-300:]}")
    return wall


def _protocol_metrics(summaries: Sequence[TrialSummary]) -> Dict[str, float]:
    """The simulated statistics of a set of trials, pooled."""
    sent = sum(s.data_sent for s in summaries)
    delivered = sum(s.data_delivered for s in summaries)
    control = sum(s.control_transmissions for s in summaries)
    latency = sum(s.mean_latency * s.data_delivered for s in summaries)
    return {
        "protocols.control_transmissions": control,
        "protocols.data_delivered": delivered,
        "protocols.delivery_ratio": delivered / sent if sent else 0.0,
        "protocols.mean_latency_ms": latency / delivered * 1e3 if delivered else 0.0,
        "protocols.network_load": control / delivered if delivered else 0.0,
    }


def _result(
    region: Region,
    checks: Checks,
    *,
    cells: int,
    sim_seconds: float,
    stats_digest: str,
    counts: Dict[str, float],
    **extra: Any,
) -> Dict[str, Any]:
    return {
        "setup_s": region.setup_s,
        "wall_s": region.wall_s,
        "cpu_s": region.cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "cells": cells,
        "sim_seconds": sim_seconds,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "stats_digest": stats_digest,
        "counts": counts,
        **extra,
    }


# -- trial workloads -----------------------------------------------------------------


def _run_trials(
    protocol: str,
    scenario,
    seeds: Sequence[int],
    checks: Checks,
    profiler: Optional[cProfile.Profile] = None,
) -> Tuple[List[TrialSummary], List[int], Dict[str, int]]:
    """``build_network`` + ``Network.run()`` per seed; the summaries, the
    event count of each trial, and the layers' own counters summed."""
    summaries: List[TrialSummary] = []
    events: List[int] = []
    counts = dict.fromkeys(
        (
            "sim.mac.enqueued",
            "sim.mac.transmitted_frames",
            "sim.mac.retries",
            "sim.mac.queue_drops",
            "sim.mac.retry_drops",
            "sim.channel.transmissions",
            "sim.channel.receptions_started",
            "sim.channel.receptions_delivered",
            "sim.channel.collisions",
        ),
        0,
    )
    for seed in seeds:
        try:
            network = build_network(
                scenario.with_seed(seed), protocol_factory(protocol)
            )
            if profiler is not None:
                profiler.enable()
            try:
                summary = network.run()
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception as exc:  # a trial that raises is a failed operation
            checks.expect(False, f"{protocol} seed {seed} raised {exc!r}")
            continue
        checks.expect(
            summary.data_sent > 0, f"{protocol} seed {seed} sent no data packets"
        )
        summaries.append(summary)
        events.append(network.simulator.events_processed)
        for node in network.nodes.values():
            mac = node.mac.stats
            counts["sim.mac.enqueued"] += mac.enqueued
            counts["sim.mac.transmitted_frames"] += mac.transmitted_frames
            counts["sim.mac.retries"] += mac.retries
            counts["sim.mac.queue_drops"] += mac.queue_drops
            counts["sim.mac.retry_drops"] += mac.retry_drops
        channel = network.channel.stats
        counts["sim.channel.transmissions"] += channel.transmissions
        counts["sim.channel.receptions_started"] += channel.receptions_started
        counts["sim.channel.receptions_delivered"] += channel.receptions_delivered
        counts["sim.channel.collisions"] += channel.collisions
    return summaries, events, counts


def trial_workload(
    protocol: str, seeds: Sequence[int], size: Dict[str, Any], ctx: "Context"
) -> Dict[str, Any]:
    scenario = resolve_scale(size["trial_scale"]).scenario.with_pause_time(0.0)
    region = Region(ctx.spawned_at)
    if ctx.setup_only:
        return {"setup_s": region.setup_s}
    checks = Checks()
    summaries, events, counts = _run_trials(protocol, scenario, seeds, checks)
    region.stop()

    total_events = sum(events)
    frames = counts["sim.mac.transmitted_frames"]
    started = counts["sim.channel.receptions_started"]
    counts = {
        "sim.engine.events": total_events,
        "sim.engine.events_per_s": total_events / region.wall_s,
        **counts,
        "sim.mac.events_per_frame": total_events / frames if frames else 0.0,
        "sim.channel.delivered_per_started": (
            counts["sim.channel.receptions_delivered"] / started if started else 0.0
        ),
        **_protocol_metrics(summaries),
    }
    outputs = [[s.to_dict(), n] for s, n in zip(summaries, events)]
    extra: Dict[str, Any] = {"events_by_trial": events}
    if ctx.trace:
        profiler = cProfile.Profile()
        wall = perf_counter()
        again, again_events, _ = _run_trials(
            protocol, scenario, seeds, checks, profiler
        )
        traced_wall = perf_counter() - wall
        checks.expect(
            (again, again_events) == (summaries, events),
            "the profiled trials' outputs differ from the untraced ones",
        )
        extra["layers"] = {
            **layers.rollup(profiler),
            "trace_overhead": traced_wall / region.wall_s,
        }
    return _result(
        region,
        checks,
        cells=len(seeds),
        sim_seconds=scenario.duration * len(seeds),
        stats_digest=_digest(outputs),
        counts=counts,
        **extra,
    )


# -- sweep_cold ----------------------------------------------------------------------


def _tally_gate(report, checks: Checks) -> None:
    checks.tally(
        len(report.outcomes),
        len(report.failed),
        "gate invariants failed: " + ", ".join(o.name for o in report.failed),
    )


def _gate_counts(report) -> Dict[str, int]:
    return {
        "experiments.gate.passed": len(report.passed),
        "experiments.gate.failed": len(report.failed),
        "experiments.gate.inconclusive": len(report.inconclusive),
    }


def _render_reports(results, tracer: Tracer) -> None:
    """Table I and every figure, as ``report`` prints them."""
    tracer.wrap("experiments.paper.table1_text", table1_text)(results)
    figure = tracer.wrap("experiments.paper.figure_text", figure_text)
    for experiment_id in EXPERIMENTS:
        if experiment_id.startswith("fig"):
            figure(experiment_id, results)


def sweep_workload(size: Dict[str, Any], ctx: "Context") -> Dict[str, Any]:
    scale_name = size["sweep_scale"]
    expected_cells = ctx.expected_cells or size["sweep_cells"]
    root = ctx.tmp / "sweep"
    region = Region(ctx.spawned_at)
    if ctx.setup_only:
        return {"setup_s": region.setup_s}
    checks = Checks()
    steps: Dict[str, float] = {}
    store_args = ["--out", str(root)]
    run_args = ["--scale", scale_name, "--jobs", str(size["sweep_jobs"]), "--quiet"]
    _cli_step("run", ["run", *run_args, *store_args], steps, checks)
    _cli_step("gate", ["gate", "--scale", scale_name, *store_args], steps, checks)
    _cli_step("report", ["report", *store_args], steps, checks)
    region.stop()

    store = ResultsStore(root)
    jobs = store.planned_jobs()
    results = store.load_results()
    present = len(results.summaries)
    checks.tally(
        expected_cells,
        _cells_wrong(expected_cells, len(jobs), present),
        f"store holds {present} of {len(jobs)} planned cells, "
        f"expected {expected_cells}",
    )
    quarantined = store.failure_keys()
    checks.expect(not quarantined, f"{len(quarantined)} failure records in the store")
    report = evaluate_gate(results, scale=scale_name)
    _tally_gate(report, checks)
    cells = sorted(results.summaries.items())
    counts = {
        **_protocol_metrics([summary for _, summary in cells]),
        **_gate_counts(report),
    }
    extra: Dict[str, Any] = {"steps": steps}
    if ctx.trace:
        tracer = _replay_sweep(scale_name, ctx.tmp / "sweep-replay", checks, results)
        cell_seconds = tracer.total("experiments.executor.run_job")
        extra["spans"] = tracer.to_json()
        extra["layers"] = {
            **_span_metrics(tracer),
            "experiments.cli.import_s": _cold_import_s(),
            "experiments.executor.pool_efficiency": cell_seconds
            / (size["sweep_jobs"] * steps["experiments.cli.run_s"]),
            "trace_overhead": tracer.durations("sweep_cold")[0] / region.wall_s,
        }
    return _result(
        region,
        checks,
        cells=expected_cells,
        sim_seconds=sum(job.scenario.duration for job in jobs),
        stats_digest=_digest([[key, summary.to_dict()] for key, summary in cells]),
        counts=counts,
        **extra,
    )


def _traced_store(tracer: Tracer, root: Path) -> ResultsStore:
    """A fresh store instance (as every CLI step, a fresh process, gets) with
    a span around each of its public calls."""
    return tracer.wrap_methods(ResultsStore(root), "experiments.store", STORE_METHODS)


def _replay_sweep(scale_name: str, root: Path, checks: Checks, expected) -> Tracer:
    """``run`` -> ``gate`` -> ``report`` in this process at one worker, with a
    span around every call into planner, executor, store, gate and report."""
    tracer = Tracer("sweep_cold")
    traced_plan = tracer.wrap("experiments.jobs.plan_sweep", plan_sweep)
    tracer.begin("sweep_cold")
    scale = resolve_scale(scale_name)
    store = _traced_store(tracer, root)
    store.ensure_meta(
        scale=scale.name,
        scenario=scale.scenario,
        protocols=PAPER_PROTOCOLS,
        pause_times=scale.pause_times,
        trials=scale.trials,
    )
    jobs = traced_plan(
        scale.scenario,
        PAPER_PROTOCOLS,
        pause_times=scale.pause_times,
        trials=scale.trials,
    )
    backend = SerialBackend(run=tracer.wrap("experiments.executor.run_job", run_job))
    outcomes = tracer.wrap("experiments.executor.execute_jobs", execute_jobs)(
        jobs, store=store, backend=backend
    )
    collected = tracer.wrap("experiments.runner.collect_sweep", collect_sweep)(
        outcomes,
        pause_times=scale.pause_times,
        trials=scale.trials,
        protocols=PAPER_PROTOCOLS,
    )
    store.write_results(collected)
    # `gate` and `report` are new processes: each reads the store afresh.
    for step in ("gate", "report"):
        results = _traced_store(tracer, root).load_results()
        if step == "gate":
            tracer.wrap("experiments.gate.evaluate_gate", evaluate_gate)(
                results, scale=scale_name
            )
        else:
            _render_reports(results, tracer)
    tracer.end()
    checks.expect(
        results.summaries == expected.summaries,
        "the in-process replay's cells differ from the CLI run's",
    )
    return tracer


# -- store_4k ------------------------------------------------------------------------

#: (delivery ratio, control per delivered, latency s, MAC drops/node, seqno)
#: per protocol, ordered as the paper's Table I orders them, so the synthetic
#: store passes the science gate the CLI runs over it.
_SYNTHETIC = {
    "SRP": (0.93, 1.0, 0.040, 1.0, 0.0),
    "LDR": (0.88, 1.6, 0.055, 1.6, 6.0),
    "AODV": (0.85, 2.2, 0.070, 2.2, 24.0),
    "DSR": (0.78, 2.8, 0.150, 3.0, 0.0),
    "OLSR": (0.72, 9.0, 0.200, 3.5, 0.0),
}


def _synthetic_summary(protocol: str, rng: random.Random) -> TrialSummary:
    delivery, load, latency, drops, seqno = _SYNTHETIC[protocol]
    sent = rng.randint(26_000, 28_000)
    delivered = int(sent * delivery * rng.uniform(0.98, 1.02))
    return TrialSummary(
        data_sent=sent,
        data_delivered=delivered,
        control_transmissions=int(delivered * load * rng.uniform(0.95, 1.05)),
        mean_latency=latency * rng.uniform(0.9, 1.1),
        mac_drops_per_node=drops * rng.uniform(0.9, 1.1),
        average_sequence_number=seqno * rng.uniform(0.9, 1.1),
        duplicate_deliveries=rng.randint(0, 5),
    )


def _store_meta(trials: int) -> Dict[str, Any]:
    return {
        "scale": "store-4k",
        "scenario": PAPER_SCENARIO,
        "protocols": PAPER_PROTOCOLS,
        "pause_times": PAPER_PAUSE_TIMES,
        "trials": trials,
    }


def _fill_stores(
    cells: Sequence[Tuple[TrialJob, TrialSummary]],
    meta: Dict[str, Any],
    full: ResultsStore,
    half_a: ResultsStore,
    half_b: ResultsStore,
) -> None:
    """Every cell into ``full``; the first half also into ``half_a``, the
    rest into ``half_b`` (what two workers' stores look like before a merge)."""
    for store in (full, half_a, half_b):
        store.ensure_meta(**meta)
    middle = len(cells) // 2
    for index, (job, summary) in enumerate(cells):
        full.put(job, summary)
        (half_a if index < middle else half_b).put(job, summary)


def store_workload(size: Dict[str, Any], ctx: "Context") -> Dict[str, Any]:
    trials = size["store_trials"]
    meta = _store_meta(trials)
    jobs = plan_sweep(
        PAPER_SCENARIO, PAPER_PROTOCOLS, pause_times=PAPER_PAUSE_TIMES, trials=trials
    )
    rng = random.Random(ctx.seed)
    cells = [(job, _synthetic_summary(job.protocol, rng)) for job in jobs]
    expected_cells = ctx.expected_cells or size["store_cells"]
    full, half_a, half_b, merged = (
        ctx.tmp / f"store-{name}" for name in ("full", "a", "b", "merged")
    )
    region = Region(ctx.spawned_at)
    if ctx.setup_only:
        return {"setup_s": region.setup_s}
    checks = Checks()
    steps: Dict[str, float] = {}
    _fill_stores(
        cells, meta, ResultsStore(full), ResultsStore(half_a), ResultsStore(half_b)
    )
    _cli_step("resume", ["resume", "--out", str(full), "--quiet"], steps, checks)
    for step in ("status", "gate", "report"):
        _cli_step(step, [step, "--out", str(full)], steps, checks)
    merge_args = ["--out", str(merged), str(half_a), str(half_b)]
    _cli_step("merge", ["merge", *merge_args], steps, checks)
    region.stop()

    loaded = ResultsStore(full).load_results()
    intact = sum(loaded.summaries.get(job.cell) == summary for job, summary in cells)
    checks.tally(
        expected_cells,
        _cells_wrong(expected_cells, intact, len(loaded.summaries)),
        f"{intact} of {len(cells)} cells read back as written "
        f"({len(loaded.summaries)} loaded), expected {expected_cells}",
    )
    try:
        mismatched = len(ResultsStore(merged).diff_cells(ResultsStore(full)))
        problem = f"{mismatched} cells of the merged store differ from the full one"
    except (FileNotFoundError, ValueError) as exc:
        mismatched, problem = len(cells), f"merged store unreadable: {exc!r}"
    checks.tally(len(cells), mismatched, problem)
    cell_bytes = sum(entry.stat().st_size for entry in os.scandir(full / "jobs"))
    counts = {"experiments.store.bytes_per_cell": cell_bytes / len(cells)}
    extra: Dict[str, Any] = {"steps": steps}
    if ctx.trace:
        tracer, gate_counts = _replay_store(cells, meta, ctx.tmp, checks)
        counts.update(gate_counts)
        extra["spans"] = tracer.to_json()
        extra["layers"] = {
            **_span_metrics(tracer),
            "experiments.cli.import_s": _cold_import_s(),
            "trace_overhead": tracer.durations("store_4k")[0] / region.wall_s,
        }
    return _result(
        region,
        checks,
        cells=expected_cells,
        sim_seconds=0.0,
        stats_digest=_digest(
            [[job.content_key, summary.to_dict()] for job, summary in cells]
        ),
        counts=counts,
        **extra,
    )


def _replay_store(
    cells, meta, tmp: Path, checks: Checks
) -> Tuple[Tracer, Dict[str, int]]:
    """The store workload in this process: the library calls behind ``resume``,
    ``status``, ``gate``, ``report`` and ``merge``, each under a span."""
    tracer = Tracer("store_4k")

    def store(name: str) -> ResultsStore:
        return _traced_store(tracer, tmp / f"replay-{name}")

    tracer.begin("store_4k")
    jobs = tracer.wrap("experiments.jobs.plan_sweep", plan_sweep)(
        meta["scenario"],
        meta["protocols"],
        pause_times=meta["pause_times"],
        trials=meta["trials"],
    )
    _fill_stores(cells, meta, store("F"), store("A"), store("B"))

    resumed = store("F")
    pending = resumed.missing(resumed.planned_jobs())
    outcomes = tracer.wrap("experiments.executor.execute_jobs", execute_jobs)(
        jobs, store=resumed
    )
    resumed.write_results(
        tracer.wrap("experiments.runner.collect_sweep", collect_sweep)(
            outcomes,
            pause_times=meta["pause_times"],
            trials=meta["trials"],
            protocols=meta["protocols"],
        )
    )
    status = tracer.wrap("experiments.distributed.store_status", store_status)(
        store("F")
    )
    report = tracer.wrap("experiments.gate.evaluate_gate", evaluate_gate)(
        store("F").load_results(), scale=meta["scale"]
    )
    _render_reports(store("F").load_results(), tracer)
    merged = store("M")
    tracer.wrap("experiments.trajectory.merge_stores", merge_stores)(
        merged, [store("A"), store("B")]
    )
    mismatched = merged.diff_cells(store("F"))

    poller = store("F")
    tracer.begin("experiments.store.missing_cold")
    poller.missing(jobs)
    tracer.end()
    tracer.begin("experiments.store.missing_warm")
    poller.missing(jobs)
    tracer.end()
    tracer.end()

    checks.expect(
        not pending
        and len(outcomes) == len(cells)
        and status["completed_cells"] == len(cells)
        and not mismatched,
        f"store replay: {len(pending)} pending, {len(outcomes)} resumed, "
        f"{status['completed_cells']} complete, {len(mismatched)} mismatched",
    )
    _tally_gate(report, checks)
    return tracer, _gate_counts(report)


# -- spans -> per-layer metrics ------------------------------------------------------


def _percentile(ordered: Sequence[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _span_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics a harness replay's spans yield.  Percentiles only
    where there are at least a thousand samples."""
    out: Dict[str, float] = {"trace.span_coverage": tracer.coverage()}
    self_times = tracer.self_times()

    def mean(span: str, metric: str, scale: float = 1.0) -> None:
        durations = tracer.durations(span)
        if durations:
            out[metric] = sum(durations) / len(durations) * scale

    for op in ("put", "get"):
        ordered = sorted(tracer.durations(f"experiments.store.{op}"))
        if len(ordered) >= 1000:
            out[f"experiments.store.{op}_us_p50"] = _percentile(ordered, 0.50) * 1e6
            out[f"experiments.store.{op}_us_p99"] = _percentile(ordered, 0.99) * 1e6
    mean("experiments.store.missing_cold", "experiments.store.missing_cold_ms", 1e3)
    mean("experiments.store.missing_warm", "experiments.store.missing_warm_ms", 1e3)
    mean("experiments.store.load_results", "experiments.store.load_results_s")
    mean("experiments.store.merge_from", "experiments.store.merge_s")
    mean("experiments.store.diff_cells", "experiments.store.diff_cells_s")
    mean("experiments.gate.evaluate_gate", "experiments.gate.evaluate_s")
    if "experiments.executor.execute_jobs" in self_times:
        out["experiments.executor.overhead_s"] = self_times[
            "experiments.executor.execute_jobs"
        ]
    out["metrics.report_s"] = sum(
        tracer.total(f"experiments.paper.{name}")
        for name in ("table1_text", "figure_text")
    )
    return out


# -- child entry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Context:
    """What the parent tells one child."""

    seed: int
    trace: bool
    setup_only: bool
    spawned_at: float  #: the parent's ``time.time()`` just before the spawn
    tmp: Path  #: this child's scratch directory, removed by the parent
    expected_cells: Optional[int]  #: overrides the size's, to make a check fail


def run_child(workload: str, size_name: str, ctx: Context) -> Dict[str, Any]:
    size = SIZES[size_name]
    if workload == "trial_olsr_dense":
        return trial_workload("OLSR", size["olsr_seeds"], size, ctx)
    if workload == "trial_srp_mobile":
        return trial_workload("SRP", size["srp_seeds"], size, ctx)
    if workload == "sweep_cold":
        return sweep_workload(size, ctx)
    if workload == "store_4k":
        return store_workload(size, ctx)
    if workload == "drivers":
        import drivers

        return {"layers": drivers.run_all(ctx.seed, size, ctx.tmp)}
    raise ValueError(f"unknown workload {workload!r}")
