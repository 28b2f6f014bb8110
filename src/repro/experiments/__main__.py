"""Command-line sweep engine: ``python -m repro.experiments``.

The first-class way to run — and police — the paper's evaluation.  The
subcommands drive the plan -> execute -> collect -> assert pipeline against a
persistent on-disk store:

``run``
    Plan the sweep for a scale, run every cell not already in the store
    (serially or across ``--jobs`` worker processes), and write the assembled
    ``results.json``.  Safe to re-run: completed cells are never recomputed.
    ``--faults PRESET`` injects a deterministic fault schedule (node churn,
    partitions, blackouts — see ``repro.sim.faults``) into every cell;
    ``--trial-timeout`` / ``--retries`` / ``--retry-backoff`` bound each
    trial with a watchdog and quarantine cells that keep failing instead of
    aborting the sweep.
``resume``
    Continue an interrupted sweep from its store directory alone — the sweep's
    parameters are read back from ``sweep.json``, so no scale flags needed.
``worker``
    Join a *distributed* sweep: work-steal cells from a shared store via
    lease files, run them, and write results into the same store.  Start any
    number of workers on any number of hosts against one directory; they
    converge on a store cell-for-cell identical to a serial run's.  A worker
    that dies mid-cell leaves a lease that goes stale after ``--lease-ttl``
    and is reclaimed by the survivors.
``status``
    Show a (possibly shared) store's progress: cells complete/torn, live and
    stale leases, and per-worker completion counts.
``report``
    Render Table I and Figures 3-7 from the cells on disk, without running
    any simulation.
``profile``
    Run one instrumented trial and print (optionally dump as JSON) its
    per-layer CPU/allocation breakdown — the data every perf change should
    start from.
``gate``
    Evaluate the registered paper-derived invariants (the *science gate*)
    against the store and exit nonzero, naming the violated invariants, when
    the reproduction no longer supports the paper's claims.
``live``
    Run the routing protocols as *live* router daemons — real asyncio
    timers instead of the simulator's virtual clock — soak them with CBR
    traffic on a static topology, and assert the live gate (delivery floor,
    physical metrics, zero flood-control violations).  ``--transport
    loopback`` runs every router on one event loop (deterministic, CI-safe);
    ``--transport udp`` launches one OS process per router exchanging real
    UDP datagrams.  Metrics land in the same results-store format as ``run``
    sweeps, so ``report``/``gate`` tooling reads them unchanged.
``merge``
    Union several stores of the same sweep into one compacted store (e.g. a
    timed-out nightly artifact plus the night that finished it).
``trajectory``
    Read several stores in order (one per run/commit) and print per-figure
    metric trajectories as ASCII sparklines, optionally dumping JSON.

Examples::

    python -m repro.experiments profile --scale smoke --protocol OLSR --json p.json
    python -m repro.experiments live --protocols LSR AODV --time-scale 0.05
    python -m repro.experiments live --transport udp --routers 5 --out live-udp
    python -m repro.experiments run --scale smoke --jobs 2 --out sweep-smoke
    python -m repro.experiments run --scale paper --jobs 8 --out sweep-paper
    python -m repro.experiments resume --out sweep-paper --jobs 8
    python -m repro.experiments worker --store /mnt/sweep --scale paper --worker-id h1
    python -m repro.experiments status --out /mnt/sweep
    python -m repro.experiments report --out sweep-paper --experiment fig4
    python -m repro.experiments gate --out sweep-paper --json gate.json
    python -m repro.experiments gate --out worker-a --union worker-b worker-c
    python -m repro.experiments merge --out merged night-1 night-2
    python -m repro.experiments trajectory night-* --experiment fig5

(Installed as the ``repro-experiments`` console script, so multi-host workers
need neither ``python -m`` nor ``PYTHONPATH``.)

Exit codes (``run`` / ``resume`` / ``worker``):

* ``0`` — sweep complete, every cell on disk;
* ``2`` — usage error (argparse, or a store/flag combination that cannot
  mean what was asked);
* ``3`` — the store directory holds a *different* sweep than requested
  (the CI nightly keys its wipe-and-retry fallback on this code; it must
  never fire on a usage error);
* ``4`` — the sweep **completed with quarantined cells**: every runnable
  cell is on disk, but some cells exhausted their fault policy (crash,
  hang, repeated error) and hold failure records instead of results.
  ``status`` lists them; a later ``resume`` retries exactly those cells;
* ``130`` — interrupted (completed cells are already on disk).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from ..protocols import PROTOCOLS
from ..sim.faults import FAULT_PRESETS, fault_preset
from .distributed import (
    DEFAULT_LEASE_TTL,
    DistributedBackend,
    default_worker_id,
    store_status,
)
from ..runtime.live import (
    TOPOLOGIES as LIVE_TOPOLOGIES,
    TRANSPORTS as LIVE_TRANSPORTS,
    LiveRunConfig,
    run_soak,
)
from ..workloads.scenario import Scenario, ScenarioFieldError
from .executor import ExecutionProgress, FaultPolicy, SweepBackend, execute_jobs
from .gate import (
    GATE_REGISTRIES,
    LIVE_PROTOCOLS,
    evaluate_gate,
    gate_registry,
    live_invariants,
)
from .jobs import TrialJob, plan_sweep
from .paper import (
    EXPERIMENTS,
    PAPER_PROTOCOLS,
    SCALE_NAMES,
    figure_text,
    resolve_scale,
    table1_text,
)
from .runner import collect_sweep
from .store import ResultsStore, StoreVersionError
from .trajectory import (
    merge_stores,
    metric_trajectories,
    trajectories_to_dict,
    trajectories_to_text,
    union_results,
)

__all__ = ["cli", "main"]


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "eta --"
    if seconds >= 3600:
        return f"eta {seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"eta {seconds / 60:.1f}m"
    return f"eta {seconds:.0f}s"


def _print_progress(event: ExecutionProgress) -> None:
    job = event.job
    if event.failed:
        state = "FAILED — quarantined"
    elif event.cached:
        state = "cached"
    else:
        state = f"{event.elapsed:7.1f}s"
    who = f" {event.worker}" if event.worker else ""
    print(
        f"  [{event.completed:>4}/{event.total}]{who} {job.protocol:<5} "
        f"pause={job.pause_time:<6g} trial={job.trial:<3} "
        f"({state}, {_format_eta(event.eta)})",
        flush=True,
    )


def _bounded(
    convert: Callable[[str], float], floor: float, *, inclusive: bool = True
) -> Callable[[str], float]:
    """An argparse type: ``convert(text)``, refused below ``floor`` (and at
    it unless ``inclusive``), so a bad number is a usage error before
    anything is written."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
        if not (value >= floor if inclusive else value > floor):
            bound = ">=" if inclusive else ">"
            raise argparse.ArgumentTypeError(f"must be {bound} {floor:g}, got {text}")
        return value

    return parse


_count = _bounded(int, 1)  #: --jobs, --trials
_retries = _bounded(int, 0)
_seconds = _bounded(float, 0.0)  #: a pause time, a retry backoff
_interval = _bounded(float, 0.0, inclusive=False)  #: timeouts, TTLs, polls


def _policy_from_args(args: argparse.Namespace) -> FaultPolicy:
    return FaultPolicy(
        timeout=args.trial_timeout, retries=args.retries, backoff=args.retry_backoff
    )


def _apply_faults(scale, preset: Optional[str]):
    """The scale with ``--faults PRESET`` folded into its scenario.

    The fault schedule becomes part of every job's scenario — and thus of
    every content key — so a faulted sweep is a *different* sweep: it never
    collides with (or silently adopts cells from) a clean store.
    """
    if preset is None:
        return scale
    scenario = scale.scenario.with_faults(fault_preset(preset, scale.scenario))
    return dataclasses.replace(scale, scenario=scenario)


def _report_quarantined(store: ResultsStore, jobs: Sequence[TrialJob]) -> int:
    """Warn about planned cells left quarantined; the CLI exit code (0 or 4)."""
    missing = {job.content_key: job for job in store.missing(jobs)}
    quarantined = {
        key: record
        for key, record in store.failure_records().items()
        if key in missing
    }
    if not quarantined:
        return 0
    print(
        f"WARNING: sweep completed with {len(quarantined)} quarantined "
        "cell(s) (failure records in failures/):",
        file=sys.stderr,
    )
    for key, record in sorted(quarantined.items()):
        job = missing.get(key)
        label = job.cell_label if job is not None else key
        print(
            f"  {label}: {record.error} after {record.attempts} attempt(s) "
            f"— {record.message}",
            file=sys.stderr,
        )
    print(
        "re-run `resume` against this store to retry quarantined cells",
        file=sys.stderr,
    )
    return 4


def _ensure_meta_or_exit(store: ResultsStore, scale, protocols) -> Optional[int]:
    """Stamp (or validate) the store's sweep identity; an exit code on refusal.

    Shared by ``run`` and ``worker`` so the exit-code contract stays single-
    sourced: 3 — distinct from argparse's usage-error 2 — means "store holds
    a different sweep", which the CI nightly keys its wipe-and-retry
    fallback on and which must not trigger on a usage error.
    """
    try:
        store.ensure_meta(
            scale=scale.name,
            scenario=scale.scenario,
            protocols=protocols,
            pause_times=scale.pause_times,
            trials=scale.trials,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return None


def _execute_and_collect(
    store: ResultsStore, jobs: List[TrialJob], backend: SweepBackend, *, quiet: bool
) -> int:
    """Run the store's pending cells, write ``results.json`` (atomic;
    concurrent workers that both observe completion write the same bytes)
    and report quarantined cells; the CLI exit code."""
    cached = len(jobs) - len(store.missing(jobs))
    workers = backend.workers
    print(
        f"Executing {len(jobs)} trial jobs "
        f"({cached} already in store, {len(jobs) - cached} to run, "
        f"{workers} worker{'s' if workers != 1 else ''})..."
    )
    started = time.monotonic()
    outcomes = execute_jobs(
        jobs,
        store=store,
        backend=backend,
        progress=None if quiet else _print_progress,
    )
    elapsed = time.monotonic() - started
    meta = store.require_meta()
    store.write_results(
        collect_sweep(
            outcomes,
            pause_times=meta["pause_times"],
            trials=meta["trials"],
            protocols=meta["protocols"],
        )
    )
    print(
        f"Sweep complete in {elapsed:.1f} s: {len(outcomes)} cells in "
        f"{store.root} (results.json written)."
    )
    return _report_quarantined(store, jobs)


def _cmd_run(args: argparse.Namespace) -> int:
    scale = _apply_faults(resolve_scale(args.scale, trials=args.trials), args.faults)
    protocols: Sequence[str] = tuple(args.protocols or PAPER_PROTOCOLS)
    store = ResultsStore(args.out)
    code = _ensure_meta_or_exit(store, scale, protocols)
    if code is not None:
        return code
    jobs = plan_sweep(
        scale.scenario,
        protocols,
        pause_times=scale.pause_times,
        trials=scale.trials,
    )
    faulted = f", faults '{args.faults}'" if args.faults else ""
    print(
        f"Sweep '{scale.name}': {scale.scenario.node_count} nodes, "
        f"{len(protocols)} protocols x {len(scale.pause_times)} pause times "
        f"x {scale.trials} trials = {len(jobs)} simulations{faulted} "
        f"-> {store.root}"
    )
    backend = SweepBackend(args.jobs, policy=_policy_from_args(args))
    return _execute_and_collect(store, jobs, backend, quiet=args.quiet)


def _cmd_resume(args: argparse.Namespace) -> int:
    store = ResultsStore(args.out)
    try:
        meta = store.require_meta()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = store.planned_jobs()
    print(
        f"Resuming sweep '{meta['scale']}' from {store.root}: "
        f"{len(jobs) - len(store.missing(jobs))}/{len(jobs)} cells already done."
    )
    backend = SweepBackend(args.jobs, policy=_policy_from_args(args))
    return _execute_and_collect(store, jobs, backend, quiet=args.quiet)


def _cmd_worker(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)
    meta = store.read_meta()
    if args.scale is None and (
        args.protocols or args.trials is not None or args.faults is not None
    ):
        # Without --scale the sweep comes verbatim from the store's
        # metadata; silently ignoring these would look like sharding and
        # quietly run the full job list instead.
        print(
            "error: --protocols/--trials/--faults only apply when "
            "initialising a store with --scale; a joined worker runs the "
            "sweep recorded in the store",
            file=sys.stderr,
        )
        return 2
    if meta is None and args.scale is None:
        print(
            f"error: {store.root} holds no sweep yet; pass --scale to "
            "initialise it (racing workers may — identical parameters "
            "write identical metadata)",
            file=sys.stderr,
        )
        return 2
    # Validate the backend options before any store write: a usage error
    # (exit 2) must not leave behind a freshly-stamped store directory.
    try:
        backend = DistributedBackend(
            args.worker_id or default_worker_id(),
            lease_ttl=args.lease_ttl,
            poll_interval=args.poll_interval,
            jobs=args.jobs,
            policy=_policy_from_args(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worker_id = backend.worker_id
    if args.scale is not None:
        scale = _apply_faults(
            resolve_scale(args.scale, trials=args.trials), args.faults
        )
        protocols: Sequence[str] = tuple(args.protocols or PAPER_PROTOCOLS)
        code = _ensure_meta_or_exit(store, scale, protocols)
        if code is not None:
            return code
        meta = store.require_meta()
    jobs = store.planned_jobs()
    print(
        f"Worker {worker_id} joining sweep '{meta['scale']}' at {store.root}: "
        f"{len(jobs) - len(store.missing(jobs))}/{len(jobs)} cells already done "
        f"(lease ttl {args.lease_ttl:g}s)."
    )
    code = _execute_and_collect(store, jobs, backend, quiet=args.quiet)
    ran = len(backend.ran_keys)
    print(
        f"Worker {worker_id} ran {ran} of {len(jobs)} cells itself "
        f"({len(jobs) - ran} cached or completed by other workers)."
    )
    return code


def _cmd_status(args: argparse.Namespace) -> int:
    store = ResultsStore(args.out)
    try:
        status = store_status(store, lease_ttl=args.lease_ttl)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    done, planned = status["completed_cells"], status["planned_cells"]
    state = "complete" if done == planned else "incomplete"
    print(
        f"Sweep '{status['scale']}' at {status['root']}: "
        f"{done}/{planned} cells ({state})."
    )
    if status["torn_cells"]:
        print(f"  torn cells (treated as missing): {len(status['torn_cells'])}")
        for key in status["torn_cells"]:
            print(f"    {key}")
    if status["failed_cells"]:
        print(f"  quarantined cells: {len(status['failed_cells'])}")
        for failure in status["failed_cells"]:
            who = f" on {failure['worker']}" if failure["worker"] else ""
            print(
                f"    {failure['label'] or failure['key']}: {failure['error']} "
                f"after {failure['attempts']} attempt(s){who} — "
                f"{failure['message']}"
            )
    for record in status["workers"]:
        print(f"  worker {record['worker']}: {record['completed']} cells completed")
    live = [c for c in status["claims"] if not c["stale"] and not c["orphaned"]]
    stale = [c for c in status["claims"] if c["stale"] or c["orphaned"]]
    for claim in live:
        age = "age ?" if claim["age"] is None else f"age {claim['age']:.0f}s"
        print(
            f"  claimed: {claim['label'] or claim['key']} "
            f"by {claim['worker']} ({age})"
        )
    for claim in stale:
        kind = "orphaned" if claim["orphaned"] else "stale"
        print(
            f"  {kind} lease: {claim['label'] or claim['key']} "
            f"held by {claim['worker']} (reclaimable)"
        )
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(status, indent=1, sort_keys=True), encoding="utf-8"
        )
        print(f"(structured status written to {args.json})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultsStore(args.out)
    try:
        results = store.load_results()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = len(store.planned_jobs())
    done = len(results.summaries)
    if done < total:
        print(
            f"note: store holds {done}/{total} cells; "
            "reporting the completed subset (run `resume` to finish)",
            file=sys.stderr,
        )
    quarantined = store.failure_keys()
    if quarantined:
        print(
            f"note: {len(quarantined)} cell(s) are quarantined with failure "
            "records (see `status`; `resume` retries them)",
            file=sys.stderr,
        )
    wanted = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in wanted:
        print("=" * 72)
        if experiment_id == "table1":
            print(table1_text(results))
        else:
            print(figure_text(experiment_id, results))
        print()
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    invariants = gate_registry(args.registry)
    if args.list:
        for invariant in invariants:
            print(f"{invariant.name:<36} [{invariant.figure}] {invariant.claim}")
        return 0
    if args.out is None:
        print("error: gate needs --out DIR (or --list)", file=sys.stderr)
        return 2
    store = ResultsStore(args.out)
    try:
        meta = store.require_meta()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.scale is not None and meta["scale"] != args.scale:
        print(
            f"error: {store.root} holds a {meta['scale']!r} sweep, "
            f"not {args.scale!r}; gate would assert over the wrong science",
            file=sys.stderr,
        )
        return 2
    if args.registry == "live":
        # A live store holds exactly the protocols that were soaked; assert
        # over those instead of every soak-capable protocol, so a two-
        # protocol store is judged complete rather than inconclusive.
        invariants = live_invariants(meta["protocols"])
    stores = [store] + [ResultsStore(path) for path in (args.union or ())]
    try:
        results = union_results(stores)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = evaluate_gate(
        results,
        invariants,
        scale=meta["scale"],
        store="+".join(s.root.as_posix() for s in stores),
    )
    print(report.to_text(verbose=args.verbose))
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=1), encoding="utf-8"
        )
        print(f"(structured report written to {args.json})")
    return report.exit_code(strict=args.strict)


def _cmd_live(args: argparse.Namespace) -> int:
    protocols: Sequence[str] = tuple(args.protocols or ("LSR", "AODV"))
    unknown = [name for name in protocols if name not in LIVE_PROTOCOLS]
    if unknown:
        print(
            f"error: cannot soak {', '.join(unknown)}; live-capable protocols "
            f"are {', '.join(LIVE_PROTOCOLS)} (Oracle needs the simulator's "
            "global topology)",
            file=sys.stderr,
        )
        return 2
    scale_name = f"live-{args.transport}"
    print(
        f"Live soak '{scale_name}': {args.routers} routers ({args.topology} "
        f"topology), {len(protocols)} protocol daemons x {args.duration:g} "
        f"protocol seconds at time scale {args.time_scale:g} "
        f"({args.flows} CBR flows @ {args.rate:g} pkt/s)"
    )
    reports = {}
    for name in protocols:
        try:
            config = LiveRunConfig(
                protocol=name,
                transport=args.transport,
                routers=args.routers,
                topology=args.topology,
                duration=args.duration,
                warmup=args.warmup,
                time_scale=args.time_scale,
                flows=args.flows,
                rate=args.rate,
                seed=args.seed,
                max_ttl=args.max_ttl,
                dedup_window=args.dedup_window,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = run_soak(config)
        reports[name] = report
        s, c = report.summary, report.counters
        print(
            f"  {name:<6} delivery {s.delivery_ratio:.3f} "
            f"({s.data_delivered}/{s.data_sent}), "
            f"latency {s.mean_latency * 1000.0:.1f} ms, "
            f"load {s.network_load:.2f}, "
            f"dedup drops {c.dedup_drops}, ttl drops {c.ttl_drops}, "
            f"violations {report.violations}",
            flush=True,
        )
    # The store speaks (scenario, protocol, pause, trial); a live soak maps
    # onto it as a single-trial sweep at pause 0 with a synthetic scenario
    # carrying the soak's identity (routers, duration, workload, seed).
    scenario = Scenario(
        node_count=args.routers,
        duration=args.duration,
        pause_time=0.0,
        flow_count=args.flows,
        packets_per_second=args.rate,
        seed=args.seed,
    )
    jobs = plan_sweep(scenario, protocols, pause_times=[0.0], trials=1)
    outcomes = {job: reports[job.protocol].summary for job in jobs}
    results = collect_sweep(
        outcomes, pause_times=[0.0], trials=1, protocols=protocols
    )
    if args.out is not None:
        store = ResultsStore(args.out)
        try:
            store.ensure_meta(
                scale=scale_name,
                scenario=scenario,
                protocols=protocols,
                pause_times=[0.0],
                trials=1,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        for job in jobs:
            store.put(job, outcomes[job])
        store.write_results(results)
        print(f"({len(jobs)} live cells stored in {store.root})")
    gate_report = evaluate_gate(
        results,
        live_invariants(protocols, delivery_floor=args.delivery_floor),
        scale=scale_name,
        store=str(args.out) if args.out is not None else "(in-memory)",
    )
    print(gate_report.to_text())
    # The flood-control violation counters are runtime state, not summary
    # metrics, so the gate cannot see them; assert them here.
    violations = sum(report.violations for report in reports.values())
    if violations:
        print(
            f"error: {violations} flood-control violation(s) — a duplicate "
            "outlived the dedup window or a router forwarded past the TTL "
            "budget (per-protocol counts above)",
            file=sys.stderr,
        )
    if args.json is not None:
        document = {
            "version": 1,
            "transport": args.transport,
            "reports": {
                name: report.to_dict() for name, report in reports.items()
            },
            "gate": gate_report.to_dict(),
        }
        Path(args.json).write_text(
            json.dumps(document, indent=1), encoding="utf-8"
        )
        print(f"(structured soak report written to {args.json})")
    return 1 if violations else gate_report.exit_code(strict=args.strict)


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profile import profile_trial

    scale = resolve_scale(args.scale)
    pause = args.pause if args.pause is not None else scale.pause_times[0]
    scenario = scale.scenario.with_pause_time(pause)
    if args.faults is not None:
        scenario = scenario.with_faults(fault_preset(args.faults, scenario))
    protocols = args.protocol or ["OLSR"]
    profiles = []
    for protocol in protocols:
        profile = profile_trial(
            scenario,
            protocol,
            scale_name=scale.name,
            faults=args.faults,
            track_allocations=args.alloc,
        )
        profiles.append(profile)
        print(profile.to_text())
        print()
    if args.json is not None:
        document = {
            "version": 1,
            "profiles": [profile.to_dict() for profile in profiles],
        }
        Path(args.json).write_text(
            json.dumps(document, indent=1), encoding="utf-8"
        )
        print(f"(structured profile written to {args.json})")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    destination = ResultsStore(args.out)
    sources = [ResultsStore(path) for path in args.stores]
    try:
        report = merge_stores(destination, sources)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for source, copied in report.copied.items():
        print(f"  {source}: {copied} cells copied")
    state = "complete" if report.complete else "still incomplete"
    print(
        f"Merged {len(sources)} store{'s' if len(sources) != 1 else ''} into "
        f"{report.destination}: {report.completed_cells}/{report.planned_cells} "
        f"cells ({state})."
    )
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    stores = [ResultsStore(path) for path in args.stores]
    wanted = None if args.experiment == "all" else [args.experiment]
    try:
        trajectories = metric_trajectories(stores, wanted)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(trajectories_to_text(trajectories))
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(trajectories_to_dict(trajectories), indent=1),
            encoding="utf-8",
        )
        print(f"(structured trajectories written to {args.json})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_arg(p: argparse.ArgumentParser, required: bool = False) -> None:
        p.add_argument(
            "--out",
            required=required,
            default=None,
            help="results-store directory (default: sweep-<scale>)",
        )

    def add_exec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=_count,
            default=1,
            metavar="N",
            help="worker processes (1 = serial in-process; default: 1)",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress per-cell progress lines"
        )

    def add_policy_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trial-timeout",
            type=_interval,
            default=None,
            metavar="S",
            help="wall-clock watchdog per trial: a cell exceeding it counts "
            "as hung and is retried/quarantined (default: no watchdog)",
        )
        p.add_argument(
            "--retries",
            type=_retries,
            default=1,
            metavar="N",
            help="re-attempts per failing trial before it is quarantined "
            "(default: 1)",
        )
        p.add_argument(
            "--retry-backoff",
            type=_seconds,
            default=0.5,
            metavar="S",
            help="base delay before retry k is backoff * 2**(k-1) seconds "
            "(default: 0.5)",
        )

    def add_faults_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--faults",
            choices=tuple(FAULT_PRESETS),
            default=None,
            metavar="PRESET",
            help="inject this deterministic fault schedule into every cell "
            f"(choices: {', '.join(FAULT_PRESETS)}; the schedule is part "
            "of each cell's content key, so a faulted sweep never mixes "
            "with a clean store)",
        )

    run = sub.add_parser("run", help="plan and run a sweep (reusing stored cells)")
    run.add_argument(
        "--scale",
        choices=tuple(SCALE_NAMES),
        default="smoke",
        help="how large a sweep to run (default: smoke)",
    )
    run.add_argument(
        "--trials", type=_count, default=None, help="override trials per pause time"
    )
    run.add_argument(
        "--protocols",
        nargs="+",
        choices=tuple(PROTOCOLS),
        metavar="PROTO",
        default=None,
        help=f"protocol subset (default: {' '.join(PAPER_PROTOCOLS)})",
    )
    add_store_arg(run)
    add_exec_args(run)
    add_policy_args(run)
    add_faults_arg(run)
    run.set_defaults(func=_cmd_run)

    resume = sub.add_parser(
        "resume", help="continue an interrupted sweep from its store directory"
    )
    add_store_arg(resume, required=True)
    add_exec_args(resume)
    add_policy_args(resume)
    resume.set_defaults(func=_cmd_resume)

    worker = sub.add_parser(
        "worker",
        help="work-steal cells from a shared store alongside other workers "
        "(the distributed backend)",
    )
    worker.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="shared results-store directory (all workers point at the same one)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        metavar="W",
        help="this worker's identity in leases and status "
        "(default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=_interval,
        default=DEFAULT_LEASE_TTL,
        metavar="S",
        help="seconds without a heartbeat before a lease counts as abandoned "
        f"and its cell is stolen (default: {DEFAULT_LEASE_TTL:g})",
    )
    worker.add_argument(
        "--poll-interval",
        type=_interval,
        default=1.0,
        metavar="S",
        help="seconds between store rescans when every remaining cell is "
        "leased out (default: 1)",
    )
    worker.add_argument(
        "--jobs",
        type=_count,
        default=1,
        metavar="N",
        help="local worker processes: claimed cells are fanned over a "
        "process pool so one host contributes N cores with a single "
        "lease-polling worker (default: 1, serial)",
    )
    worker.add_argument(
        "--scale",
        choices=tuple(SCALE_NAMES),
        default=None,
        help="initialise a fresh store with this sweep (racing identical "
        "workers are safe); omit to join an existing store",
    )
    worker.add_argument(
        "--trials", type=_count, default=None, help="override trials per pause time"
    )
    worker.add_argument(
        "--protocols",
        nargs="+",
        choices=tuple(PROTOCOLS),
        metavar="PROTO",
        default=None,
        help=f"protocol subset (default: {' '.join(PAPER_PROTOCOLS)})",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    add_policy_args(worker)
    add_faults_arg(worker)
    worker.set_defaults(func=_cmd_worker)

    status = sub.add_parser(
        "status",
        help="progress of a (possibly shared) store: cells, leases, workers",
    )
    add_store_arg(status, required=True)
    status.add_argument(
        "--lease-ttl",
        type=_interval,
        default=DEFAULT_LEASE_TTL,
        metavar="S",
        help="staleness threshold used to classify leases "
        f"(default: {DEFAULT_LEASE_TTL:g})",
    )
    status.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured status to PATH",
    )
    status.set_defaults(func=_cmd_status)

    report = sub.add_parser(
        "report", help="render Table I / Figures 3-7 from the store, no simulation"
    )
    add_store_arg(report, required=True)
    report.add_argument(
        "--experiment",
        choices=("all",) + tuple(EXPERIMENTS),
        default="all",
        help="regenerate one table/figure only (default: all)",
    )
    report.set_defaults(func=_cmd_report)

    gate = sub.add_parser(
        "gate",
        help="assert the paper-derived invariants over a store "
        "(nonzero exit on violation)",
    )
    add_store_arg(gate)
    gate.add_argument(
        "--scale",
        choices=tuple(SCALE_NAMES),
        default=None,
        help="require the store to hold a sweep of this scale",
    )
    gate.add_argument(
        "--union",
        nargs="+",
        metavar="STORE",
        default=None,
        help="additional stores of the same sweep to union with --out before "
        "asserting (per-worker stores of one distributed sweep; no merged "
        "directory is written)",
    )
    gate.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured per-invariant report to PATH",
    )
    gate.add_argument(
        "--strict",
        action="store_true",
        help="also fail on inconclusive invariants (partial stores, "
        "overlapping intervals)",
    )
    gate.add_argument(
        "--verbose",
        action="store_true",
        help="print per-pause details for passing invariants too",
    )
    gate.add_argument(
        "--registry",
        choices=tuple(GATE_REGISTRIES),
        default="paper",
        help="invariant registry to assert: 'paper' for the clean-sweep "
        "claims, 'faults' for the chaos-layer resilience claims "
        "(default: paper)",
    )
    gate.add_argument(
        "--list",
        action="store_true",
        help="list the registered invariants with their paper citations "
        "and exit (no store needed)",
    )
    gate.set_defaults(func=_cmd_gate)

    live = sub.add_parser(
        "live",
        help="soak routing protocols as live asyncio router daemons "
        "(loopback or UDP) and assert the live gate",
    )
    live.add_argument(
        "--transport",
        choices=LIVE_TRANSPORTS,
        default="loopback",
        help="'loopback': every router on one event loop (deterministic); "
        "'udp': one OS process per router exchanging real datagrams "
        "(default: loopback)",
    )
    live.add_argument(
        "--protocols",
        nargs="+",
        choices=tuple(PROTOCOLS),
        metavar="PROTO",
        default=None,
        help="protocols to soak, one daemon fleet each (default: LSR AODV)",
    )
    live.add_argument(
        "--routers",
        type=int,
        default=5,
        metavar="N",
        help="router daemons per fleet (default: 5)",
    )
    live.add_argument(
        "--topology",
        choices=LIVE_TOPOLOGIES,
        default="line",
        help="static placement; adjacency is radio range over it "
        "(default: line)",
    )
    live.add_argument(
        "--duration",
        type=float,
        default=40.0,
        metavar="S",
        help="soak length in protocol seconds (default: 40)",
    )
    live.add_argument(
        "--warmup",
        type=float,
        default=12.0,
        metavar="S",
        help="protocol seconds before CBR traffic starts (default: 12)",
    )
    live.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="wall seconds per protocol second; 0.05 runs a 40 s soak in "
        "2 s of wall time (default: 1.0, real time)",
    )
    live.add_argument(
        "--flows",
        type=int,
        default=3,
        metavar="N",
        help="concurrent CBR flows (default: 3)",
    )
    live.add_argument(
        "--rate",
        type=float,
        default=4.0,
        metavar="P",
        help="packets per second per flow (default: 4)",
    )
    live.add_argument(
        "--seed",
        type=int,
        default=1,
        help="run seed: topology, flow plan and protocol RNG streams "
        "(default: 1)",
    )
    live.add_argument(
        "--max-ttl",
        type=int,
        default=16,
        metavar="N",
        help="hop budget enforced by the runtime (default: 16)",
    )
    live.add_argument(
        "--dedup-window",
        type=float,
        default=30.0,
        metavar="S",
        help="broadcast message-id dedup window in protocol seconds "
        "(default: 30)",
    )
    live.add_argument(
        "--delivery-floor",
        type=float,
        default=0.75,
        metavar="R",
        help="minimum delivery ratio the live gate demands of every "
        "protocol (default: 0.75)",
    )
    add_store_arg(live)
    live.add_argument(
        "--strict",
        action="store_true",
        help="also fail on inconclusive gate invariants",
    )
    live.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured soak + gate report to PATH",
    )
    live.set_defaults(func=_cmd_live)

    profile = sub.add_parser(
        "profile",
        help="run one instrumented trial and print its per-layer "
        "CPU/allocation breakdown",
    )
    profile.add_argument(
        "--scale",
        choices=tuple(SCALE_NAMES),
        default="smoke",
        help="scenario size to profile (default: smoke)",
    )
    profile.add_argument(
        "--protocol",
        nargs="+",
        choices=tuple(PROTOCOLS),
        metavar="PROTO",
        default=None,
        help="protocol(s) to profile (default: OLSR, the costliest trial)",
    )
    profile.add_argument(
        "--pause",
        type=_seconds,
        default=None,
        metavar="S",
        help="mobility pause time (default: the scale's first pause time)",
    )
    profile.add_argument(
        "--faults",
        choices=tuple(FAULT_PRESETS),
        default=None,
        metavar="PRESET",
        help="profile a faulted trial: install this fault preset "
        f"(choices: {', '.join(FAULT_PRESETS)})",
    )
    profile.add_argument(
        "--alloc",
        action="store_true",
        help="also sample allocations per layer via tracemalloc (slower)",
    )
    profile.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured breakdown to PATH",
    )
    profile.set_defaults(func=_cmd_profile)

    merge = sub.add_parser(
        "merge",
        help="union stores of the same sweep into one compacted store",
    )
    merge.add_argument(
        "--out", required=True, help="destination store (created if missing)"
    )
    merge.add_argument(
        "stores", nargs="+", metavar="STORE", help="source store directories"
    )
    merge.set_defaults(func=_cmd_merge)

    trajectory = sub.add_parser(
        "trajectory",
        help="per-figure metric trajectories across several stores "
        "(oldest first)",
    )
    trajectory.add_argument(
        "stores", nargs="+", metavar="STORE", help="store directories, oldest first"
    )
    trajectory.add_argument(
        "--experiment",
        choices=("all",) + tuple(EXPERIMENTS),
        default="all",
        help="restrict to one table/figure (default: all)",
    )
    trajectory.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured trajectories to PATH",
    )
    trajectory.set_defaults(func=_cmd_trajectory)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None) is None and args.command == "run":
        args.out = f"sweep-{args.scale}"
    try:
        return args.func(args)
    except (StoreVersionError, ScenarioFieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli() -> None:
    """Console-script entry point (``repro-experiments`` in pyproject.toml)."""
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into e.g. `head`; completed cells are already on disk.
        sys.exit(0)
    except KeyboardInterrupt:
        print("\ninterrupted; completed cells are on disk — continue with "
              "`repro-experiments resume --out DIR`", file=sys.stderr)
        sys.exit(130)


if __name__ == "__main__":
    cli()
