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
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from ..protocols import PROTOCOLS
from ..runtime.base import TOPOLOGIES as LIVE_TOPOLOGIES
from ..runtime.base import TRANSPORTS as LIVE_TRANSPORTS
from ..sim.faults import FAULT_PRESETS, fault_preset
from ..workloads.scenario import Scenario, ScenarioFieldError
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
    EvaluationScale,
    figure_text,
    resolve_scale,
    table1_text,
)
from .runner import collect_sweep
from .store import (
    DEFAULT_LEASE_TTL,
    ResultsStore,
    StoreMissingError,
    StoreVersionError,
)

__all__ = ["cli", "main"]


class _Refusal(Exception):
    """A command refuses to go on: :func:`main` prints ``error: <message>``
    and exits with ``code`` (2, a usage error, unless stated)."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "eta --"
    if seconds >= 3600:
        return f"eta {seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"eta {seconds / 60:.1f}m"
    return f"eta {seconds:.0f}s"


def _print_progress(event) -> None:
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
    convert: Callable[[str], float],
    floor: float,
    *,
    inclusive: bool = True,
    ceiling: float = math.inf,
) -> Callable[[str], float]:
    """An argparse type: ``convert(text)``, refused unless finite, at least
    ``floor`` (above it unless ``inclusive``) and at most ``ceiling``, so a
    bad number is a usage error before anything is written."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not (value >= floor if inclusive else value > floor):
            bound = ">=" if inclusive else ">"
            raise argparse.ArgumentTypeError(f"must be {bound} {floor:g}, got {text}")
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"must be <= {ceiling:g}, got {text}")
        return value

    return parse


_count = _bounded(int, 1)  #: --jobs, --trials, --max-ttl, --flows
_routers = _bounded(int, 2)
_retries = _bounded(int, 0)
_seconds = _bounded(float, 0.0)  #: a pause time, a retry backoff, a warmup
_interval = _bounded(float, 0.0, inclusive=False)  #: timeouts, TTLs, rates
_ratio = _bounded(float, 0.0, ceiling=1.0)  #: --delivery-floor


def _write_json(path: Optional[str], document: Any, what: str, **dump) -> None:
    """``--json PATH``: write the structured ``what`` there and say so."""
    if path is not None:
        Path(path).write_text(json.dumps(document, indent=1, **dump), encoding="utf-8")
        print(f"(structured {what} written to {path})")


def _fault_policy(args: argparse.Namespace):
    from .executor import FaultPolicy

    return FaultPolicy(
        timeout=args.trial_timeout, retries=args.retries, backoff=args.retry_backoff
    )


def _stamp_store(
    store: ResultsStore, scale: EvaluationScale, protocols: Sequence[str]
) -> None:
    """Stamp (or validate) the store's sweep identity, refusing with exit 3.

    Every store writer (``run``, ``worker``, ``live``) goes through here so
    the exit-code contract stays single-sourced: 3 — distinct from
    argparse's usage-error 2 — means "store holds a different sweep", which
    the CI nightly keys its wipe-and-retry fallback on and which must not
    trigger on a usage error.
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
        raise _Refusal(str(exc), code=3) from None


def _open_sweep(store: ResultsStore, args: argparse.Namespace):
    """The sweep ``--scale``/``--trials``/``--faults``/``--protocols`` ask
    for, stamped into ``store``: ``(scale, protocols)``.

    The fault schedule becomes part of every job's scenario — and thus of
    every content key — so a faulted sweep is a *different* sweep: it never
    collides with (or silently adopts cells from) a clean store.
    """
    scale = resolve_scale(args.scale, trials=args.trials)
    if args.faults is not None:
        scenario = scale.scenario.with_faults(fault_preset(args.faults, scale.scenario))
        scale = dataclasses.replace(scale, scenario=scenario)
    protocols = tuple(args.protocols or PAPER_PROTOCOLS)
    _stamp_store(store, scale, protocols)
    return scale, protocols


def _write_results(store: ResultsStore, outcomes):
    """Assemble ``outcomes`` in the store's sweep shape and write
    ``results.json`` (atomic; concurrent workers that both observe
    completion write the same bytes); the assembled results."""
    meta = store.require_meta()
    results = collect_sweep(
        outcomes,
        pause_times=meta["pause_times"],
        trials=meta["trials"],
        protocols=meta["protocols"],
    )
    store.write_results(results)
    return results


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


def _run_sweep(
    store: ResultsStore,
    jobs: Sequence[TrialJob],
    args: argparse.Namespace,
    backend=None,
) -> int:
    """Run the store's pending cells (over ``--jobs`` local processes unless
    a ``backend`` is given), write ``results.json`` and report quarantined
    cells; the CLI exit code."""
    from .executor import SweepBackend, execute_jobs

    if backend is None:
        backend = SweepBackend(args.jobs, policy=_fault_policy(args))
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
        progress=None if args.quiet else _print_progress,
    )
    elapsed = time.monotonic() - started
    _write_results(store, outcomes)
    print(
        f"Sweep complete in {elapsed:.1f} s: {len(outcomes)} cells in "
        f"{store.root} (results.json written)."
    )
    return _report_quarantined(store, jobs)


def _cmd_run(args: argparse.Namespace) -> int:
    store = ResultsStore(f"sweep-{args.scale}" if args.out is None else args.out)
    scale, protocols = _open_sweep(store, args)
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
    return _run_sweep(store, jobs, args)


def _cmd_resume(args: argparse.Namespace) -> int:
    store = ResultsStore(args.out)
    meta = store.require_meta()
    jobs = store.planned_jobs()
    print(
        f"Resuming sweep '{meta['scale']}' from {store.root}: "
        f"{len(jobs) - len(store.missing(jobs))}/{len(jobs)} cells already done."
    )
    return _run_sweep(store, jobs, args)


def _cmd_worker(args: argparse.Namespace) -> int:
    from .distributed import DistributedBackend, default_worker_id

    store = ResultsStore(args.store)
    meta = store.read_meta()
    if args.scale is None and (
        args.protocols or args.trials is not None or args.faults is not None
    ):
        # Without --scale the sweep comes verbatim from the store's
        # metadata; silently ignoring these would look like sharding and
        # quietly run the full job list instead.
        raise _Refusal(
            "--protocols/--trials/--faults only apply when initialising a "
            "store with --scale; a joined worker runs the sweep recorded in "
            "the store"
        )
    if meta is None and args.scale is None:
        raise _Refusal(
            f"{store.root} holds no sweep yet; pass --scale to initialise it "
            "(racing workers may — identical parameters write identical "
            "metadata)"
        )
    # Validate the backend options before any store write: a usage error
    # (exit 2) must not leave behind a freshly-stamped store directory.
    try:
        backend = DistributedBackend(
            args.worker_id or default_worker_id(),
            lease_ttl=args.lease_ttl,
            poll_interval=args.poll_interval,
            jobs=args.jobs,
            policy=_fault_policy(args),
        )
    except ValueError as exc:
        raise _Refusal(str(exc)) from None
    worker_id = backend.worker_id
    if args.scale is not None:
        _open_sweep(store, args)
        meta = store.require_meta()
    jobs = store.planned_jobs()
    print(
        f"Worker {worker_id} joining sweep '{meta['scale']}' at {store.root}: "
        f"{len(jobs) - len(store.missing(jobs))}/{len(jobs)} cells already done "
        f"(lease ttl {args.lease_ttl:g}s)."
    )
    code = _run_sweep(store, jobs, args, backend)
    # ``ran_keys`` holds completed cells only; the cells this worker ran and
    # quarantined are the failure records stamped with its id.
    planned = {job.content_key for job in jobs}
    quarantined = sum(
        1
        for key, record in store.failure_records().items()
        if key in planned and record.worker == worker_id
    )
    ran = len(backend.ran_keys) + quarantined
    print(
        f"Worker {worker_id} ran {ran} of {len(jobs)} cells itself, "
        f"{quarantined} of them quarantined "
        f"({len(jobs) - ran} cached or completed by other workers)."
    )
    return code


def _cmd_status(args: argparse.Namespace) -> int:
    from .distributed import store_status

    status = store_status(ResultsStore(args.out), lease_ttl=args.lease_ttl)
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
    _write_json(args.json, status, "status", sort_keys=True)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultsStore(args.out)
    results = store.load_results()
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
    from .trajectory import union_results

    invariants = gate_registry(args.registry)
    if args.list:
        for invariant in invariants:
            print(f"{invariant.name:<36} [{invariant.figure}] {invariant.claim}")
        return 0
    if args.out is None:
        raise _Refusal("gate needs --out DIR (or --list)")
    store = ResultsStore(args.out)
    meta = store.require_meta()
    if args.scale is not None and meta["scale"] != args.scale:
        raise _Refusal(
            f"{store.root} holds a {meta['scale']!r} sweep, not {args.scale!r}; "
            "gate would assert over the wrong science"
        )
    if args.registry == "live":
        # A live store holds exactly the protocols that were soaked; assert
        # over those instead of every soak-capable protocol, so a two-
        # protocol store is judged complete rather than inconclusive.
        invariants = live_invariants(meta["protocols"])
    stores = [store] + [ResultsStore(path) for path in (args.union or ())]
    try:
        results = union_results(stores)
    except (FileNotFoundError, ValueError) as exc:
        raise _Refusal(str(exc)) from None
    report = evaluate_gate(
        results,
        invariants,
        scale=meta["scale"],
        store="+".join(s.root.as_posix() for s in stores),
    )
    print(report.to_text(verbose=args.verbose))
    _write_json(args.json, report.to_dict(), "report")
    return report.exit_code(strict=args.strict)


def _cmd_live(args: argparse.Namespace) -> int:
    from ..runtime.live import LiveRunConfig, run_soak

    protocols = tuple(args.protocols or ("LSR", "AODV"))
    # The store speaks (scenario, protocol, pause, trial); a live soak maps
    # onto it as a single-trial sweep at pause 0 with a synthetic scenario
    # carrying the soak's identity (routers, duration, workload, seed).
    scale = EvaluationScale(
        f"live-{args.transport}",
        Scenario(
            node_count=args.routers,
            duration=args.duration,
            pause_time=0.0,
            flow_count=args.flows,
            packets_per_second=args.rate,
            seed=args.seed,
        ),
        pause_times=(0.0,),
        trials=1,
    )
    print(
        f"Live soak '{scale.name}': {args.routers} routers ({args.topology} "
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
            raise _Refusal(str(exc)) from None
        report = reports[name] = run_soak(config)
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
    jobs = plan_sweep(
        scale.scenario, protocols, pause_times=scale.pause_times, trials=1
    )
    outcomes = {job: reports[job.protocol].summary for job in jobs}
    if args.out is None:
        results = collect_sweep(
            outcomes, pause_times=scale.pause_times, trials=1, protocols=protocols
        )
    else:
        store = ResultsStore(args.out)
        _stamp_store(store, scale, protocols)
        for job in jobs:
            store.put(job, outcomes[job])
        results = _write_results(store, outcomes)
        print(f"({len(jobs)} live cells stored in {store.root})")
    gate_report = evaluate_gate(
        results,
        live_invariants(protocols, delivery_floor=args.delivery_floor),
        scale=scale.name,
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
    document = {
        "version": 1,
        "transport": args.transport,
        "reports": {name: report.to_dict() for name, report in reports.items()},
        "gate": gate_report.to_dict(),
    }
    _write_json(args.json, document, "soak report")
    return 1 if violations else gate_report.exit_code(strict=args.strict)


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profile import profile_trial

    scale = resolve_scale(args.scale)
    pause = args.pause if args.pause is not None else scale.pause_times[0]
    scenario = scale.scenario.with_pause_time(pause)
    if args.faults is not None:
        scenario = scenario.with_faults(fault_preset(args.faults, scenario))
    profiles = []
    for protocol in args.protocol or ["OLSR"]:
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
    document = {"version": 1, "profiles": [p.to_dict() for p in profiles]}
    _write_json(args.json, document, "profile")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .trajectory import merge_stores

    sources = [ResultsStore(path) for path in args.stores]
    try:
        report = merge_stores(ResultsStore(args.out), sources)
    except (FileNotFoundError, ValueError) as exc:
        raise _Refusal(str(exc)) from None
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
    from .trajectory import (
        metric_trajectories,
        trajectories_to_dict,
        trajectories_to_text,
    )

    wanted = None if args.experiment == "all" else [args.experiment]
    trajectories = metric_trajectories(
        [ResultsStore(path) for path in args.stores], wanted
    )
    print(trajectories_to_text(trajectories))
    _write_json(args.json, trajectories_to_dict(trajectories), "trajectories")
    return 0


#: Options several subcommands share, each declared once: flag ->
#: ``add_argument`` keywords (a subcommand may override its help/default).
_SHARED = {
    "--scale": dict(choices=tuple(SCALE_NAMES)),
    "--trials": dict(type=_count, default=None, help="override trials per pause time"),
    "--protocols": dict(
        nargs="+",
        choices=tuple(PROTOCOLS),
        metavar="PROTO",
        default=None,
        help=f"protocol subset (default: {' '.join(PAPER_PROTOCOLS)})",
    ),
    "--faults": dict(
        choices=tuple(FAULT_PRESETS),
        default=None,
        metavar="PRESET",
        help="inject this deterministic fault schedule into every cell "
        f"(choices: {', '.join(FAULT_PRESETS)}; the schedule is part of each "
        "cell's content key, so a faulted sweep never mixes with a clean store)",
    ),
    "--out": dict(
        default=None, help="results-store directory (default: sweep-<scale>)"
    ),
    "--jobs": dict(
        type=_count,
        default=1,
        metavar="N",
        help="worker processes on this host (1 = serial in-process; default: 1)",
    ),
    "--quiet": dict(action="store_true", help="suppress per-cell progress lines"),
    "--trial-timeout": dict(
        type=_interval,
        default=None,
        metavar="S",
        help="wall-clock watchdog per trial: a cell exceeding it counts as "
        "hung and is retried/quarantined (default: no watchdog)",
    ),
    "--retries": dict(
        type=_retries,
        default=1,
        metavar="N",
        help="re-attempts per failing trial before it is quarantined (default: 1)",
    ),
    "--retry-backoff": dict(
        type=_seconds,
        default=0.5,
        metavar="S",
        help="base delay before retry k is backoff * 2**(k-1) seconds "
        "(default: 0.5)",
    ),
    "--lease-ttl": dict(type=_interval, default=DEFAULT_LEASE_TTL, metavar="S"),
    "--experiment": dict(choices=("all",) + tuple(EXPERIMENTS), default="all"),
    "--strict": dict(action="store_true"),
    "--json": dict(metavar="PATH", default=None),
}

#: ``run``/``resume``/``worker``: how this host executes its cells.
_EXEC_OPTIONS = ("--jobs", "--quiet", "--trial-timeout", "--retries", "--retry-backoff")


def _add(
    parser: argparse.ArgumentParser, *flags: str, like: str = "", **overrides
) -> None:
    """Add the shared options ``flags`` (declared as ``like``, when given),
    each with ``overrides`` applied."""
    for flag in flags:
        parser.add_argument(flag, **{**_SHARED[like or flag], **overrides})


def _add_sweep_shape(parser: argparse.ArgumentParser, **scale) -> None:
    """``run``/``worker``: the sweep to plan (``scale``: ``--scale`` keywords)
    and how this host executes it."""
    _add(parser, "--scale", **scale)
    _add(parser, "--trials", "--protocols", "--faults")
    _add(parser, *_EXEC_OPTIONS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(func=func)
        return subparser

    run = command("run", _cmd_run, "plan and run a sweep (reusing stored cells)")
    _add_sweep_shape(
        run, default="smoke", help="how large a sweep to run (default: smoke)"
    )
    _add(run, "--out")

    resume = command(
        "resume", _cmd_resume, "continue an interrupted sweep from its store directory"
    )
    _add(resume, "--out", required=True)
    _add(resume, *_EXEC_OPTIONS)

    worker = command(
        "worker",
        _cmd_worker,
        "work-steal cells from a shared store alongside other workers "
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
    _add(
        worker,
        "--lease-ttl",
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
    _add_sweep_shape(
        worker,
        default=None,
        help="initialise a fresh store with this sweep (racing identical "
        "workers are safe); omit to join an existing store",
    )

    status = command(
        "status",
        _cmd_status,
        "progress of a (possibly shared) store: cells, leases, workers",
    )
    _add(status, "--out", required=True)
    _add(
        status,
        "--lease-ttl",
        help="staleness threshold used to classify leases "
        f"(default: {DEFAULT_LEASE_TTL:g})",
    )
    _add(status, "--json", help="also write the structured status to PATH")

    report = command(
        "report",
        _cmd_report,
        "render Table I / Figures 3-7 from the store, no simulation",
    )
    _add(report, "--out", required=True)
    _add(report, "--experiment", help="regenerate one table/figure only (default: all)")

    gate = command(
        "gate",
        _cmd_gate,
        "assert the paper-derived invariants over a store (nonzero exit on "
        "violation)",
    )
    _add(gate, "--out")
    _add(
        gate,
        "--scale",
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
    _add(gate, "--json", help="also write the structured per-invariant report to PATH")
    _add(
        gate,
        "--strict",
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

    live = command(
        "live",
        _cmd_live,
        "soak routing protocols as live asyncio router daemons (loopback or "
        "UDP) and assert the live gate",
    )
    live.add_argument(
        "--transport",
        choices=LIVE_TRANSPORTS,
        default="loopback",
        help="'loopback': every router on one event loop (deterministic); "
        "'udp': one OS process per router exchanging real datagrams "
        "(default: loopback)",
    )
    _add(
        live,
        "--protocols",
        choices=LIVE_PROTOCOLS,
        help="protocols to soak, one daemon fleet each (default: LSR AODV; "
        "Oracle needs the simulator's global topology)",
    )
    live.add_argument(
        "--routers",
        type=_routers,
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
        type=_interval,
        default=40.0,
        metavar="S",
        help="soak length in protocol seconds (default: 40)",
    )
    live.add_argument(
        "--warmup",
        type=_seconds,
        default=12.0,
        metavar="S",
        help="protocol seconds before CBR traffic starts (default: 12)",
    )
    live.add_argument(
        "--time-scale",
        type=_interval,
        default=1.0,
        metavar="X",
        help="wall seconds per protocol second; 0.05 runs a 40 s soak in "
        "2 s of wall time (default: 1.0, real time)",
    )
    live.add_argument(
        "--flows",
        type=_count,
        default=3,
        metavar="N",
        help="concurrent CBR flows (default: 3)",
    )
    live.add_argument(
        "--rate",
        type=_interval,
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
        type=_count,
        default=16,
        metavar="N",
        help="hop budget enforced by the runtime (default: 16)",
    )
    live.add_argument(
        "--dedup-window",
        type=_interval,
        default=30.0,
        metavar="S",
        help="broadcast message-id dedup window in protocol seconds "
        "(default: 30)",
    )
    live.add_argument(
        "--delivery-floor",
        type=_ratio,
        default=0.75,
        metavar="R",
        help="minimum delivery ratio in [0, 1] the live gate demands of every "
        "protocol (default: 0.75)",
    )
    _add(live, "--out")
    _add(live, "--strict", help="also fail on inconclusive gate invariants")
    _add(live, "--json", help="also write the structured soak + gate report to PATH")

    profile = command(
        "profile",
        _cmd_profile,
        "run one instrumented trial and print its per-layer CPU/allocation "
        "breakdown",
    )
    _add(
        profile,
        "--scale",
        default="smoke",
        help="scenario size to profile (default: smoke)",
    )
    _add(
        profile,
        "--protocol",
        like="--protocols",
        help="protocol(s) to profile (default: OLSR, the costliest trial)",
    )
    profile.add_argument(
        "--pause",
        type=_seconds,
        default=None,
        metavar="S",
        help="mobility pause time (default: the scale's first pause time)",
    )
    _add(profile, "--faults")
    profile.add_argument(
        "--alloc",
        action="store_true",
        help="also sample allocations per layer via tracemalloc (slower)",
    )
    _add(profile, "--json", help="also write the structured breakdown to PATH")

    merge = command(
        "merge", _cmd_merge, "union stores of the same sweep into one compacted store"
    )
    _add(merge, "--out", required=True, help="destination store (created if missing)")
    merge.add_argument(
        "stores", nargs="+", metavar="STORE", help="source store directories"
    )

    trajectory = command(
        "trajectory",
        _cmd_trajectory,
        "per-figure metric trajectories across several stores (oldest first)",
    )
    trajectory.add_argument(
        "stores", nargs="+", metavar="STORE", help="store directories, oldest first"
    )
    _add(trajectory, "--experiment", help="restrict to one table/figure (default: all)")
    _add(trajectory, "--json", help="also write the structured trajectories to PATH")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        _Refusal,
        StoreMissingError,
        StoreVersionError,
        ScenarioFieldError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _Refusal) else 2


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
