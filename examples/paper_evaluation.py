#!/usr/bin/env python3
"""Regenerate the paper's evaluation: Table I and Figures 3–7.

This is the driver behind deliverable (d): for every table and figure in the
paper's Section V it runs the protocol x pause-time x trial sweep, aggregates
the metrics with 95% confidence intervals and prints the rows / series the
paper reports.  It rides on the job pipeline in :mod:`repro.experiments`:
``--jobs N`` fans the sweep's independent trial cells over N worker processes,
and ``--out DIR`` persists each completed cell so an interrupted run resumes
instead of restarting (results are bit-identical whatever the backend).

Scales
------
* ``--scale smoke``       a seconds-long sanity run (default for CI)
* ``--scale benchmark``   the laptop-sized sweep EXPERIMENTS.md reports
* ``--scale paper-tier``  the paper's full 5 x 8 shape at nightly-CI cost
* ``--scale paper``       the full 100-node, 8-pause-time, 10-trial setup of
                          Section V (hours of CPU serially; use ``--jobs``)

Examples
--------
    python examples/paper_evaluation.py --scale smoke
    python examples/paper_evaluation.py --scale benchmark --experiment fig7
    python examples/paper_evaluation.py --scale paper --jobs 8 --out sweep-paper

The sweep engine CLI (``python -m repro.experiments``) is the first-class way
to drive long runs — it adds ``resume`` (continue an interrupted sweep from
its store directory) and ``report`` (re-render tables/figures from disk
without simulating)::

    python -m repro.experiments run --scale paper --jobs 8 --out sweep-paper
    python -m repro.experiments resume --out sweep-paper --jobs 8
    python -m repro.experiments report --out sweep-paper

This script is the thin, keep-it-on-one-screen version of the same flow.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.executor import execute_jobs
from repro.experiments.jobs import plan_sweep
from repro.experiments.paper import (
    EXPERIMENTS,
    PAPER_PROTOCOLS,
    SCALE_NAMES,
    figure_text,
    resolve_scale,
    table1_text,
)
from repro.experiments.runner import collect_sweep
from repro.experiments.store import ResultsStore


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=tuple(SCALE_NAMES),
        default="smoke",
        help="how large a sweep to run (default: smoke)",
    )
    parser.add_argument(
        "--experiment",
        choices=("all",) + tuple(EXPERIMENTS),
        default="all",
        help="regenerate one table/figure only (default: all)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the number of trials per data point",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep (default: 1 = serial)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="persist completed cells in DIR so the sweep is resumable",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    scale = resolve_scale(args.scale, trials=args.trials)
    print(
        f"Running the '{scale.name}' sweep: {scale.scenario.node_count} nodes, "
        f"{len(scale.pause_times)} pause times x {scale.trials} trials "
        f"({scale.job_count} simulations, {args.jobs} worker"
        f"{'s' if args.jobs != 1 else ''})..."
    )
    store = None
    if args.out is not None:
        store = ResultsStore(args.out)
        try:
            store.ensure_meta(
                scale=scale.name,
                scenario=scale.scenario,
                protocols=PAPER_PROTOCOLS,
                pause_times=scale.pause_times,
                trials=scale.trials,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    started = time.time()

    def progress(event):
        job = event.job
        state = "cached" if event.cached else f"{event.elapsed:7.1f}s"
        print(
            f"  [{event.completed:>3}/{event.total}] {job.protocol:5s} "
            f"pause={job.pause_time:g}s trial={job.trial} ({state})",
            flush=True,
        )

    shape = dict(pause_times=scale.pause_times, trials=scale.trials)
    jobs = plan_sweep(scale.scenario, PAPER_PROTOCOLS, **shape)
    outcomes = execute_jobs(jobs, workers=args.jobs, store=store, progress=progress)
    results = collect_sweep(outcomes, protocols=PAPER_PROTOCOLS, **shape)
    elapsed = time.time() - started
    print(f"\nSweep finished in {elapsed:.1f} s.\n")
    if store is not None:
        store.write_results(results)

    wanted = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in wanted:
        print("=" * 72)
        if experiment_id == "table1":
            print(table1_text(results))
        else:
            print(figure_text(experiment_id, results))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
