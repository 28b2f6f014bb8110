"""Science-gate smoke: the invariants must hold — and evaluate instantly.

The gate is pure post-processing over a completed sweep, so two things are
worth tracking here: that the registered paper invariants actually hold on the
shared benchmark sweep (a protocol regression fails this benchmark before the
nightly paper-tier gate ever runs), and that evaluating the full registry
costs microseconds relative to the sweep it polices (the gate must stay cheap
enough to run after every sweep unconditionally).

Runable two ways:

* under pytest-benchmark with the rest of the suite (uses the shared
  ``evaluation_results`` fixture, so the sweep cost is paid once), or
* as a plain script — ``python benchmarks/bench_gate.py`` runs a smoke-scale
  sweep, evaluates the gate and exits with the gate's code, which is how CI
  smoke-checks the gate end to end without a stored sweep.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    PAPER_PROTOCOLS,
    EvaluationScale,
    collect_sweep,
    evaluate_gate,
    execute_jobs,
    paper_invariants,
    plan_sweep,
)


def bench_science_gate(benchmark, evaluation_results):
    """Full-registry gate evaluation over the shared sweep; must not fail."""
    report = benchmark(evaluate_gate, evaluation_results)
    benchmark.extra_info["invariants"] = len(report.outcomes)
    benchmark.extra_info["passed"] = len(report.passed)
    assert not report.failed, report.to_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=("smoke", "benchmark"),
        help="sweep scale to gate (default: smoke)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="sweep worker processes"
    )
    args = parser.parse_args(argv)

    scale = getattr(EvaluationScale, args.scale)()
    start = time.perf_counter()
    shape = dict(pause_times=scale.pause_times, trials=scale.trials)
    jobs = plan_sweep(scale.scenario, PAPER_PROTOCOLS, **shape)
    outcomes = execute_jobs(jobs, workers=args.jobs)
    results = collect_sweep(outcomes, protocols=PAPER_PROTOCOLS, **shape)
    sweep_seconds = time.perf_counter() - start
    start = time.perf_counter()
    report = evaluate_gate(results, scale=scale.name)
    gate_seconds = time.perf_counter() - start
    print(report.to_text())
    print(
        f"sweep {sweep_seconds:.1f} s, gate {gate_seconds * 1000:.1f} ms "
        f"({len(paper_invariants())} invariants)"
    )
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
