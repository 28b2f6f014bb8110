#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads, every metric by name.

    python benchmarks/suite/run.py [--seed 1] [--passes 5] [--out FILE] [--trace]
    python benchmarks/suite/run.py --compare A.json B.json
    python benchmarks/suite/run.py --selfcheck
    python benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload ``--passes`` times — one fresh child
process per pass, one at a time, round-robin over the workloads so host drift
hits all of them equally — prints each end-to-end metric with its unit as
median, quartiles and minimum, checks the outputs, and writes a
host-fingerprinted JSON record.  ``--trace`` adds one separate traced pass per
workload and the drivers for the per-layer numbers and writes ``trace.json``
beside the record.  The last form is the ``BENCHMARK.json`` contract: one
workload, one JSON object on the last line of stdout.

What is measured, and why, is in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import compare
import hostinfo
import record
from catalogue import (
    MIN_SETUP_SAMPLES,
    NOMINAL_PASS_S,
    ROOT,
    SIZES,
    SRC,
    SUITE_DIR,
    TRIAL_WORKLOADS,
    WORKLOADS,
)
from proc import run_process

TMP_ROOT = ROOT / ".bench_tmp"  # stores and scratch; inside the checkout, ignored
OUT_DIR = ROOT / ".bench_out"  # records and traces, unless --out says otherwise
RESULT_PREFIX = "RESULT "


class ChildFailed(RuntimeError):
    """A pass's child process crashed or printed no result."""


def child_env() -> Dict[str, str]:
    """The environment of every child: the shipped defaults (no ``REPRO_*``
    tuning), and ``src/`` importable the way the README tells users to."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([inherited] if inherited else []))
    return env


def spawn(
    workload: str,
    *,
    seed: int,
    size: str,
    trace: bool = False,
    setup_only: bool = False,
    expected_cells: Optional[int] = None,
) -> Dict[str, Any]:
    """One fresh child process running ``workload`` once; its result."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    argv = [sys.executable, str(SUITE_DIR / "run.py"), "--child", workload]
    argv += ["--seed", str(seed), "--size", size, "--tmp", str(tmp)]
    if trace:
        argv += ["--trace", "1"]
    if setup_only:
        argv.append("--setup-only")
    if expected_cells is not None:
        argv += ["--expected-cells", str(expected_cells)]
    try:
        # Stamped last, so set-up time starts where the new process does.
        argv += ["--spawned-at", repr(time.time())]
        code, output, _ = run_process(argv, env=child_env())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [ln for ln in output.splitlines() if ln.startswith(RESULT_PREFIX)]
    if code != 0 or not lines:
        tail = "\n".join(output.strip().splitlines()[-15:])
        raise ChildFailed(f"{workload} child exited {code}:\n{tail}")
    return json.loads(lines[-1][len(RESULT_PREFIX) :])


def child_main(args: argparse.Namespace) -> int:
    """The child side of :func:`spawn`."""
    import workloads

    ctx = workloads.Context(
        seed=args.seed,
        trace=bool(args.trace),
        setup_only=args.setup_only,
        spawned_at=args.spawned_at,
        tmp=Path(args.tmp),
        expected_cells=args.expected_cells,
    )
    result = workloads.run_child(args.child, args.size, ctx)
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


def _note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _trace_part(traced: Dict[str, Any]) -> Dict[str, Any]:
    """What one traced child contributes to ``trace.json``."""
    if "spans" in traced:
        return traced["spans"]
    return {"profile": traced["layers"]}


def _write_json(path: Path, data: Any, *, indent: Optional[int] = 1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=indent), encoding="utf-8")


def untraced_entry(workload: str, seed: int, passes: List[Dict[str, Any]]):
    """A workload's record entry from its untraced passes, after topping the
    set-up samples up to ``MIN_SETUP_SAMPLES`` with set-up-only starts."""
    setups = [
        spawn(workload, seed=seed, size="full", setup_only=True)["setup_s"]
        for _ in range(MIN_SETUP_SAMPLES - len(passes))
    ]
    return record.workload_entry(workload, passes, setups)


def _absorb_traced(entry: Dict[str, Any], traced: Dict[str, Any], drivers) -> None:
    """Add a traced child's per-layer metrics (and any failure of its own
    checks) to a workload's entry."""
    entry["per_layer"] = record.per_layer_values(traced, drivers)
    if traced["failed"]:
        entry["failures"] += [f"traced pass: {m}" for m in traced["failures"]]
        entry["correct"] = False


# -- the contract: one workload per invocation ---------------------------------------


def run_contract(workload: str, seed: int, seconds: float, trace: int) -> int:
    if trace:
        traced = spawn(workload, seed=seed, size="full", trace=True)
        drivers = spawn("drivers", seed=seed, size="full")["layers"]
        entry = record.workload_entry(workload, [traced])
        _absorb_traced(entry, traced, drivers)
        trace_path = OUT_DIR / f"trace-{workload}.json"
        _write_json(trace_path, _trace_part(traced), indent=None)
    else:
        count = max(1, int(seconds // NOMINAL_PASS_S[workload]))
        passes = [spawn(workload, seed=seed, size="full") for _ in range(count)]
        entry = untraced_entry(workload, seed, passes)
    for message in entry["failures"]:
        _note(f"FAILED: {message}")
    print(record.contract_line(entry), flush=True)
    return 0 if entry["correct"] else 1


# -- the suite: every workload, a record ---------------------------------------------


def build_record(
    size: str, host: Dict[str, Any], entries: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    host["loadavg_1m_end"] = hostinfo.loadavg_1m()
    built = {
        "schema": record.SCHEMA,
        "size": size,
        # Smoke-size numbers exist to exercise the code, not to be compared.
        "comparable": size == "full",
        "host": host,
        "workloads": entries,
    }
    if size == "full":
        built["reference"] = record.reference_check(entries)
    return built


def run_suite(seed: int, passes: int, out: Path, trace: int) -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    host = hostinfo.fingerprint(tmp=TMP_ROOT, passes=passes, seed=seed)
    if host["noisy"]:
        _note(f"warning: load {host['loadavg_1m_start']:.2f} at start; stamping noisy")
    results: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
    for index in range(passes):
        for workload in WORKLOADS:
            result = spawn(workload, seed=seed, size="full")
            results[workload].append(result)
            _note(
                f"pass {index + 1}/{passes} {workload}: {result['wall_s']:.2f} s, "
                f"{result['failed']} of {result['attempted']} failed"
            )
    entries = {w: untraced_entry(w, seed, results[w]) for w in WORKLOADS}
    if trace:
        drivers = spawn("drivers", seed=seed, size="full")["layers"]
        traces = {}
        for workload in WORKLOADS:
            traced = spawn(workload, seed=seed, size="full", trace=True)
            _absorb_traced(entries[workload], traced, drivers)
            traces[workload] = _trace_part(traced)
            _note(f"traced pass {workload} done")
        _write_json(out.parent / "trace.json", traces, indent=None)
    built = build_record("full", host, entries)
    problems = record.validate(built)
    _write_json(out, built)
    record.print_record(built)
    for problem in problems:
        print(f"INVALID RECORD: {problem}")
    print(f"\nrecord written to {out}")
    correct = all(entry["correct"] for entry in entries.values())
    return 0 if correct and not problems else 1


# -- --selfcheck ---------------------------------------------------------------------


def selfcheck() -> int:
    """Every workload, the traced pass and the drivers at smoke size, two
    children at a time; then the record is validated against
    ``BENCHMARK.json`` and the trace's own invariants are asserted."""
    started = time.perf_counter()
    TMP_ROOT.mkdir(exist_ok=True)
    host = hostinfo.fingerprint(tmp=TMP_ROOT, passes=1, seed=1)
    wrong_cells = SIZES["smoke"]["store_cells"] + 1
    jobs: List[Tuple[str, Dict[str, Any]]] = [(w, {"trace": True}) for w in WORKLOADS]
    jobs += [("drivers", {}), ("store_4k", {"expected_cells": wrong_cells})]
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        done = list(
            pool.map(lambda job: spawn(job[0], seed=1, size="smoke", **job[1]), jobs)
        )
    traced = dict(zip(WORKLOADS, done))
    drivers, sabotaged = done[-2]["layers"], done[-1]
    entries = {}
    for workload in WORKLOADS:
        entries[workload] = record.workload_entry(workload, [traced[workload]])
        _absorb_traced(entries[workload], traced[workload], drivers)
    built = build_record("smoke", host, entries)
    _write_json(OUT_DIR / "selfcheck.json", built)
    _write_json(
        OUT_DIR / "selfcheck-trace.json",
        {w: _trace_part(t) for w, t in traced.items()},
        indent=None,
    )

    problems = record.validate(built)
    problems += [
        f"{workload}: outputs incorrect: {entry['failures']}"
        for workload, entry in entries.items()
        if not entry["correct"]
    ]
    for workload in WORKLOADS:
        layers = {n: m["value"] for n, m in entries[workload]["per_layer"].items()}
        if layers["trace_overhead"] <= 0:
            problems.append(f"{workload}: trace_overhead not reported")
        if workload in TRIAL_WORKLOADS:
            booked = sum(v for n, v in layers.items() if n.endswith(".self_s"))
            total = layers["trace.profiled_s"]
            if abs(booked - total) > 0.05 * total:
                problems.append(
                    f"{workload}: layers sum to {booked:.3f} of {total:.3f} s profiled"
                )
    coverage = entries["sweep_cold"]["per_layer"]["trace.span_coverage"]["value"]
    if coverage < 0.95:
        problems.append(f"sweep_cold: child spans cover {coverage:.1%} of the root")
    caught = record.workload_entry("store_4k", [sabotaged])
    if caught["correct"]:
        problems.append(f"store_4k passed although {wrong_cells} cells were expected")

    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print(
        f"selfcheck: {len(WORKLOADS)} workloads, traced passes and drivers at smoke "
        f"size in {elapsed:.1f} s; record validated against BENCHMARK.json; a wrong "
        f"expected cell count was {'caught' if not caught['correct'] else 'MISSED'} "
        f"({caught['failed']} of {caught['attempted']} operations failed -> exit 1); "
        "numbers are not comparable"
    )
    return 1 if problems else 0


# -- entry ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1, help="seed of the synthetic "
                        "store cells and the drivers' inputs (default: 1)")
    parser.add_argument("--passes", type=int, default=5,
                        help="untraced passes per workload (default: 5)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "record.json",
                        help="where the record goes (default: .bench_out/record.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also make the traced pass and run the "
                        "drivers, for the per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge record B against record A and exit")
    parser.add_argument("--selfcheck", action="store_true",
                        help="smoke-size run of everything, validated; < 30 s")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="contract mode: run this one workload and print one "
                        "JSON object as the last line")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="contract mode: how long to measure")
    for flag, kind in (("--child", str), ("--size", str), ("--tmp", str),
                       ("--spawned-at", float), ("--expected-cells", int)):
        parser.add_argument(flag, type=kind, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (SRC / "repro").is_dir():
        _note(f"error: {SRC / 'repro'} not found; the benchmark measures src/")
        return 2
    if args.child:
        return child_main(args)
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload:
            return run_contract(args.workload, args.seed, args.seconds, args.trace)
        return run_suite(args.seed, args.passes, args.out, args.trace)
    except ChildFailed as exc:
        _note(f"error: {exc}")
        return 1
    finally:
        try:
            TMP_ROOT.rmdir()  # every spawn removed its own directory
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
