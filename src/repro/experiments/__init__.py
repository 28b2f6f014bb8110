"""Experiment harness regenerating the paper's Table I and Figures 3–7.

Organised as a job pipeline: :mod:`~repro.experiments.jobs` plans a sweep as
independent :class:`~repro.experiments.jobs.TrialJob` cells,
:mod:`~repro.experiments.executor` runs them through one claim → run → settle
loop (in process, over a process pool, or — with
:mod:`~repro.experiments.distributed`'s leases — across workers sharing a
store), :mod:`~repro.experiments.runner` collects them into
:class:`~repro.experiments.runner.SweepResults`,
:mod:`~repro.experiments.store` persists completed cells so interrupted sweeps
resume, and ``python -m repro.experiments`` drives it all from the command
line.

The results are also *asserted*: :mod:`~repro.experiments.gate` holds the
science gate — the paper's qualitative claims as declarative invariants over a
completed store — and :mod:`~repro.experiments.trajectory` merges stores from
successive runs and tracks per-figure metrics across them.
:mod:`~repro.experiments.paper` defines the scales, Table I and the figures.

The *performance* of a trial is first-class too:
:mod:`~repro.experiments.profile` runs one instrumented trial and breaks its
cost down by architectural layer, so optimization work starts from data.
End-to-end speed is measured by one benchmark, ``benchmarks/suite`` (what
``BENCHMARK.json`` runs).

This package re-exports nothing: import from the submodule that defines a
name.  ``import repro.experiments`` therefore loads no process pool, lease
code or asyncio runtime, and each CLI subcommand imports only what it runs.
"""
