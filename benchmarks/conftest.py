"""Shared fixtures for the benchmark harness.

Every table/figure benchmark derives its rows from one shared protocol x
pause-time sweep, run once per benchmark session through the job pipeline
(``plan_sweep`` -> ``execute_jobs`` -> ``collect_sweep``).  Two tiers are
available:

* the default laptop-friendly ``BENCH_SCALE`` (structure of the paper's
  evaluation — five protocols, several pause times, shared per-trial
  scenarios — at reduced node count and duration), and
* the opt-in **paper tier**: the paper's full 5-protocol x 8-pause-time shape
  via ``EvaluationScale.paper_tier()``.  Enable it with the ``--paper-tier``
  pytest option or ``REPRO_PAPER_TIER=1`` in the environment; set
  ``REPRO_SWEEP_JOBS=N`` to fan the sweep out over N worker processes
  (results are bit-identical either way).

The full paper-scale sweep is driven by the CLI instead:
``python -m repro.experiments run --scale paper --jobs N --out DIR``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import (
    PAPER_PROTOCOLS,
    EvaluationScale,
    collect_sweep,
    execute_jobs,
    plan_sweep,
)
from repro.workloads.scenario import scaled_scenario

#: The scale used by the benchmark harness; chosen so the whole suite runs in
#: a few minutes while keeping every protocol and pause-time mechanism active.
BENCH_SCALE = EvaluationScale(
    "bench",
    scaled_scenario(
        node_count=24,
        flow_count=6,
        duration=40.0,
        terrain_width=1100.0,
        terrain_height=350.0,
        seed=11,
    ),
    pause_times=(0.0, 20.0, 40.0),
    trials=1,
)


def pytest_addoption(parser):
    parser.addoption(
        "--paper-tier",
        action="store_true",
        default=False,
        help="run the shared sweep at the paper-shape tier "
        "(5 protocols x 8 pause times; also REPRO_PAPER_TIER=1)",
    )


def _paper_tier_enabled(config) -> bool:
    if config.getoption("--paper-tier", default=False):
        return True
    return os.environ.get("REPRO_PAPER_TIER", "").strip() not in ("", "0")


def _sweep_workers() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_SWEEP_JOBS", "1")))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def evaluation_scale(request) -> EvaluationScale:
    """The tier the shared sweep runs at (bench by default, paper on opt-in)."""
    if _paper_tier_enabled(request.config):
        return EvaluationScale.paper_tier()
    return BENCH_SCALE


@pytest.fixture(scope="session")
def evaluation_results(evaluation_scale):
    """The shared sweep behind Table I and Figures 3–7."""
    scale = evaluation_scale
    shape = dict(pause_times=scale.pause_times, trials=scale.trials)
    jobs = plan_sweep(scale.scenario, PAPER_PROTOCOLS, **shape)
    outcomes = execute_jobs(jobs, workers=_sweep_workers())
    return collect_sweep(outcomes, protocols=PAPER_PROTOCOLS, **shape)
