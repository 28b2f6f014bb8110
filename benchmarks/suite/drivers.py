"""Drivers: one layer's public calls timed directly, with no trial around them.

Each returns per-layer metrics by their ``BENCHMARK.json`` names.  Inputs are
drawn from ``seed`` before the clock starts; the result of every loop is
consumed so nothing is skipped.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Dict

from repro.core.fractions import ProperFraction
from repro.core.neworder import new_order
from repro.core.ordering import Ordering
from repro.experiments.jobs import plan_sweep
from repro.experiments.paper import PAPER_PROTOCOLS, resolve_scale
from repro.experiments.store import ResultsStore
from repro.protocols import protocol_factory
from repro.sim.engine import Simulator
from repro.sim.network import build_network
from repro.workloads.scenario import PAPER_PAUSE_TIMES, PAPER_SCENARIO


def engine_dispatch(seed: int, events: int) -> Dict[str, float]:
    """``sim.engine.dispatch_ns``: no-op events through ``schedule_in`` + ``run``.

    2000 chains keep a trial-sized queue pending; every event schedules its
    successor at a horizon drawn from a MAC-like mix (mostly slot-sized, some
    timer-sized, a few far-future), so buckets, ladder and overflow of the
    calendar queue are all visited.
    """
    rng = random.Random(seed)

    def horizon() -> float:
        kind = rng.random()
        if kind < 0.70:
            return rng.uniform(20e-6, 1e-3)
        if kind < 0.95:
            return rng.uniform(1e-3, 1.0)
        return rng.uniform(1.0, 100.0)

    horizons = [horizon() for _ in range(events)]
    simulator = Simulator()
    schedule_in = simulator.schedule_in
    pop = horizons.pop

    def tick() -> None:
        if horizons:
            schedule_in(pop(), tick)

    started = perf_counter()
    for _ in range(min(2000, events)):
        schedule_in(pop(), tick)
    simulator.run()
    elapsed = perf_counter() - started
    if simulator.events_processed != events:
        raise AssertionError(
            f"dispatch driver ran {simulator.events_processed} of {events} events"
        )
    return {"sim.engine.dispatch_ns": elapsed / events * 1e9}


def channel_queries(seed: int, scale: str, rounds: int) -> Dict[str, float]:
    """``sim.channel.query_us``: the three geometry queries over every node of
    a static, traffic-free network of the trial workloads' size."""
    scenario = resolve_scale(scale).scenario.with_seed(seed)
    network = build_network(
        scenario,
        protocol_factory("OLSR"),
        with_traffic=False,
        static_positions=True,
    )
    channel = network.channel
    nodes = list(network.nodes)
    found = 0
    started = perf_counter()
    for _ in range(rounds):
        for node_id in nodes:
            found += len(channel.neighbors_of(node_id))
            found += channel.is_busy_near(node_id)
            found += channel.busy_horizon(node_id) > 0.0
    elapsed = perf_counter() - started
    if found <= 0:
        raise AssertionError("channel driver found no neighbours at all")
    return {"sim.channel.query_us": elapsed / (3 * rounds * len(nodes)) * 1e6}


def core_ordering(seed: int, calls: int, chains: int) -> Dict[str, float]:
    """``core.new_order_per_s`` (Algorithm 1 with an 8-successor set, the
    line-7 split) and ``core.mediant_split_per_s`` (a 40-deep split chain,
    the depth a long reply path reaches)."""
    rng = random.Random(seed)
    current = Ordering(1, ProperFraction(2, 3))
    advertised = Ordering(2, ProperFraction(1, 5))
    cached = Ordering(2, ProperFraction(1, 2))
    successors = {
        node: Ordering(2, ProperFraction(1, rng.randint(3, 40))) for node in range(8)
    }
    finite = 0
    started = perf_counter()
    for _ in range(calls):
        finite += new_order(current, cached, advertised, successors).is_finite
    new_order_s = perf_counter() - started
    if finite != calls:
        raise AssertionError("new_order driver produced an unordered result")

    low, high = ProperFraction(0, 1), ProperFraction(1, rng.randint(2, 9))
    denominators = 0
    started = perf_counter()
    for _ in range(chains):
        split = high
        for _ in range(40):
            split = low.mediant_with(split)
        denominators += split.denominator
    mediant_s = perf_counter() - started
    if denominators != chains * (high.denominator + 40):
        raise AssertionError("mediant driver computed a wrong chain")
    return {
        "core.new_order_per_s": calls / new_order_s,
        "core.mediant_split_per_s": 40 * chains / mediant_s,
    }


def jobs_planning(store_trials: int) -> Dict[str, float]:
    """``experiments.jobs.plan_s`` and ``.content_key_us`` on the store
    workload's sweep (every key is computed fresh: the memo is per job)."""
    started = perf_counter()
    jobs = plan_sweep(
        PAPER_SCENARIO,
        PAPER_PROTOCOLS,
        pause_times=PAPER_PAUSE_TIMES,
        trials=store_trials,
    )
    planned = perf_counter()
    keys = {job.content_key for job in jobs}
    keyed = perf_counter()
    if len(keys) != len(jobs):
        raise AssertionError("content keys collide")
    return {
        "experiments.jobs.plan_s": planned - started,
        "experiments.jobs.content_key_us": (keyed - planned) / len(jobs) * 1e6,
    }


def store_claims(tmp: Path, keys: int) -> Dict[str, float]:
    """``experiments.store.claim_us``: ``try_claim`` + ``release_claim`` per
    key, the only part of the distributed backend measured this round."""
    root = tmp / "claims"
    store = ResultsStore(root)
    won = 0
    try:
        started = perf_counter()
        for index in range(keys):
            key = f"{index:020x}"
            won += store.try_claim(key, "bench", now=0.0) is not None
            store.release_claim(key, "bench")
        elapsed = perf_counter() - started
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if won != keys:
        raise AssertionError(f"claimed {won} of {keys} uncontended keys")
    return {"experiments.store.claim_us": elapsed / keys * 1e6}


def run_all(seed: int, size: Dict[str, Any], tmp: Path) -> Dict[str, float]:
    out: Dict[str, float] = {}
    out.update(engine_dispatch(seed, size["dispatch_events"]))
    out.update(channel_queries(seed, size["trial_scale"], size["query_rounds"]))
    out.update(core_ordering(seed, size["new_order_calls"], size["mediant_chains"]))
    out.update(jobs_planning(size["store_trials"]))
    out.update(store_claims(tmp, size["claim_keys"]))
    return out
