"""What the suite measures, by name: workloads, metrics, sizes.

``BENCHMARK.json`` at the repo root is the contract other tooling reads, so it
is the single place a workload or metric is declared; this module loads it and
adds only what that file's fixed schema cannot carry:

* two end-to-end metrics the suite prints but the contract cannot hold —
  ``sim_speedup`` does not apply to ``store_4k`` (zero simulated seconds) and
  ``failed_share`` is 0 on a healthy run, while a contract metric must apply
  everywhere and never read 0 (the contract carries failures as its
  ``attempted``/``failed`` pair instead);
* the workload sizes (full and the ``--selfcheck`` smoke size);
* which per-layer metrics are exact counts, for ``--compare``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_JSON = SUITE_DIR / "reference.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TRIAL_WORKLOADS = ("trial_olsr_dense", "trial_srp_mobile")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    bound: Optional[float] = None  #: share by which it may worsen; None = per-layer
    applies_to: Optional[Tuple[str, ...]] = None  #: None = every workload

    def applies(self, workload: str) -> bool:
        return self.applies_to is None or workload in self.applies_to

    def worse_by(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of ``base``
        (negative = better)."""
        if base == 0:
            return 0.0 if new == 0 else float("inf")
        change = (new - base) / abs(base)
        return change if self.better == "lower" else -change


def load_contract() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def _metrics(entries) -> Dict[str, Metric]:
    return {
        e["name"]: Metric(e["name"], e["unit"], e["better"], e.get("bound"))
        for e in entries
    }


_CONTRACT = load_contract()
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in _CONTRACT["workloads"])
CONTRACT_END_TO_END: Dict[str, Metric] = _metrics(_CONTRACT["end_to_end"])
PER_LAYER: Dict[str, Metric] = _metrics(_CONTRACT["per_layer"])

#: Every end-to-end metric the suite prints: the contract's plus the two above.
END_TO_END: Dict[str, Metric] = {
    **CONTRACT_END_TO_END,
    "sim_speedup": Metric(
        "sim_speedup",
        "sim_s/s",
        "higher",
        CONTRACT_END_TO_END["wall_s"].bound,
        TRIAL_WORKLOADS + ("sweep_cold",),
    ),
    "failed_share": Metric("failed_share", "ratio", "lower", 0.0),
}

#: Per-layer metrics that are counts made by the program itself: they repeat
#: exactly on one commit, so ``--compare`` prints them as counts and never as
#: a speed-up.
EXACT_COUNTS: Tuple[str, ...] = (
    "sim.engine.events",
    "sim.mac.enqueued",
    "sim.mac.transmitted_frames",
    "sim.mac.retries",
    "sim.mac.queue_drops",
    "sim.mac.retry_drops",
    "sim.channel.transmissions",
    "sim.channel.receptions_started",
    "sim.channel.receptions_delivered",
    "sim.channel.collisions",
    "protocols.control_transmissions",
    "protocols.data_delivered",
)

#: Workload sizes.  ``full`` is what every published number uses; ``smoke`` is
#: ``--selfcheck`` only and its records are stamped non-comparable.  The trial
#: seeds are part of the workload, not drawn from ``--seed``: across scenario
#: seeds 1-10 the OLSR trial's event count has an interquartile spread of 8 %
#: and three SRP trials' 5 %, which on top of the host's own noise would push
#: the spread of ten runs against the widest bound the contract allows.  So
#: the trials are a fixed trace (like the paper's off-line generated mobility
#: and traffic scripts) and ``--seed`` draws the synthetic store cells and the
#: drivers' inputs.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "trial_scale": "paper-tier",
        "olsr_seeds": (1,),
        "srp_seeds": (1, 2, 3),
        "sweep_scale": "benchmark",
        "sweep_cells": 30,  # 5 protocols x 3 pause times x 2 trials
        "sweep_jobs": 2,  # fixed, not nproc: records compare across >= 2-core hosts
        "store_trials": 100,
        "store_cells": 4000,  # 5 protocols x 8 pause times x 100 trials
        "dispatch_events": 1_000_000,
        "query_rounds": 200,
        "new_order_calls": 50_000,
        "mediant_chains": 5_000,
        "claim_keys": 1_000,
    },
    "smoke": {
        "trial_scale": "smoke",
        "olsr_seeds": (1,),
        "srp_seeds": (1,),
        "sweep_scale": "smoke",
        "sweep_cells": 10,
        "sweep_jobs": 2,
        "store_trials": 5,
        "store_cells": 200,
        "dispatch_events": 20_000,
        "query_rounds": 5,
        "new_order_calls": 1_000,
        "mediant_chains": 100,
        "claim_keys": 50,
    },
}

#: Seconds one full-size pass takes on the 2-vCPU reference sandbox; with
#: ``--seconds S`` a run makes ``max(1, S // nominal)`` passes, so the number
#: of passes is the same on both sides of a comparison whatever their speed.
NOMINAL_PASS_S: Dict[str, float] = {
    "trial_olsr_dense": 19.0,
    "trial_srp_mobile": 14.0,
    "sweep_cold": 13.0,
    "store_4k": 13.0,
}

#: A run reports ``setup_s`` as the median of at least this many fresh starts.
MIN_SETUP_SAMPLES = 4
