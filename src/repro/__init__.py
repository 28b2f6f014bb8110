"""Reproduction of *Loop-Free Routing Using a Dense Label Set in Wireless
Networks* (Mosko & Garcia-Luna-Aceves, ICDCS 2004).

The package is organised as:

* :mod:`repro.core` — Split Label Routing (SLR): dense label sets, the SRP
  composite ordering, Algorithm 1 and the order-maintenance invariants.
* :mod:`repro.sim` — a discrete-event wireless network simulator (unit-disk
  radio, CSMA-style MAC, random-waypoint mobility) standing in for GloMoSim.
* :mod:`repro.protocols` — the paper's protocol SRP plus the AODV, DSR, LDR
  and OLSR baselines it is compared against.
* :mod:`repro.workloads` — CBR traffic and the paper's evaluation scenarios.
* :mod:`repro.metrics` — delivery ratio, network load, latency, MAC drops,
  sequence-number accounting and confidence intervals.
* :mod:`repro.experiments` — the harness regenerating Table I and Figures 3–7.
"""

__version__ = "0.4.0"  # == pyproject.toml; tests/test_packaging.py compares

from . import core, experiments, metrics, protocols, sim, workloads

__all__ = [
    "core",
    "experiments",
    "metrics",
    "protocols",
    "sim",
    "workloads",
    "__version__",
]
