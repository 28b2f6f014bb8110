"""Reproduction of *Loop-Free Routing Using a Dense Label Set in Wireless
Networks* (Mosko & Garcia-Luna-Aceves, ICDCS 2004).

The package is organised as:

* :mod:`repro.core` — the label algebra SRP runs: proper fractions, the
  composite ordering ``(sn, m/n)`` and Algorithm 1.
* :mod:`repro.sim` — a discrete-event wireless network simulator (unit-disk
  radio, CSMA-style MAC, random-waypoint mobility) standing in for GloMoSim.
* :mod:`repro.protocols` — the paper's protocol SRP plus the AODV, DSR, LDR
  and OLSR baselines it is compared against.
* :mod:`repro.workloads` — CBR traffic and the paper's evaluation scenarios.
* :mod:`repro.metrics` — delivery ratio, network load, latency, MAC drops,
  sequence-number accounting and confidence intervals.
* :mod:`repro.runtime` — the clock/transport seam the protocols run on, and
  the live asyncio router daemons behind it.
* :mod:`repro.experiments` — the harness regenerating Table I and Figures 3–7.

``import repro`` loads none of them; import the subpackage you use, so a
command pays only for what it runs.
"""

__version__ = "0.4.0"  # == pyproject.toml; tests/test_packaging.py compares

__all__ = ["__version__"]
