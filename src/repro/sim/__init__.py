"""Discrete-event wireless network simulator (the GloMoSim stand-in).

Building blocks:

* :mod:`repro.sim.engine` — event scheduler and simulation clock.
* :mod:`repro.sim.rng` — named deterministic random streams per trial.
* :mod:`repro.sim.space`, :mod:`repro.sim.mobility` — terrain and
  random-waypoint mobility.
* :mod:`repro.sim.phy`, :mod:`repro.sim.channel`, :mod:`repro.sim.mac` —
  radio timing, the shared unit-disk channel with collisions, and a
  CSMA/CA-style MAC with retries and loss reporting.
* :mod:`repro.sim.packet`, :mod:`repro.sim.node`, :mod:`repro.sim.network` —
  packets, nodes and trial assembly.
* :mod:`repro.sim.stats` — the trial metrics the paper reports.
* :mod:`repro.sim.monitor` — run-time loop-freedom auditing.

This package re-exports nothing: import from the submodule that defines a
name.
"""
