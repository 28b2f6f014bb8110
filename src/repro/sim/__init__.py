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
"""

from .channel import Channel, ChannelStats
from .engine import Event, SimulationError, Simulator
from .mac import Mac, MacStats
from .mobility import MobilityModel, RandomWaypointMobility, StaticMobility, Waypoint
from .monitor import LoopFreedomMonitor, LoopViolation
from .network import Network, build_network, run_trial
from .node import Node
from .packet import BROADCAST, Frame, Packet, PacketKind
from .phy import PhyConfig
from .rng import RngStreams, derive_seed
from .space import Position, Terrain
from .spatial import SpatialGrid
from .stats import TrialStats, TrialSummary

__all__ = [
    "Channel",
    "ChannelStats",
    "Event",
    "SimulationError",
    "Simulator",
    "Mac",
    "MacStats",
    "MobilityModel",
    "RandomWaypointMobility",
    "StaticMobility",
    "Waypoint",
    "LoopFreedomMonitor",
    "LoopViolation",
    "Network",
    "build_network",
    "run_trial",
    "Node",
    "BROADCAST",
    "Frame",
    "Packet",
    "PacketKind",
    "PhyConfig",
    "RngStreams",
    "derive_seed",
    "Position",
    "Terrain",
    "SpatialGrid",
    "TrialStats",
    "TrialSummary",
]
