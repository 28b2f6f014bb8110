"""Scenario definitions: the evaluation setup of Section V of the paper.

A :class:`Scenario` captures everything that is *shared* between protocols in
one trial: terrain size, node count, mobility parameters (speed range and
pause time), the CBR traffic shape and the trial seed.  The same scenario fed
to different protocols yields identical mobility traces and traffic schedules
because both are generated from named random streams derived only from the
trial seed — this mirrors the paper's off-line generated mobility and packet
scripts.

``PAPER_SCENARIO`` holds the full parameters from the paper (100 nodes on a
2200 m x 600 m terrain, 30 CBR flows of 512-byte packets at 4 packets/s over a
2 Mbps channel, pause times 0–900 s over a 900 s simulation).
``scaled_scenario`` derives laptop-sized versions with the same structure for
tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Tuple

from ..sim.faults import FaultSpec
from ..sim.phy import PhyConfig
from ..sim.space import Terrain

__all__ = [
    "Scenario",
    "ScenarioFieldError",
    "PAPER_SCENARIO",
    "PAPER_PAUSE_TIMES",
    "scaled_scenario",
]

#: The eight pause times of the paper's evaluation (seconds).
PAPER_PAUSE_TIMES: Tuple[float, ...] = (0, 50, 100, 200, 300, 500, 700, 900)

#: Phy fields older revisions could write, with why they are refused now.
_RETIRED_PHY_FIELDS = {
    "propagation_delay_s_per_m": "the finite-propagation-delay channel was "
    "retired and every trial now runs on the instantaneous channel",
}


class ScenarioFieldError(ValueError):
    """A scenario dict names a field this code does not know (or no longer
    supports); the message names the field."""


def _phy_from_dict(phy: Mapping[str, Any]) -> PhyConfig:
    for name, reason in _RETIRED_PHY_FIELDS.items():
        if name in phy:
            raise ScenarioFieldError(
                f"phy field {name!r} is no longer supported: {reason}; "
                "re-run the sweep into a fresh directory"
            )
    unknown = set(phy) - {f.name for f in fields(PhyConfig)}
    if unknown:
        raise ScenarioFieldError(f"unknown phy fields: {sorted(unknown)}")
    return PhyConfig(**phy)


def _fault_from_dict(index: int, spec: Any) -> FaultSpec:
    if isinstance(spec, FaultSpec):
        return spec
    try:
        return FaultSpec.from_dict(spec)
    except (TypeError, ValueError) as exc:
        raise ScenarioFieldError(f"faults[{index}]: {exc}") from None


@dataclass(frozen=True, slots=True)
class Scenario:
    """Parameters shared by every protocol in one trial."""

    node_count: int = 100
    terrain_width: float = 2200.0
    terrain_height: float = 600.0
    duration: float = 900.0
    # Mobility (random waypoint).
    min_speed: float = 0.0
    max_speed: float = 20.0
    pause_time: float = 0.0
    # Traffic (CBR).
    flow_count: int = 30
    packets_per_second: float = 4.0
    packet_size_bytes: int = 512
    mean_flow_duration: float = 60.0
    # Radio.
    phy: PhyConfig = field(default_factory=PhyConfig)
    # Reproducibility.
    seed: int = 1
    # Fault plan (repro.sim.faults); empty = the fault layer is never built.
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise ValueError(f"faults must be FaultSpec instances, got {spec!r}")
        if self.node_count < 2:
            raise ValueError("a scenario needs at least two nodes")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.flow_count < 0:
            raise ValueError("flow_count must be non-negative")
        if self.packets_per_second <= 0:
            raise ValueError("packets_per_second must be positive")

    @property
    def terrain(self) -> Terrain:
        """The rectangular simulation area."""
        return Terrain(self.terrain_width, self.terrain_height)

    def with_pause_time(self, pause_time: float) -> "Scenario":
        """The same scenario at a different mobility pause time."""
        return replace(self, pause_time=pause_time)

    def with_seed(self, seed: int) -> "Scenario":
        """The same scenario under a different trial seed."""
        return replace(self, seed=seed)

    def with_faults(self, faults: Tuple[FaultSpec, ...]) -> "Scenario":
        """The same scenario under a different fault plan."""
        return replace(self, faults=tuple(faults))

    @property
    def offered_load_pps(self) -> float:
        """Aggregate CBR sending rate (packets per second network-wide)."""
        return self.flow_count * self.packets_per_second

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict of every scenario field (phy config nested).

        The dict is the scenario's identity for job content keys and for the
        on-disk sweep store, so it must cover every field that can change a
        trial's outcome.
        """
        data: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "phy":
                value = {pf.name: getattr(value, pf.name) for pf in fields(PhyConfig)}
            elif f.name == "faults":
                # Written only when a fault plan exists: fault-free scenarios
                # keep the exact dict (and hence job content keys) they had
                # before the fault layer existed.
                if not value:
                    continue
                value = [spec.to_dict() for spec in value]
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario written by :meth:`to_dict`.

        Raises :class:`ScenarioFieldError` naming any scenario or phy field
        it does not know, including one a retired model used to write, and
        any fault spec (``faults[i]``) that is malformed.
        """
        kwargs = dict(data)
        phy = kwargs.get("phy")
        if isinstance(phy, Mapping):
            kwargs["phy"] = _phy_from_dict(phy)
        faults = kwargs.get("faults")
        if faults:
            kwargs["faults"] = tuple(
                _fault_from_dict(index, spec) for index, spec in enumerate(faults)
            )
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ScenarioFieldError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**kwargs)


#: The paper's full-scale evaluation scenario (100 nodes, 30 flows, 900 s).
PAPER_SCENARIO = Scenario()


def scaled_scenario(
    *,
    node_count: int = 30,
    flow_count: int = 8,
    duration: float = 120.0,
    pause_time: float = 0.0,
    seed: int = 1,
    terrain_width: float = 1200.0,
    terrain_height: float = 400.0,
    max_speed: float = 20.0,
) -> Scenario:
    """A laptop-sized scenario with the same structure as the paper's.

    The density (nodes per unit area relative to radio range) and the offered
    load per node are kept in the same regime so qualitative protocol
    behaviour — route breaks under mobility, contention under load — is
    preserved while a trial finishes in seconds.
    """
    return Scenario(
        node_count=node_count,
        terrain_width=terrain_width,
        terrain_height=terrain_height,
        duration=duration,
        pause_time=pause_time,
        flow_count=flow_count,
        max_speed=max_speed,
        seed=seed,
    )
