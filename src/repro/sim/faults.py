"""Deterministic fault injection: node churn, blackouts, partitions, loss bursts.

The paper's evaluation assumes a well-behaved world, yet the protocols under
study exist precisely to survive disruption.  This module makes disruption a
first-class, *seeded* part of a scenario: a :class:`FaultSpec` declares one
fault window, a :class:`Scenario` carries a tuple of them (serialized with the
scenario, so job content keys capture the fault plan), and
:class:`FaultSchedule` compiles the specs into ordinary simulator events at
build time.  Four fault kinds are modelled:

* ``node_crash`` — one node powers off for a window: its MAC drops the
  queued frames (counted separately from Fig. 3's drops), stops receiving,
  and the routing protocol is told to forget its volatile state
  (:meth:`~repro.protocols.base.RoutingProtocol.on_node_down`); on recovery
  the node reboots with empty tables.
* ``blackout`` — the whole channel goes deaf for a window (no frame reaches
  any receiver; carrier sense still works, as in a jammed band).
* ``partition`` — a vertical line splits the terrain: frames whose endpoints
  straddle ``boundary_x`` are suppressed while the window is active.
* ``loss_burst`` — every candidate reception is independently dropped with
  ``drop_rate`` using the dedicated ``"faults"`` RNG stream, so fault noise
  never perturbs the mobility/traffic/MAC streams.

Determinism and the off-path contract
-------------------------------------

Fault flips are scheduled with priority :data:`FAULT_PRIORITY` (below every
normal event) at build time, before any traffic event, so the event order is a
pure function of the scenario.  When a scenario declares **no** faults,
nothing here is ever constructed and the channel/MAC hot paths execute the
exact instruction sequence they always did — the bit-identity tests in
``tests/sim/test_faults.py`` enforce that the fault layer is precisely
off-path.
"""

from __future__ import annotations

import math
import random
from dataclasses import MISSING, dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PRIORITY",
    "FaultSpec",
    "FaultSchedule",
    "ChannelFaults",
    "FAULT_PRESETS",
    "fault_preset",
]

NodeId = Hashable

#: The recognised fault kinds, in documentation order.
FAULT_KINDS: Tuple[str, ...] = ("node_crash", "blackout", "partition", "loss_burst")

#: Scheduling priority of fault flips: below priority 0 (MAC/traffic), so a
#: fault taking effect at time t is visible to every normal event at t.
FAULT_PRIORITY = -1


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One declarative fault window.

    ``kind`` selects the model; ``node`` (node_crash), ``boundary_x``
    (partition) and ``drop_rate`` (loss_burst) are kind-specific.  Specs are
    part of the scenario's serialized identity, so every field is written by
    :meth:`to_dict` and validated on construction.
    """

    kind: str
    start: float
    duration: float
    node: Optional[int] = None
    boundary_x: Optional[float] = None
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        numbers = {"start": self.start, "duration": self.duration}
        if self.boundary_x is not None:
            numbers["boundary_x"] = self.boundary_x
        for name, value in numbers.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"fault {name} must be a finite number, got {value!r}")
        if self.start < 0:
            raise ValueError("fault start must be non-negative")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")
        if self.kind == "node_crash" and self.node is None:
            raise ValueError("node_crash faults need a node id")
        if self.kind == "partition" and self.boundary_x is None:
            raise ValueError("partition faults need a boundary_x")
        if self.kind == "loss_burst" and not 0.0 < self.drop_rate <= 1.0:
            raise ValueError("loss_burst faults need a drop_rate in (0, 1]")

    @property
    def end(self) -> float:
        """The instant the fault heals."""
        return self.start + self.duration

    # -- constructors ------------------------------------------------------------

    @classmethod
    def node_crash(cls, *, node: int, start: float, duration: float) -> "FaultSpec":
        """Node ``node`` powers off at ``start`` and reboots ``duration`` later."""
        return cls(kind="node_crash", start=start, duration=duration, node=node)

    @classmethod
    def blackout(cls, *, start: float, duration: float) -> "FaultSpec":
        """No frame reaches any receiver while the window is active."""
        return cls(kind="blackout", start=start, duration=duration)

    @classmethod
    def partition(
        cls, *, boundary_x: float, start: float, duration: float
    ) -> "FaultSpec":
        """Frames crossing the vertical line ``x = boundary_x`` are suppressed."""
        return cls(
            kind="partition", start=start, duration=duration, boundary_x=boundary_x
        )

    @classmethod
    def loss_burst(
        cls, *, drop_rate: float, start: float, duration: float
    ) -> "FaultSpec":
        """Each candidate reception is dropped with ``drop_rate`` while active."""
        return cls(
            kind="loss_burst", start=start, duration=duration, drop_rate=drop_rate
        )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict of every field (part of the scenario identity)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        """Rebuild a spec written by :meth:`to_dict`.

        Raises :class:`ValueError` naming any unknown or missing field.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a fault spec is a mapping of fields, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
        missing = [
            f.name for f in fields(cls) if f.default is MISSING and f.name not in data
        ]
        if missing:
            raise ValueError(f"missing fault spec fields: {missing}")
        return cls(**dict(data))


class ChannelFaults:
    """The O(1)-consultable runtime fault state the channel reads per reception.

    One instance exists per trial *only when the scenario declares faults*;
    the channel holds ``None`` otherwise and never takes the branch.  All
    mutation happens through the flip callbacks :class:`FaultSchedule`
    schedules, so membership checks are plain set/int/list reads.
    """

    __slots__ = ("down", "blackout_depth", "partitions", "loss_rates", "_random")

    def __init__(self, rng: random.Random) -> None:
        #: Node ids currently powered off.
        self.down: Set[NodeId] = set()
        #: Number of concurrently active blackout windows.
        self.blackout_depth = 0
        #: Active partition boundaries (x coordinates).
        self.partitions: List[float] = []
        #: Active loss-burst drop rates, in activation order.
        self.loss_rates: List[float] = []
        self._random = rng.random

    def blocked(
        self,
        transmitter: NodeId,
        receiver: NodeId,
        position_of: Callable[[NodeId], Tuple[float, float]],
    ) -> bool:
        """Should the reception ``transmitter -> receiver`` be suppressed now?

        Called once per candidate reception while any fault window is near;
        each check is O(active faults).  Loss-burst draws come from the
        dedicated fault RNG stream, in reception-loop order, which is
        identical across fast-path configurations (the reception sets are).
        """
        down = self.down
        if down and (transmitter in down or receiver in down):
            return True
        if self.blackout_depth:
            return True
        if self.partitions:
            tx = position_of(transmitter)[0]
            rx = position_of(receiver)[0]
            for boundary in self.partitions:
                if (tx < boundary) != (rx < boundary):
                    return True
        if self.loss_rates:
            for rate in self.loss_rates:
                if self._random() < rate:
                    return True
        return False


class FaultSchedule:
    """The compiled fault plan of one trial.

    Construction validates the specs; :meth:`install` wires them into a
    running network by scheduling the down/up flips as simulator events (at
    :data:`FAULT_PRIORITY`, before any same-instant traffic) and installing
    the shared :class:`ChannelFaults` state on the channel.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        if not specs:
            raise ValueError("a fault schedule needs at least one spec")
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    def activity_windows(self) -> Tuple[Tuple[float, float], ...]:
        """The merged, sorted ``(start, end)`` windows with any fault active."""
        intervals = sorted((spec.start, spec.end) for spec in self.specs)
        merged: List[Tuple[float, float]] = [intervals[0]]
        for start, end in intervals[1:]:
            last_start, last_end = merged[-1]
            if start <= last_end:
                merged[-1] = (last_start, max(last_end, end))
            else:
                merged.append((start, end))
        return tuple(merged)

    def heal_time(self) -> float:
        """The instant the last fault window closes (all faults healed)."""
        return max(spec.end for spec in self.specs)

    def install(
        self, simulator, channel, nodes, *, rng: random.Random
    ) -> ChannelFaults:
        """Schedule every fault flip and attach the runtime state to the channel."""
        state = ChannelFaults(rng)
        channel.install_faults(state)
        for spec in self.specs:
            if spec.kind == "node_crash":
                node = nodes.get(spec.node)
                if node is None:
                    raise ValueError(
                        f"fault names unknown node {spec.node!r} "
                        f"(scenario has nodes {0}..{len(nodes) - 1})"
                    )
                self._flip(
                    simulator,
                    spec,
                    down=lambda node=node: (
                        state.down.add(node.node_id),
                        node.go_down(),
                    ),
                    up=lambda node=node: (
                        state.down.discard(node.node_id),
                        node.go_up(),
                    ),
                )
            elif spec.kind == "blackout":
                self._flip(
                    simulator,
                    spec,
                    down=lambda: setattr(
                        state, "blackout_depth", state.blackout_depth + 1
                    ),
                    up=lambda: setattr(
                        state, "blackout_depth", state.blackout_depth - 1
                    ),
                )
            elif spec.kind == "partition":
                boundary = spec.boundary_x
                self._flip(
                    simulator,
                    spec,
                    down=lambda boundary=boundary: state.partitions.append(boundary),
                    up=lambda boundary=boundary: state.partitions.remove(boundary),
                )
            else:  # loss_burst (FAULT_KINDS is closed; __post_init__ validated)
                rate = spec.drop_rate
                self._flip(
                    simulator,
                    spec,
                    down=lambda rate=rate: state.loss_rates.append(rate),
                    up=lambda rate=rate: state.loss_rates.remove(rate),
                )
        return state

    @staticmethod
    def _flip(simulator, spec: FaultSpec, *, down, up) -> None:
        simulator.schedule_at(spec.start, down, priority=FAULT_PRIORITY)
        # The up flip may land beyond the trial duration; the engine simply
        # never reaches it, which models a fault that outlives the trial.
        simulator.schedule_at(spec.end, up, priority=FAULT_PRIORITY)


# -- presets -------------------------------------------------------------------------


def _churn_partition(scenario) -> Tuple[FaultSpec, ...]:
    """Two staggered node crashes plus a mid-trial terrain partition.

    Everything scales with the scenario: crashes cover 30%-65% of the trial,
    the partition splits the terrain down the middle for 15% of it, and all
    faults heal by 0.65 * duration so the post-heal window is substantial.
    """
    duration = scenario.duration
    return (
        FaultSpec.node_crash(node=1, start=0.30 * duration, duration=0.20 * duration),
        FaultSpec.node_crash(
            node=scenario.node_count // 2,
            start=0.45 * duration,
            duration=0.20 * duration,
        ),
        FaultSpec.partition(
            boundary_x=scenario.terrain_width / 2.0,
            start=0.50 * duration,
            duration=0.15 * duration,
        ),
    )


def _blackout_burst(scenario) -> Tuple[FaultSpec, ...]:
    """A short total blackout followed by a lossy recovery period."""
    duration = scenario.duration
    return (
        FaultSpec.blackout(start=0.40 * duration, duration=0.10 * duration),
        FaultSpec.loss_burst(
            drop_rate=0.3, start=0.50 * duration, duration=0.10 * duration
        ),
    )


#: Named fault plans, each a function of the scenario they will disrupt.
FAULT_PRESETS: Dict[str, Callable[[Any], Tuple[FaultSpec, ...]]] = {
    "churn-partition": _churn_partition,
    "blackout-burst": _blackout_burst,
}


def fault_preset(name: str, scenario) -> Tuple[FaultSpec, ...]:
    """The specs of preset ``name`` instantiated for ``scenario``."""
    try:
        preset = FAULT_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault preset {name!r}; expected one of {sorted(FAULT_PRESETS)}"
        ) from None
    return preset(scenario)
