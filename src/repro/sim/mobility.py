"""Node mobility models.

The paper models mobility with the random-waypoint pattern: each node picks a
uniform random destination in the terrain, moves toward it at a uniform random
speed in ``[min_speed, max_speed]`` (0–20 m/s in the paper), pauses for the
configured *pause time*, then repeats.  A pause time of 900 s over a 900 s
simulation is effectively a static network; a pause time of 0 s is constant
mobility.

Models are *trace-like*: the full movement schedule is generated lazily but
deterministically from the trial's mobility random stream, so the same
:class:`RandomWaypointMobility` object (or another built from the same seed)
gives identical positions to every protocol in a trial — mirroring the paper's
off-line generated mobility scripts.

:class:`RandomWaypointMobility` answers position queries from a flat segment
table (one float tuple per leg) rather than from its :class:`Waypoint`
objects, and hands the channel the active :data:`Segment` so the channel can
interpolate in place.  :meth:`Waypoint.position_at` remains the reference
the table is tested against: the interpolation expressions are the same, so
the floats are bit-identical.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Tuple

from .space import Position, Terrain

__all__ = [
    "MobilityModel",
    "StaticMobility",
    "RandomWaypointMobility",
    "Waypoint",
    "Segment",
]

#: One precompiled motion segment: ``(valid_from, depart, arrival, sx, sy,
#: ex, ey)``.  For any ``t`` in ``[valid_from, arrival]`` the node sits at
#: ``(sx, sy)`` until ``depart``, then moves linearly, arriving at
#: ``(ex, ey)`` at ``arrival``.  Evaluating the inlined interpolation
#: expressions of :meth:`RandomWaypointMobility.position_at_xy` over these
#: seven floats reproduces its results bit for bit — which lets the channel
#: interpolate positions without a per-query call chain into the model.
Segment = Tuple[float, float, float, float, float, float, float]


class MobilityModel(abc.ABC):
    """Interface: position of one node as a function of simulation time."""

    @abc.abstractmethod
    def position_at(self, time: float) -> Position:
        """The node's position at simulation time ``time`` (seconds)."""

    def position_at_xy(self, time: float) -> Tuple[float, float]:
        """Fast path: the position as a plain ``(x, y)`` tuple.

        Equivalent to ``position_at`` but lets concrete models skip the
        :class:`Position` allocation — the channel hot path calls this once
        per node per distinct timestamp, which at paper scale is millions of
        lookups per trial.
        """
        point = self.position_at(time)
        return (point.x, point.y)

    def segment_for(self, time: float) -> "Segment | None":
        """The active linear motion segment covering ``time``, if the model
        can describe one (see :data:`Segment`); ``None`` for models that
        cannot.

        A segment hands the caller everything needed to evaluate the node's
        position *locally* for any instant inside the segment's validity
        window — the channel uses this to fill its per-timestamp position
        cache without a Python call chain per interpolation.
        """
        return None


@dataclass(frozen=True, slots=True)
class StaticMobility(MobilityModel):
    """A node that never moves."""

    position: Position

    def position_at(self, time: float) -> Position:
        return self.position

    def position_at_xy(self, time: float) -> Tuple[float, float]:
        position = self.position
        return (position.x, position.y)

    def segment_for(self, time: float) -> "Segment":
        # A static node is one eternal pause: depart never comes.
        position = self.position
        infinity = float("inf")
        return (
            0.0,
            infinity,
            infinity,
            position.x,
            position.y,
            position.x,
            position.y,
        )


@dataclass(frozen=True, slots=True)
class Waypoint:
    """One leg of a random-waypoint trace.

    The node sits at ``start`` from ``start_time`` until ``depart_time``
    (the pause), then moves in a straight line, arriving at ``end`` at
    ``arrival_time``.
    """

    start_time: float
    depart_time: float
    arrival_time: float
    start: Position
    end: Position

    def position_at(self, time: float) -> Position:
        if time <= self.depart_time:
            return self.start
        if time >= self.arrival_time:
            return self.end
        travel = self.arrival_time - self.depart_time
        fraction = (time - self.depart_time) / travel if travel > 0 else 1.0
        return self.start.interpolate(self.end, fraction)


class RandomWaypointMobility(MobilityModel):
    """The random-waypoint model with pause time, as used in the paper.

    The trace is extended on demand (and cached) so querying positions is
    O(log n) in the number of generated legs via binary search over arrival
    times; identical seeds produce identical traces.

    Each appended leg is also compiled into a flat tuple ``(depart,
    arrival, sx, sy, ex, ey)`` kept in a list parallel to ``_arrivals``;
    ``position_at_xy`` binary-searches and interpolates over plain floats
    with no :class:`Waypoint` attribute walks.  The interpolation
    expressions are those of :meth:`Waypoint.position_at`, so the returned
    floats are bit-identical to it.
    """

    def __init__(
        self,
        terrain: Terrain,
        rng: random.Random,
        *,
        min_speed: float = 0.0,
        max_speed: float = 20.0,
        pause_time: float = 0.0,
        initial_position: Position | None = None,
    ) -> None:
        if max_speed <= 0:
            raise ValueError("max_speed must be positive")
        if min_speed < 0 or min_speed > max_speed:
            raise ValueError("min_speed must be within [0, max_speed]")
        if pause_time < 0:
            raise ValueError("pause_time must be non-negative")
        self._terrain = terrain
        self._rng = rng
        self._min_speed = min_speed
        self._max_speed = max_speed
        self._pause_time = pause_time
        start = initial_position or terrain.random_position(rng)
        self._legs: List[Waypoint] = []
        # Arrival times of self._legs, kept parallel for bisecting.
        self._arrivals: List[float] = []
        # Precompiled segment table: (depart, arrival, sx, sy, ex, ey) per
        # leg, parallel to _arrivals.
        self._segments: List[Tuple[float, float, float, float, float, float]] = []
        self._append_leg(start_time=0.0, start=start)

    # -- trace construction -------------------------------------------------------

    def _append_leg(self, start_time: float, start: Position) -> None:
        destination = self._terrain.random_position(self._rng)
        # The paper's speeds are uniform in [0, 20] m/s; avoid the degenerate
        # zero speed (a node that never arrives) by flooring at a small value.
        speed = max(self._rng.uniform(self._min_speed, self._max_speed), 0.1)
        depart_time = start_time + self._pause_time
        # A degenerate waypoint (destination equal to the current position)
        # with zero pause would make the leg take no time at all and the trace
        # extension loop would never advance; give every leg a minimal duration.
        travel_time = max(start.distance_to(destination) / speed, 1e-3)
        self._legs.append(
            Waypoint(
                start_time=start_time,
                depart_time=depart_time,
                arrival_time=depart_time + travel_time,
                start=start,
                end=destination,
            )
        )
        self._arrivals.append(depart_time + travel_time)
        self._segments.append(
            (
                depart_time,
                depart_time + travel_time,
                start.x,
                start.y,
                destination.x,
                destination.y,
            )
        )

    def _extend_until(self, time: float) -> None:
        while self._legs[-1].arrival_time < time:
            last = self._legs[-1]
            self._append_leg(start_time=last.arrival_time, start=last.end)

    # -- queries ---------------------------------------------------------------------

    def _leg_at(self, time: float) -> Waypoint:
        if time < 0:
            raise ValueError("time must be non-negative")
        self._extend_until(time)
        # First leg whose arrival time is >= `time` contains `time`.
        index = bisect_left(self._arrivals, time)
        return self._legs[index]

    def position_at(self, time: float) -> Position:
        return self._leg_at(time).position_at(time)

    def position_at_xy(self, time: float) -> Tuple[float, float]:
        # Binary search over the segment table, then Waypoint.position_at's
        # interpolation (with Position.interpolate's clamp) inlined over
        # plain floats, expression for expression.
        if time < 0:
            raise ValueError("time must be non-negative")
        arrivals = self._arrivals
        if arrivals[-1] < time:
            self._extend_until(time)
            arrivals = self._arrivals
        depart, arrival, sx, sy, ex, ey = self._segments[bisect_left(arrivals, time)]
        if time <= depart:
            return (sx, sy)
        if time >= arrival:
            return (ex, ey)
        travel = arrival - depart
        fraction = (time - depart) / travel if travel > 0 else 1.0
        fraction = min(max(fraction, 0.0), 1.0)
        return (sx + (ex - sx) * fraction, sy + (ey - sy) * fraction)

    def segment_for(self, time: float) -> "Segment":
        """The precompiled segment covering ``time``.

        ``valid_from`` is the previous leg's arrival (0 for the first leg):
        at the exact boundary instant both legs evaluate to the same
        coordinates (one leg's end is the next leg's start), so a caller
        holding either segment computes identical floats.
        """
        if time < 0:
            raise ValueError("time must be non-negative")
        arrivals = self._arrivals
        if arrivals[-1] < time:
            self._extend_until(time)
            arrivals = self._arrivals
        index = bisect_left(arrivals, time)
        valid_from = arrivals[index - 1] if index else 0.0
        return (valid_from, *self._segments[index])

    @property
    def pause_time(self) -> float:
        """The configured pause time in seconds."""
        return self._pause_time
