"""Terrain geometry: positions, distances and the rectangular simulation area.

The paper's evaluation uses a 2200 m x 600 m rectangle.  Positions are plain
immutable points; the terrain knows how to clamp and to draw uniform random
positions from a supplied random stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["Position", "Terrain"]


@dataclass(frozen=True, slots=True)
class Position:
    """A point in the 2-D terrain, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def interpolate(self, other: "Position", fraction: float) -> "Position":
        """The point ``fraction`` of the way from here to ``other`` (0..1)."""
        fraction = min(max(fraction, 0.0), 1.0)
        return Position(
            self.x + (other.x - self.x) * fraction,
            self.y + (other.y - self.y) * fraction,
        )


@dataclass(frozen=True, slots=True)
class Terrain:
    """A rectangular simulation area with its origin at (0, 0)."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("terrain dimensions must be positive")

    def contains(self, position: Position) -> bool:
        """True when the position lies inside (or on the border of) the area."""
        return 0.0 <= position.x <= self.width and 0.0 <= position.y <= self.height

    def random_position(self, rng: random.Random) -> Position:
        """A uniformly distributed point inside the terrain."""
        return Position(rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))
