"""Deterministic random-number streams.

The paper runs 10 trials per data point, each with off-line generated mobility
and traffic scripts shared by every protocol in that trial, so protocol
differences are not confounded with random-draw differences.  We achieve the
same by deriving *named* child streams from a single trial seed: the mobility
stream, the traffic stream and each protocol's jitter stream are independent
``random.Random`` instances whose seeds depend only on ``(trial_seed, name)``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngStreams", "derive_seed"]


def derive_seed(base_seed: int, name: str) -> int:
    """A stable 64-bit seed derived from ``base_seed`` and a stream name."""
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A family of independent, reproducible random streams.

    ``streams.get("mobility")`` always returns the same generator object for a
    given instance, and generators created from equal ``(base_seed, name)``
    pairs produce identical sequences across runs and platforms.
    """

    def __init__(self, base_seed: int) -> None:
        self._base_seed = base_seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """The named stream, created on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self._base_seed, name))
        return self._streams[name]
