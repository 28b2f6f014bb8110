"""Run-time routing-invariant monitoring.

The paper's central claim is *instantaneous* loop freedom: at no point in time
may the successor graph for any destination contain a cycle.  The
:class:`LoopFreedomMonitor` lets integration tests and failure-injection
experiments assert exactly that while a trial runs: protocols (or tests) call
:meth:`record_successors` whenever a routing table changes, and the monitor
re-checks acyclicity of the per-destination successor graph.

It is intentionally decoupled from the protocol implementations — any protocol
exposing its next-hop sets can be audited, which is how the tests demonstrate
that AODV-style baselines *can* transiently violate what SRP guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Set

from ..core.invariants import SuccessorGraph, build_successor_graph, find_cycle

__all__ = ["LoopFreedomMonitor", "LoopViolation"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class LoopViolation:
    """One observed successor-graph cycle."""

    time: float
    destination: NodeId
    cycle: tuple

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        return f"t={self.time:.3f}s dest={self.destination!r} cycle={self.cycle}"


class LoopFreedomMonitor:
    """Tracks per-destination successor sets and records any cycle."""

    def __init__(self) -> None:
        self._successors: Dict[NodeId, Dict[NodeId, Set[NodeId]]] = {}
        self.violations: List[LoopViolation] = []
        self.checks = 0

    def record_successors(
        self,
        time: float,
        destination: NodeId,
        node: NodeId,
        successors: Iterable[NodeId],
    ) -> None:
        """Update ``node``'s successor set toward ``destination`` and re-check."""
        per_destination = self._successors.setdefault(destination, {})
        per_destination[node] = set(successors)
        self._check(time, destination)

    def _check(self, time: float, destination: NodeId) -> None:
        self.checks += 1
        cycle = find_cycle(self.successor_graph(destination))
        if cycle:
            self.violations.append(LoopViolation(time, destination, tuple(cycle)))

    @property
    def is_clean(self) -> bool:
        """True when no routing loop has ever been observed."""
        return not self.violations

    def successor_graph(self, destination: NodeId) -> SuccessorGraph:
        """The most recent successor graph recorded for ``destination``."""
        return build_successor_graph(self._successors.get(destination, {}))
