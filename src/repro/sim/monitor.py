"""Run-time routing-invariant monitoring.

The paper's central claim is *instantaneous* loop freedom: at no point in time
may the successor graph for any destination contain a cycle.  The
:class:`LoopFreedomMonitor` checks exactly that, on demand, while a trial
runs.  It keeps no route state of its own: each check reads every node's
``successors(destination)`` — a query every protocol answers — so the tests
can audit SRP and measure the baselines that *can* transiently loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Set, Tuple

__all__ = [
    "LoopFreedomMonitor",
    "LoopViolation",
    "build_successor_graph",
    "find_cycle",
]

NodeId = Hashable

#: A directed graph as ``{node: its successors}``, every node a key.
SuccessorGraph = Dict[NodeId, Tuple[NodeId, ...]]


def build_successor_graph(
    successors: Mapping[NodeId, Iterable[NodeId]],
) -> SuccessorGraph:
    """Assemble a digraph from a node -> successor-set mapping.

    Every key becomes a vertex even if it currently has no successors, and
    so does every successor named only as one.
    """
    graph: SuccessorGraph = {
        node: tuple(dict.fromkeys(nexthops)) for node, nexthops in successors.items()
    }
    for nexthops in list(graph.values()):
        for nexthop in nexthops:
            graph.setdefault(nexthop, ())
    return graph


def find_cycle(graph: SuccessorGraph) -> List[Tuple[NodeId, NodeId]]:
    """The edges of one directed cycle of ``graph``; ``[]`` when it has none.

    Iterative depth-first search: an edge into a node that is still on the
    current search path closes a cycle.  ``graph`` must name every node as a
    key (:func:`build_successor_graph` guarantees it).
    """
    finished: Set[NodeId] = set()
    for root in graph:
        if root in finished:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(graph[root])]
        while pending:
            for successor in pending[-1]:
                if successor in on_path:
                    cycle = path[path.index(successor) :] + [successor]
                    return list(zip(cycle, cycle[1:]))
                if successor not in finished:
                    path.append(successor)
                    on_path.add(successor)
                    pending.append(iter(graph[successor]))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.remove(node)
                finished.add(node)
    return []


@dataclass(frozen=True, slots=True)
class LoopViolation:
    """One observed successor-graph cycle."""

    time: float
    destination: NodeId
    cycle: tuple

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        return f"t={self.time:.3f}s dest={self.destination!r} cycle={self.cycle}"


class LoopFreedomMonitor:
    """Checks the protocols' own successor sets for cycles, on demand.

    ``protocols`` maps each node id to its routing protocol (anything with a
    ``successors(destination)`` method); every node id is a destination.
    """

    def __init__(self, protocols: Mapping[NodeId, Any]) -> None:
        self._protocols = protocols
        self.violations: List[LoopViolation] = []
        self.checks = 0

    def check(self, time: float) -> List[LoopViolation]:
        """Record and return one violation per destination whose graph is cyclic."""
        self.checks += 1
        found = []
        for destination in self._protocols:
            cycle = find_cycle(self.successor_graph(destination))
            if cycle:
                found.append(LoopViolation(time, destination, tuple(cycle)))
        self.violations.extend(found)
        return found

    @property
    def is_clean(self) -> bool:
        """True when no routing loop has ever been observed."""
        return not self.violations

    def successor_graph(self, destination: NodeId) -> SuccessorGraph:
        """The successor graph toward ``destination`` as the protocols hold it now."""
        return build_successor_graph(
            {
                node: protocol.successors(destination)
                for node, protocol in self._protocols.items()
            }
        )
