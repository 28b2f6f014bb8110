"""Order-maintenance invariants and DAG verification (Definition 1, Theorem 3).

Definition 1 of the paper ("Maintain Order") lists four inequalities a node
``i`` must satisfy when picking a new label ``G_i`` in response to an
advertisement ``?`` with cached predecessor minimum ``M_i``:

* Eq. 3 — ``G_i <= L_i``: labels are non-increasing over time, so existing
  predecessors stay in order.
* Eq. 4 — ``G_i < M_i``: the advertisement the node relays remains feasible
  for the rest of the reverse path.
* Eq. 5 — ``L_? < G_i``: the advertised label is strictly below the new
  label, so choosing the advertiser as a successor cannot create a loop
  (the analogue of DUAL's SNC).
* Eq. 6 — ``S_max < G_i``: the new label stays above every retained
  successor's label.

This module provides these checks generically over any
:class:`~repro.core.labels.DenseLabelSet`, the specialised version for SRP
orderings, and graph-level verification used by the test-suite and by the
simulator's optional invariant auditor: a labelled digraph is loop-free iff
its labels are a topological order (Theorem 3).

Graphs here are :class:`SuccessorGraph` objects; the checks read only
``nodes``, ``edges`` and ``successors(node)``, which ``networkx.DiGraph``
offers under the same names, so callers that already hold one may pass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from .labels import DenseLabelSet
from .ordering import Ordering

__all__ = [
    "OrderViolation",
    "SuccessorGraph",
    "check_maintains_order",
    "maintains_order",
    "ordering_maintains_order",
    "is_topologically_ordered",
    "find_label_violations",
    "find_cycle",
    "successor_graph_is_loop_free",
]

L = TypeVar("L")
NodeId = Hashable


@dataclass(frozen=True, slots=True)
class OrderViolation:
    """One violated inequality from Definition 1, for diagnostics."""

    equation: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        return f"Eq. {self.equation} violated: {self.message}"


def check_maintains_order(
    label_set: DenseLabelSet[L],
    new_label: L,
    *,
    current_label: L,
    predecessor_minimum: L,
    advertised_label: L,
    successor_maximum: Optional[L] = None,
) -> list[OrderViolation]:
    """Evaluate Eqs. 3–6 and return the list of violations (empty = order kept).

    ``successor_maximum`` is ``None`` when the node has no retained successors,
    in which case Eq. 6 is vacuously satisfied (the paper treats an empty
    successor table as having the least element as its maximum).
    """
    violations: list[OrderViolation] = []
    if not label_set.less_equal(new_label, current_label):
        violations.append(
            OrderViolation(3, f"new label {new_label!r} > current {current_label!r}")
        )
    if not label_set.less(new_label, predecessor_minimum):
        violations.append(
            OrderViolation(
                4,
                f"new label {new_label!r} >= predecessor minimum "
                f"{predecessor_minimum!r}",
            )
        )
    if not label_set.less(advertised_label, new_label):
        violations.append(
            OrderViolation(
                5,
                f"advertised label {advertised_label!r} >= new label {new_label!r}",
            )
        )
    if successor_maximum is not None and not label_set.less(
        successor_maximum, new_label
    ):
        violations.append(
            OrderViolation(
                6,
                f"successor maximum {successor_maximum!r} >= new label "
                f"{new_label!r}",
            )
        )
    return violations


def maintains_order(
    label_set: DenseLabelSet[L],
    new_label: L,
    *,
    current_label: L,
    predecessor_minimum: L,
    advertised_label: L,
    successor_maximum: Optional[L] = None,
) -> bool:
    """True when ``new_label`` satisfies all of Eqs. 3–6 (Definition 1)."""
    return not check_maintains_order(
        label_set,
        new_label,
        current_label=current_label,
        predecessor_minimum=predecessor_minimum,
        advertised_label=advertised_label,
        successor_maximum=successor_maximum,
    )


def ordering_maintains_order(
    new_ordering: Ordering,
    *,
    current_ordering: Ordering,
    predecessor_minimum: Ordering,
    advertised_ordering: Ordering,
    successor_maximum: Optional[Ordering] = None,
) -> bool:
    """Definition 1 specialised to SRP's composite ordering.

    In SRP ``A ≺ B`` reads "B is a feasible in-order successor for A", i.e.
    B's label is *smaller* (closer to the destination) in SLR terms.  The four
    label inequalities therefore translate to:

    * Eq. 3 ``G <= L``   ⇔  ``G == L`` or ``L ≺ G``
    * Eq. 4 ``G <  M``   ⇔  ``M ≺ G``
    * Eq. 5 ``L_? < G``  ⇔  ``G ≺ L_?``
    * Eq. 6 ``S_max < G``⇔  ``G ≺ S_max``
    """
    # Eq. 3: G <= L  (new label no greater than current) — in SRP terms the
    # current ordering must consider the new one a feasible (or equal) value:
    eq3 = new_ordering == current_ordering or current_ordering.precedes(new_ordering)
    # Eq. 4: G < M  (strictly below the cached predecessor minimum).
    eq4 = predecessor_minimum.precedes(new_ordering)
    # Eq. 5: L_? < G  (the advertised ordering is strictly below the new one).
    eq5 = new_ordering.precedes(advertised_ordering)
    # Eq. 6: S_max < G  (every retained successor is strictly below).
    eq6 = True
    if successor_maximum is not None:
        eq6 = new_ordering.precedes(successor_maximum)
    return eq3 and eq4 and eq5 and eq6


@dataclass(frozen=True, slots=True)
class SuccessorGraph:
    """A directed graph as ``{node: its successors}``, every node a key."""

    adjacency: Mapping[NodeId, Tuple[NodeId, ...]]

    @property
    def nodes(self) -> List[NodeId]:
        """Every vertex, successor-less ones included."""
        return list(self.adjacency)

    @property
    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Every directed edge ``(node, successor)``."""
        return [
            (node, successor)
            for node, successors in self.adjacency.items()
            for successor in successors
        ]

    def successors(self, node: NodeId) -> Iterator[NodeId]:
        """The heads of ``node``'s outgoing edges."""
        return iter(self.adjacency[node])


def is_topologically_ordered(
    graph: SuccessorGraph,
    labels: Mapping[NodeId, L],
    label_set: DenseLabelSet[L],
) -> bool:
    """True iff for every directed edge ``(i, j)``, ``label(j) < label(i)``.

    This is the paper's (reversed-sense) definition of topological order: edges
    point from larger labels toward smaller labels, with the destination at
    the minimum.
    """
    return not find_label_violations(graph, labels, label_set)


def find_label_violations(
    graph: SuccessorGraph,
    labels: Mapping[NodeId, L],
    label_set: DenseLabelSet[L],
) -> list[Tuple[NodeId, NodeId]]:
    """All edges ``(i, j)`` whose labels are *not* strictly decreasing."""
    violations: list[Tuple[NodeId, NodeId]] = []
    for i, j in graph.edges:
        if not label_set.less(labels[j], labels[i]):
            violations.append((i, j))
    return violations


def find_cycle(graph: SuccessorGraph) -> List[Tuple[NodeId, NodeId]]:
    """The edges of one directed cycle of ``graph``; ``[]`` when it has none.

    Iterative depth-first search: an edge into a node that is still on the
    current search path closes a cycle.
    """
    finished: Set[NodeId] = set()
    for root in graph.nodes:
        if root in finished:
            continue
        path = [root]
        on_path = {root}
        pending = [graph.successors(root)]
        while pending:
            for successor in pending[-1]:
                if successor in on_path:
                    cycle = path[path.index(successor) :] + [successor]
                    return list(zip(cycle, cycle[1:]))
                if successor not in finished:
                    path.append(successor)
                    on_path.add(successor)
                    pending.append(graph.successors(successor))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.remove(node)
                finished.add(node)
    return []


def successor_graph_is_loop_free(graph: SuccessorGraph) -> bool:
    """True when the successor digraph contains no directed cycle.

    Used by tests and the simulation invariant auditor: Theorem 3 states that
    if every node maintains order the successor graph is a DAG, so a cycle
    here indicates a protocol bug.
    """
    return not find_cycle(graph)


def build_successor_graph(
    successors: Mapping[NodeId, Iterable[NodeId]]
) -> SuccessorGraph:
    """Assemble a digraph from a node -> successor-set mapping.

    Every key becomes a vertex even if it currently has no successors, so the
    auditor also sees nodes with invalid routes.
    """
    adjacency: Dict[NodeId, Tuple[NodeId, ...]] = {
        node: tuple(dict.fromkeys(nexthops)) for node, nexthops in successors.items()
    }
    for nexthops in list(adjacency.values()):
        for nexthop in nexthops:
            adjacency.setdefault(nexthop, ())
    return SuccessorGraph(adjacency)


class SuccessorGraphAuditor(Generic[L]):
    """Incrementally tracks per-destination successor graphs and checks them.

    The simulator can attach one auditor per destination; every time a routing
    protocol changes a successor set the auditor re-checks acyclicity and (when
    labels are supplied) the topological-order condition.  Violations are
    collected rather than raised so a long simulation can report every breach.
    """

    def __init__(self, label_set: Optional[DenseLabelSet[L]] = None) -> None:
        self._label_set = label_set
        self._successors: Dict[NodeId, set] = {}
        self._labels: Dict[NodeId, L] = {}
        self.violations: list[str] = []

    def update(
        self,
        node: NodeId,
        successors: Iterable[NodeId],
        label: Optional[L] = None,
    ) -> None:
        """Record the node's new successor set (and label) and re-audit."""
        self._successors[node] = set(successors)
        if label is not None:
            self._labels[node] = label
        self._audit()

    def _audit(self) -> None:
        cycle = find_cycle(build_successor_graph(self._successors))
        if cycle:
            self.violations.append(f"successor cycle detected: {cycle}")
        if self._label_set is not None and self._labels:
            labelled = build_successor_graph(
                {
                    node: [s for s in successors if s in self._labels]
                    for node, successors in self._successors.items()
                    if node in self._labels
                }
            )
            bad = find_label_violations(labelled, self._labels, self._label_set)
            if bad:
                self.violations.append(f"label order violated on edges: {bad}")

    @property
    def is_clean(self) -> bool:
        """True when no violation has been observed so far."""
        return not self.violations
