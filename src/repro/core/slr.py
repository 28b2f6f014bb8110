"""Abstract Split Label Routing (Section II of the paper).

This module implements the *generic* SLR route-computation machinery over any
:class:`~repro.core.labels.DenseLabelSet`: the per-destination node state
(label, successor table, cached predecessor minimum), the request / reply
relabelling rules of Section II, and a small synchronous network model that
replays route computations over an undirected connectivity graph.  It is the
executable form of Examples 1 and 2 and of Theorems 1–4, independent of any
packet format, MAC layer or timing — the full asynchronous protocol (SRP) lives
in :mod:`repro.protocols.srp` and runs inside the discrete-event simulator.

The synchronous model is deliberately simple: a request floods hop by hop
carrying the running minimum label ``M``; the first node able to reply
(the destination, or a node with a feasible label and a non-empty successor
set) issues an advertisement that walks back along the reverse path, each hop
choosing a new label per Definition 1 (splitting the cached ``M`` and the
advertised label when necessary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .invariants import (
    SuccessorGraph,
    build_successor_graph,
    find_label_violations,
    maintains_order,
    successor_graph_is_loop_free,
)
from .labels import DenseLabelSet, LabelSplitError

__all__ = [
    "SlrNodeState",
    "SlrRouteComputation",
    "SlrNetwork",
    "RouteComputationResult",
]

L = TypeVar("L")
NodeId = Hashable

#: Undirected connectivity as ``{node: its neighbours}``.  Only membership and
#: ``graph[node]`` are read, so a ``networkx.Graph`` serves as well as a dict.
Connectivity = Mapping[NodeId, Iterable[NodeId]]


@dataclass
class SlrNodeState(Generic[L]):
    """Per-destination SLR state at one node.

    ``label`` is ``L_i``; ``successor_labels`` is the table ``S_i`` mapping
    each successor to the label it advertised; ``cached_minimum`` is ``M_i``,
    the minimum predecessor label cached from the most recent request this
    node relayed.
    """

    label: L
    successor_labels: Dict[NodeId, L] = field(default_factory=dict)
    cached_minimum: Optional[L] = None
    reply_last_hop: Optional[NodeId] = None

    def successor_maximum(self, label_set: DenseLabelSet[L]) -> Optional[L]:
        """``S_max`` — the greatest label among current successors, if any."""
        if not self.successor_labels:
            return None
        return label_set.maximum(self.successor_labels.values())

    @property
    def has_route(self) -> bool:
        """True when the successor table is non-empty (an *active* route)."""
        return bool(self.successor_labels)


@dataclass(frozen=True, slots=True)
class RouteComputationResult:
    """Outcome of one request/reply pass through :class:`SlrRouteComputation`."""

    succeeded: bool
    replier: Optional[NodeId]
    request_path: Tuple[NodeId, ...]
    reply_path: Tuple[NodeId, ...]
    relabelled: Tuple[NodeId, ...]


class SlrNetwork(Generic[L]):
    """A set of SLR nodes sharing one destination and one dense label set.

    The network holds per-node state for a *single* destination (the paper
    considers one arbitrary destination; a routing protocol runs one instance
    per destination).  The connectivity graph is supplied per computation so
    tests can model topology changes between route requests (Example 2 adds
    nodes F, G, H after the initial DAG of Example 1 exists).
    """

    def __init__(
        self,
        label_set: DenseLabelSet[L],
        destination: NodeId,
        *,
        destination_label: Optional[L] = None,
    ) -> None:
        self._label_set = label_set
        self._destination = destination
        self._states: Dict[NodeId, SlrNodeState[L]] = {}
        initial = (
            destination_label if destination_label is not None else label_set.least()
        )
        if label_set.is_greatest(initial):
            raise ValueError("the destination may take any label except the greatest")
        self._states[destination] = SlrNodeState(label=initial)

    # -- accessors -----------------------------------------------------------

    @property
    def label_set(self) -> DenseLabelSet[L]:
        """The dense ordinal set labelling this network."""
        return self._label_set

    @property
    def destination(self) -> NodeId:
        """The destination all labels order toward."""
        return self._destination

    def state(self, node: NodeId) -> SlrNodeState[L]:
        """The node's state, creating unassigned state on first access."""
        if node not in self._states:
            self._states[node] = SlrNodeState(label=self._label_set.greatest())
        return self._states[node]

    def label(self, node: NodeId) -> L:
        """The node's current label (the greatest element when unassigned)."""
        return self.state(node).label

    def labels(self) -> Dict[NodeId, L]:
        """Snapshot of every known node's label."""
        return {node: state.label for node, state in self._states.items()}

    def successors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """The node's current successor set for the destination."""
        return tuple(self.state(node).successor_labels)

    def successor_graph(self) -> SuccessorGraph:
        """The successor digraph over all known nodes."""
        return build_successor_graph(
            {node: state.successor_labels for node, state in self._states.items()}
        )

    # -- invariants ------------------------------------------------------------

    def is_loop_free(self) -> bool:
        """Theorem 3 check: the successor graph is acyclic."""
        return successor_graph_is_loop_free(self.successor_graph())

    def is_topologically_ordered(self) -> bool:
        """Every successor edge points from a larger label to a smaller one."""
        graph = self.successor_graph()
        return not find_label_violations(graph, self.labels(), self._label_set)

    # -- topology events -------------------------------------------------------

    def fail_link(self, node: NodeId, successor: NodeId) -> None:
        """Remove a successor link, e.g. after a link-layer loss report."""
        self.state(node).successor_labels.pop(successor, None)

    def clear_successors(self, node: NodeId) -> None:
        """Invalidate the node's route (empty successor set); label is kept,
        as Definition 3 requires labels to be cached after routes go invalid."""
        self.state(node).successor_labels.clear()

    # -- route computation -----------------------------------------------------

    def compute_route(
        self,
        origin: NodeId,
        graph: Connectivity,
        *,
        request_path: Optional[Sequence[NodeId]] = None,
    ) -> RouteComputationResult:
        """Run one request/reply computation from ``origin`` toward the destination.

        If ``request_path`` is given it must be a simple path starting at
        ``origin``; otherwise the request follows a breadth-first flood and the
        reply returns along the tree branch that first reached a node able to
        answer.  Returns a :class:`RouteComputationResult`; on success every
        node along the reply path holds a feasible successor toward the
        destination and all invariants are preserved.
        """
        computation = SlrRouteComputation(self, graph)
        if request_path is not None:
            return computation.run_on_path(list(request_path))
        return computation.run_flood(origin)


class SlrRouteComputation(Generic[L]):
    """One request/reply pass over an :class:`SlrNetwork` (Section II rules)."""

    def __init__(self, network: SlrNetwork[L], graph: Connectivity) -> None:
        self._network = network
        self._graph = graph
        self._label_set = network.label_set

    # -- request phase ---------------------------------------------------------

    def run_flood(self, origin: NodeId) -> RouteComputationResult:
        """Flood the request breadth-first and reply along the discovered branch."""
        if origin not in self._graph:
            raise ValueError(f"origin {origin!r} is not in the connectivity graph")
        label_set = self._label_set
        network = self._network
        origin_label = network.label(origin)

        # Breadth-first propagation; each node processes the request once,
        # caching the running minimum M and the last hop for the reverse path.
        minimum_at: Dict[NodeId, L] = {origin: origin_label}
        parent: Dict[NodeId, Optional[NodeId]] = {origin: None}
        frontier: List[NodeId] = [origin]
        replier: Optional[NodeId] = None

        while frontier and replier is None:
            next_frontier: List[NodeId] = []
            for node in frontier:
                request_label = minimum_at[node]
                for neighbor in self._graph[node]:
                    if neighbor in parent:
                        continue
                    parent[neighbor] = node
                    state = network.state(neighbor)
                    state.cached_minimum = request_label
                    state.reply_last_hop = node
                    minimum_at[neighbor] = label_set.minimum(
                        [request_label, state.label]
                    )
                    if self._can_reply(neighbor, request_label):
                        replier = neighbor
                        break
                    next_frontier.append(neighbor)
                if replier is not None:
                    break
            frontier = next_frontier

        request_nodes = tuple(parent)
        if replier is None:
            return RouteComputationResult(False, None, request_nodes, (), ())

        reply_path = self._reverse_path(replier, parent)
        relabelled = self._run_reply(reply_path)
        return RouteComputationResult(
            True, replier, request_nodes, tuple(reply_path), relabelled
        )

    def run_on_path(self, path: List[NodeId]) -> RouteComputationResult:
        """Run the computation along an explicit request path ``v_k .. v_0``.

        The last element must be able to reply (it is the destination or has a
        feasible label with an active route); this mirrors the hop-by-hop
        narrative of Examples 1 and 2.
        """
        if len(path) < 2:
            raise ValueError("a request path needs at least two nodes")
        label_set = self._label_set
        network = self._network

        minimum = network.label(path[0])
        for previous, node in zip(path, path[1:]):
            state = network.state(node)
            state.cached_minimum = minimum
            state.reply_last_hop = previous
            if self._can_reply(node, minimum):
                reply_path = list(reversed(path[: path.index(node) + 1]))
                relabelled = self._run_reply(reply_path)
                return RouteComputationResult(
                    True, node, tuple(path), tuple(reply_path), relabelled
                )
            minimum = label_set.minimum([minimum, state.label])
        return RouteComputationResult(False, None, tuple(path), (), ())

    # -- reply phase -------------------------------------------------------------

    def _run_reply(self, reply_path: Sequence[NodeId]) -> Tuple[NodeId, ...]:
        """Walk the advertisement along ``reply_path`` (replier first).

        Each hop applies Definition 1: keep the current label when it already
        satisfies the cached minimum, otherwise split the advertised label and
        the cached minimum (or take the next-element when unconstrained).
        """
        label_set = self._label_set
        network = self._network
        relabelled: List[NodeId] = []

        advertiser = reply_path[0]
        advertised = network.label(advertiser)

        for node in reply_path[1:]:
            state = network.state(node)
            cached_minimum = (
                state.cached_minimum
                if state.cached_minimum is not None
                else label_set.greatest()
            )
            if not label_set.less(advertised, state.label):
                # Infeasible advertisement at this hop: if the node still has a
                # route it could re-advertise its own label; in the synchronous
                # model we simply stop the reply here.
                break
            new_label = self._choose_label(state, cached_minimum, advertised)
            if new_label is None:
                break
            if not label_set.equal(new_label, state.label):
                relabelled.append(node)
            state.label = new_label
            state.successor_labels[advertiser] = advertised
            # Drop successors the new label can no longer keep in order (Eq. 6).
            for successor, successor_label in list(state.successor_labels.items()):
                if not label_set.less(successor_label, new_label):
                    del state.successor_labels[successor]
            advertiser = node
            advertised = new_label
        return tuple(relabelled)

    def _choose_label(
        self, state: SlrNodeState[L], cached_minimum: L, advertised: L
    ) -> Optional[L]:
        """Pick ``G`` per Definition 1, or ``None`` when no label exists."""
        label_set = self._label_set
        successor_maximum = state.successor_maximum(label_set)

        def acceptable(candidate: L) -> bool:
            # Definition 1 requires a *finite* new label (G < the greatest
            # element); Eq. 6 is handled by dropping out-of-order successors
            # after relabelling, as Theorem 4's proof allows.
            if label_set.is_greatest(candidate):
                return False
            return maintains_order(
                label_set,
                candidate,
                current_label=state.label,
                predecessor_minimum=cached_minimum,
                advertised_label=advertised,
                successor_maximum=None,
            )

        # Keep the current label when it already maintains order (Example 2:
        # nodes G and H keep 2/3 and 3/4).
        if acceptable(state.label):
            return state.label

        upper = state.label
        if label_set.less(cached_minimum, upper):
            upper = cached_minimum
        try:
            if label_set.is_greatest(upper):
                candidate = label_set.next_element(advertised)
                if not label_set.less(candidate, upper):
                    candidate = label_set.split(advertised, upper)
            else:
                candidate = label_set.split(advertised, upper)
        except (LabelSplitError, ValueError):
            return None
        return candidate if acceptable(candidate) else None

    # -- helpers ------------------------------------------------------------------

    def _can_reply(self, node: NodeId, request_label: L) -> bool:
        """The destination always replies; other nodes need a feasible label
        (strictly below the request minimum) and an active route."""
        network = self._network
        if node == network.destination:
            return True
        state = network.state(node)
        return state.has_route and self._label_set.less(state.label, request_label)

    @staticmethod
    def _reverse_path(
        replier: NodeId, parent: Dict[NodeId, Optional[NodeId]]
    ) -> List[NodeId]:
        path = [replier]
        node = replier
        while parent[node] is not None:
            node = parent[node]
            path.append(node)
        return path
