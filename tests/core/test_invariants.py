"""Tests for the Definition 1 invariants and DAG/topological-order checks."""

import networkx as nx
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from repro.core.fractions import ProperFraction
from repro.core.invariants import (
    SuccessorGraphAuditor,
    build_successor_graph,
    check_maintains_order,
    find_cycle,
    find_label_violations,
    is_topologically_ordered,
    maintains_order,
    ordering_maintains_order,
    successor_graph_is_loop_free,
)
from repro.core.labels import UnboundedFractionLabelSet
from repro.core.ordering import UNASSIGNED, Ordering


@pytest.fixture
def label_set():
    return UnboundedFractionLabelSet()


class TestMaintainsOrder:
    def test_all_equations_satisfied(self, label_set):
        assert maintains_order(
            label_set,
            Fraction(1, 2),
            current_label=Fraction(2, 3),
            predecessor_minimum=Fraction(3, 4),
            advertised_label=Fraction(1, 3),
            successor_maximum=Fraction(1, 3),
        )

    def test_eq3_violation_detected(self, label_set):
        violations = check_maintains_order(
            label_set,
            Fraction(3, 4),
            current_label=Fraction(1, 2),
            predecessor_minimum=Fraction(9, 10),
            advertised_label=Fraction(1, 3),
        )
        assert [v.equation for v in violations] == [3]

    def test_eq4_violation_detected(self, label_set):
        violations = check_maintains_order(
            label_set,
            Fraction(1, 2),
            current_label=Fraction(1, 2),
            predecessor_minimum=Fraction(1, 2),
            advertised_label=Fraction(1, 3),
        )
        assert [v.equation for v in violations] == [4]

    def test_eq5_violation_detected(self, label_set):
        violations = check_maintains_order(
            label_set,
            Fraction(1, 3),
            current_label=Fraction(1, 2),
            predecessor_minimum=Fraction(3, 4),
            advertised_label=Fraction(1, 3),
        )
        assert [v.equation for v in violations] == [5]

    def test_eq6_violation_detected(self, label_set):
        violations = check_maintains_order(
            label_set,
            Fraction(1, 2),
            current_label=Fraction(2, 3),
            predecessor_minimum=Fraction(3, 4),
            advertised_label=Fraction(1, 3),
            successor_maximum=Fraction(1, 2),
        )
        assert [v.equation for v in violations] == [6]

    def test_eq6_vacuous_without_successors(self, label_set):
        assert maintains_order(
            label_set,
            Fraction(1, 2),
            current_label=Fraction(2, 3),
            predecessor_minimum=Fraction(3, 4),
            advertised_label=Fraction(1, 3),
            successor_maximum=None,
        )

    def test_multiple_violations_reported(self, label_set):
        violations = check_maintains_order(
            label_set,
            Fraction(9, 10),
            current_label=Fraction(1, 2),
            predecessor_minimum=Fraction(1, 2),
            advertised_label=Fraction(9, 10),
        )
        assert {v.equation for v in violations} == {3, 4, 5}

    def test_violation_str(self, label_set):
        violations = check_maintains_order(
            label_set,
            Fraction(9, 10),
            current_label=Fraction(1, 2),
            predecessor_minimum=Fraction(1, 2),
            advertised_label=Fraction(1, 3),
        )
        assert all("Eq." in str(v) for v in violations)


class TestOrderingMaintainsOrder:
    def test_ordering_version_mirrors_label_version(self):
        new = Ordering(2, ProperFraction(1, 2))
        assert ordering_maintains_order(
            new,
            current_ordering=Ordering(2, ProperFraction(2, 3)),
            predecessor_minimum=Ordering(2, ProperFraction(3, 4)),
            advertised_ordering=Ordering(2, ProperFraction(1, 3)),
            successor_maximum=Ordering(2, ProperFraction(1, 3)),
        )

    def test_fresher_sequence_number_satisfies_eq3_and_eq4(self):
        new = Ordering(3, ProperFraction(9, 10))
        assert ordering_maintains_order(
            new,
            current_ordering=Ordering(2, ProperFraction(1, 100)),
            predecessor_minimum=Ordering(2, ProperFraction(1, 100)),
            advertised_ordering=Ordering(3, ProperFraction(1, 2)),
        )

    def test_stale_new_ordering_rejected(self):
        new = Ordering(1, ProperFraction(1, 2))
        assert not ordering_maintains_order(
            new,
            current_ordering=Ordering(2, ProperFraction(2, 3)),
            predecessor_minimum=UNASSIGNED,
            advertised_ordering=Ordering(1, ProperFraction(1, 3)),
        )


class TestGraphChecks:
    def test_topologically_ordered_path(self, label_set):
        graph = nx.DiGraph([("E", "D"), ("D", "C"), ("C", "T")])
        labels = {
            "E": Fraction(3, 4),
            "D": Fraction(2, 3),
            "C": Fraction(1, 2),
            "T": Fraction(0, 1),
        }
        assert is_topologically_ordered(graph, labels, label_set)
        assert find_label_violations(graph, labels, label_set) == []

    def test_violating_edge_reported(self, label_set):
        graph = nx.DiGraph([("A", "B")])
        labels = {"A": Fraction(1, 2), "B": Fraction(2, 3)}
        assert not is_topologically_ordered(graph, labels, label_set)
        assert find_label_violations(graph, labels, label_set) == [("A", "B")]

    def test_equal_labels_violate_strict_order(self, label_set):
        graph = nx.DiGraph([("A", "B")])
        labels = {"A": Fraction(1, 2), "B": Fraction(1, 2)}
        assert not is_topologically_ordered(graph, labels, label_set)

    def test_loop_free_detection(self):
        dag = nx.DiGraph([("A", "B"), ("B", "C"), ("A", "C")])
        assert successor_graph_is_loop_free(dag)
        cyclic = nx.DiGraph([("A", "B"), ("B", "C"), ("C", "A")])
        assert not successor_graph_is_loop_free(cyclic)

    def test_build_successor_graph_includes_isolated_nodes(self):
        graph = build_successor_graph({"A": ["B"], "C": []})
        assert set(graph.nodes) == {"A", "B", "C"}
        assert set(graph.edges) == {("A", "B")}


class TestFindCycle:
    """The package's own DFS against networkx, which it replaced in ``src/``."""

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.lists(st.integers(min_value=0, max_value=7), max_size=4),
            max_size=8,
        )
    )
    def test_agrees_with_networkx_on_random_digraphs(self, successors):
        graph = build_successor_graph(successors)
        oracle = nx.DiGraph(graph.edges)
        oracle.add_nodes_from(graph.nodes)
        cycle = find_cycle(graph)
        assert bool(cycle) == (not nx.is_directed_acyclic_graph(oracle))
        assert bool(find_cycle(oracle)) == bool(cycle)  # takes either graph type
        if cycle:
            assert all(oracle.has_edge(*edge) for edge in cycle)
            assert [tail for tail, _ in cycle[1:]] == [head for _, head in cycle[:-1]]
            assert cycle[-1][1] == cycle[0][0]

    def test_self_loop_is_a_cycle(self):
        assert find_cycle(build_successor_graph({"A": ["A"]})) == [("A", "A")]

    def test_cycle_behind_a_shared_acyclic_prefix(self):
        graph = build_successor_graph(
            {"S": ["A", "B"], "A": ["T"], "B": ["C"], "C": ["D"], "D": ["B"]}
        )
        assert sorted(find_cycle(graph)) == [("B", "C"), ("C", "D"), ("D", "B")]

    def test_long_chains_need_no_recursion(self):
        chain = {node: [node + 1] for node in range(20_000)}
        assert find_cycle(build_successor_graph(chain)) == []
        chain[20_000] = [0]
        assert len(find_cycle(build_successor_graph(chain))) == 20_001


class TestSuccessorGraphAuditor:
    def test_clean_updates(self, label_set):
        auditor = SuccessorGraphAuditor(label_set)
        auditor.update("A", ["T"], Fraction(1, 2))
        auditor.update("T", [], Fraction(0, 1))
        auditor.update("B", ["A"], Fraction(2, 3))
        assert auditor.is_clean

    def test_cycle_reported(self):
        auditor = SuccessorGraphAuditor()
        auditor.update("A", ["B"])
        auditor.update("B", ["A"])
        assert not auditor.is_clean
        assert any("cycle" in violation for violation in auditor.violations)

    def test_label_order_violation_reported(self, label_set):
        auditor = SuccessorGraphAuditor(label_set)
        auditor.update("T", [], Fraction(0, 1))
        auditor.update("A", ["T"], Fraction(1, 2))
        # B takes A as successor but with a *smaller* label than A: the labels
        # are no longer a topological order even though the graph is acyclic.
        auditor.update("B", ["A"], Fraction(1, 3))
        assert not auditor.is_clean
        assert any("label order" in violation for violation in auditor.violations)

    def test_successor_replacement_clears_old_edges(self, label_set):
        auditor = SuccessorGraphAuditor(label_set)
        auditor.update("A", ["B"], Fraction(2, 3))
        auditor.update("B", [], Fraction(1, 2))
        auditor.update("A", ["C"], Fraction(2, 3))
        auditor.update("C", [], Fraction(1, 3))
        assert auditor.is_clean
