"""Tests for the abstract SLR route computation (Section II, Examples 1 and 2)."""

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labels import (
    BoundedFractionLabelSet,
    LexicographicLabelSet,
    UnboundedFractionLabelSet,
)
from repro.core.slr import SlrNetwork


def path_graph(nodes):
    return nx.path_graph(list(nodes))


class TestInitialization:
    def test_destination_gets_least_label_by_default(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        assert network.label("T") == Fraction(0, 1)

    def test_destination_may_take_custom_label(self):
        network = SlrNetwork(
            UnboundedFractionLabelSet(), "T", destination_label=Fraction(1, 4)
        )
        assert network.label("T") == Fraction(1, 4)

    def test_destination_cannot_take_greatest_label(self):
        with pytest.raises(ValueError):
            SlrNetwork(
                UnboundedFractionLabelSet(), "T", destination_label=Fraction(1, 1)
            )

    def test_unknown_nodes_are_unassigned(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        assert network.label("X") == Fraction(1, 1)
        assert not network.state("X").has_route


class TestExample1:
    """Fig. 1: E requests a route to T over the chain E-D-C-B-A-T."""

    def test_final_labels_match_paper(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        graph = path_graph(["E", "D", "C", "B", "A", "T"])
        result = network.compute_route(
            "E", graph, request_path=["E", "D", "C", "B", "A", "T"]
        )
        assert result.succeeded
        assert result.replier == "T"
        assert network.label("A") == Fraction(1, 2)
        assert network.label("B") == Fraction(2, 3)
        assert network.label("C") == Fraction(3, 4)
        assert network.label("D") == Fraction(4, 5)
        assert network.label("E") == Fraction(5, 6)

    def test_every_node_gains_a_successor_path(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        graph = path_graph(["E", "D", "C", "B", "A", "T"])
        network.compute_route("E", graph, request_path=["E", "D", "C", "B", "A", "T"])
        assert network.successors("A") == ("T",)
        assert network.successors("B") == ("A",)
        assert network.successors("E") == ("D",)

    def test_invariants_hold_after_computation(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        graph = path_graph(["E", "D", "C", "B", "A", "T"])
        network.compute_route("E", graph, request_path=["E", "D", "C", "B", "A", "T"])
        assert network.is_loop_free()
        assert network.is_topologically_ordered()

    def test_flood_variant_reaches_destination(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        graph = path_graph(["E", "D", "C", "B", "A", "T"])
        result = network.compute_route("E", graph)
        assert result.succeeded
        assert network.state("E").has_route
        assert network.is_topologically_ordered()


class TestExample2:
    """Fig. 2: nodes F, G, H join an existing DAG; only B and F relabel."""

    @pytest.fixture
    def network(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        # Establish the Example 1 DAG on the A-B portion.
        chain = path_graph(["E", "D", "C", "B", "A", "T"])
        network.compute_route("E", chain, request_path=["E", "D", "C", "B", "A", "T"])
        # F, G and H once knew routes to T: they carry labels but have empty
        # successor sets (invalid routes).
        network.state("F").label = Fraction(2, 3)
        network.state("G").label = Fraction(2, 3)
        network.state("H").label = Fraction(3, 4)
        return network

    def test_relabelling_matches_paper(self, network):
        graph = path_graph(["H", "G", "F", "B", "A", "T"])
        result = network.compute_route(
            "H", graph, request_path=["H", "G", "F", "B", "A"]
        )
        assert result.succeeded
        assert result.replier == "A"
        # The reply splits labels at B and F; G and H keep their labels.
        assert network.label("B") == Fraction(3, 5)
        assert network.label("F") == Fraction(5, 8)
        assert network.label("G") == Fraction(2, 3)
        assert network.label("H") == Fraction(3, 4)
        assert set(result.relabelled) == {"B", "F"}

    def test_topological_order_matches_paper(self, network):
        graph = path_graph(["H", "G", "F", "B", "A", "T"])
        network.compute_route("H", graph, request_path=["H", "G", "F", "B", "A"])
        ordered = [
            network.label(node) for node in ["H", "G", "F", "B", "A", "T"]
        ]
        assert ordered == [
            Fraction(3, 4),
            Fraction(2, 3),
            Fraction(5, 8),
            Fraction(3, 5),
            Fraction(1, 2),
            Fraction(0, 1),
        ]
        assert network.is_topologically_ordered()
        assert network.is_loop_free()

    def test_all_new_nodes_have_routes(self, network):
        graph = path_graph(["H", "G", "F", "B", "A", "T"])
        network.compute_route("H", graph, request_path=["H", "G", "F", "B", "A"])
        for node in ["F", "G", "H"]:
            assert network.state(node).has_route


class TestBoundedAndLexicographicSets:
    def test_example1_with_bounded_fractions(self):
        network = SlrNetwork(BoundedFractionLabelSet(), "T")
        graph = path_graph(["E", "D", "C", "B", "A", "T"])
        result = network.compute_route(
            "E", graph, request_path=["E", "D", "C", "B", "A", "T"]
        )
        assert result.succeeded
        assert network.is_topologically_ordered()

    def test_example1_with_lexicographic_labels(self):
        network = SlrNetwork(LexicographicLabelSet(), "T")
        graph = path_graph(["E", "D", "C", "B", "A", "T"])
        result = network.compute_route(
            "E", graph, request_path=["E", "D", "C", "B", "A", "T"]
        )
        assert result.succeeded
        assert network.is_topologically_ordered()
        assert network.is_loop_free()


class TestLinkFailuresAndRepair:
    def test_route_error_and_recompute(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        graph = nx.Graph(
            [("S", "A"), ("A", "T"), ("S", "B"), ("B", "T")]
        )
        assert network.compute_route("S", graph).succeeded
        # Fail the link S currently uses; S loses its only successor.
        used = network.successors("S")[0]
        network.fail_link("S", used)
        assert not network.state("S").has_route
        # A new computation over the surviving topology restores a route
        # without ever breaking the DAG invariants.
        surviving = graph.copy()
        surviving.remove_edge("S", used)
        result = network.compute_route("S", surviving)
        assert result.succeeded
        assert network.state("S").has_route
        assert network.is_loop_free()
        assert network.is_topologically_ordered()

    def test_clear_successors_keeps_label(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        graph = path_graph(["S", "A", "T"])
        network.compute_route("S", graph)
        label_before = network.label("S")
        network.clear_successors("S")
        assert network.label("S") == label_before
        assert not network.state("S").has_route

    def test_failed_request_reports_no_route(self):
        network = SlrNetwork(UnboundedFractionLabelSet(), "T")
        # The destination is unreachable from S.
        graph = nx.Graph([("S", "A"), ("B", "T")])
        result = network.compute_route("S", graph)
        assert not result.succeeded
        assert result.replier is None
        assert not network.state("S").has_route


class TestRandomizedLoopFreedom:
    """Theorem 3 as a property: random topologies and repeated route
    computations never produce a successor cycle or break topological order."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=4, max_value=12),
        st.floats(min_value=0.2, max_value=0.7),
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_random_route_computations_stay_loop_free(
        self, node_count, edge_probability, requesters, rng
    ):
        graph = nx.gnp_random_graph(
            node_count, edge_probability, seed=rng.randint(0, 2**31)
        )
        network = SlrNetwork(UnboundedFractionLabelSet(), 0)
        for requester in requesters:
            origin = requester % node_count
            if origin == 0 or origin not in graph:
                continue
            network.compute_route(origin, graph)
            assert network.is_loop_free()
            assert network.is_topologically_ordered()

    @given(
        st.integers(min_value=4, max_value=12),
        st.floats(min_value=0.2, max_value=0.7),
        st.randoms(use_true_random=False),
    )
    def test_a_plain_adjacency_dict_floods_like_a_networkx_graph(
        self, node_count, edge_probability, rng
    ):
        graph = nx.gnp_random_graph(
            node_count, edge_probability, seed=rng.randint(0, 2**31)
        )
        adjacency = {node: list(graph[node]) for node in graph}
        over_graph = SlrNetwork(UnboundedFractionLabelSet(), 0)
        over_dict = SlrNetwork(UnboundedFractionLabelSet(), 0)
        for origin in range(1, node_count):
            expected = over_graph.compute_route(origin, graph)
            assert over_dict.compute_route(origin, adjacency) == expected
        assert over_dict.labels() == over_graph.labels()
        assert over_dict.successor_graph() == over_graph.successor_graph()

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=5, max_value=10),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_interleaved_failures_stay_loop_free(self, node_count, failures, rng):
        graph = nx.gnp_random_graph(node_count, 0.5, seed=rng.randint(0, 2**31))
        network = SlrNetwork(UnboundedFractionLabelSet(), 0)
        for origin in range(1, node_count):
            if origin in graph:
                network.compute_route(origin, graph)
        for node, successor in failures:
            if node < node_count and successor < node_count:
                network.fail_link(node, successor)
            # Re-request from the failed node when possible.
            if node in graph and node != 0:
                network.compute_route(node, graph)
            assert network.is_loop_free()
            assert network.is_topologically_ordered()
