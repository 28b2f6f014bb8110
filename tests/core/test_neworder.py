"""Tests for Algorithm 1 (NEWORDER), the paper's Example 2 and Theorem 6."""

from typing import Optional

import pytest
from hypothesis import assume, given, strategies as st

from repro.core.fractions import ProperFraction, UINT32_MAX
from repro.core.neworder import (
    new_order,
    new_order_for_rreq_advertisement,
)
from repro.core.ordering import UNASSIGNED, Ordering, ordering_min


def ordering_maintains_order(
    new_ordering: Ordering,
    *,
    current_ordering: Ordering,
    predecessor_minimum: Ordering,
    advertised_ordering: Ordering,
    successor_maximum: Optional[Ordering] = None,
) -> bool:
    """Definition 1 ("Maintain Order"), Eqs. 3-6, in SRP's composite ordering.

    ``A ≺ B`` reads "B is a feasible in-order successor for A", i.e. B's label
    is *smaller* (closer to the destination) in Section II's label terms, so:

    * Eq. 3 ``G <= L``    ⇔  ``G == L`` or ``L ≺ G``
    * Eq. 4 ``G <  M``    ⇔  ``M ≺ G``
    * Eq. 5 ``L_? < G``   ⇔  ``G ≺ L_?``
    * Eq. 6 ``S_max < G`` ⇔  ``G ≺ S_max`` (vacuous without successors)
    """
    eq3 = new_ordering == current_ordering or current_ordering.precedes(new_ordering)
    eq4 = predecessor_minimum.precedes(new_ordering)
    eq5 = new_ordering.precedes(advertised_ordering)
    eq6 = successor_maximum is None or new_ordering.precedes(successor_maximum)
    return eq3 and eq4 and eq5 and eq6


def finite_orderings(max_sn: int = 4, max_term: int = 64):
    fractions = st.builds(
        lambda d, m: ProperFraction(m % d, d),
        st.integers(min_value=2, max_value=max_term),
        st.integers(min_value=0, max_value=max_term),
    )
    return st.builds(Ordering, st.integers(min_value=1, max_value=max_sn), fractions)


def any_orderings(max_sn: int = 4, max_term: int = 64):
    return st.one_of(st.just(UNASSIGNED), finite_orderings(max_sn, max_term))


class TestAlgorithmCases:
    def test_case2_fresher_sequence_number_takes_next_element(self):
        """Line 5: node and predecessor both at older sn -> advertised + 1/1."""
        current = Ordering(1, ProperFraction(1, 2))
        cached = Ordering(1, ProperFraction(3, 4))
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order(current, cached, advertised)
        assert result.case == "line5"
        assert result.ordering == Ordering(2, ProperFraction(2, 4))

    def test_case3_same_request_sequence_number_splits(self):
        """Line 7: cached predecessor at the advertised sn -> mediant split."""
        current = Ordering(1, ProperFraction(1, 2))
        cached = Ordering(2, ProperFraction(3, 4))
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order(current, cached, advertised)
        assert result.case == "line7"
        assert result.ordering == Ordering(2, ProperFraction(4, 7))

    def test_case4_keeps_current_label_when_already_ordered(self):
        """Line 10: the current label already satisfies the cached predecessor."""
        current = Ordering(2, ProperFraction(1, 2))
        cached = Ordering(2, ProperFraction(3, 4))
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order(current, cached, advertised)
        assert result.case == "line10"
        assert result.ordering == current

    def test_case5_splits_when_current_label_out_of_order(self):
        """Line 12: current label not below cached predecessor -> split."""
        current = Ordering(2, ProperFraction(4, 5))
        cached = Ordering(2, ProperFraction(3, 4))
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order(current, cached, advertised)
        assert result.case == "line12"
        assert result.ordering == Ordering(2, ProperFraction(4, 7))

    def test_case1_stale_advertisement_returns_unordered(self):
        """An advertisement with an older sn than the node is infeasible."""
        current = Ordering(3, ProperFraction(1, 2))
        cached = UNASSIGNED
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order(current, cached, advertised)
        assert not result.is_finite
        assert result.ordering == UNASSIGNED

    def test_overflow_returns_unordered(self):
        """32-bit overflow of the fraction split -> drop the advertisement."""
        near_limit = ProperFraction(UINT32_MAX - 1, UINT32_MAX)
        current = Ordering(2, near_limit)
        cached = Ordering(2, near_limit)
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order(current, cached, advertised, limit=UINT32_MAX)
        assert not result.is_finite
        assert result.case == "overflow"

    def test_overflow_at_line5_returns_unordered(self):
        """The next element of an advertisement at the limit does not fit."""
        current = Ordering(1, ProperFraction(1, 2))
        cached = Ordering(1, ProperFraction(3, 4))
        advertised = Ordering(2, ProperFraction(UINT32_MAX - 1, UINT32_MAX))
        result = new_order(current, cached, advertised)
        assert result.case == "overflow"
        assert result.ordering == UNASSIGNED

    def test_overflow_at_line7_returns_unordered(self):
        current = Ordering(1, ProperFraction(1, 2))
        cached = Ordering(2, ProperFraction(UINT32_MAX - 1, UINT32_MAX))
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order(current, cached, advertised)
        assert result.case == "overflow"
        assert result.ordering == UNASSIGNED

    def test_small_limit_triggers_overflow(self):
        current = Ordering(2, ProperFraction(5, 6))
        cached = Ordering(2, ProperFraction(5, 6))
        advertised = Ordering(2, ProperFraction(4, 6))
        result = new_order(current, cached, advertised, limit=10)
        assert not result.is_finite

    def test_unassigned_node_with_fresh_advertisement(self):
        """A node with no label adopts the next-element of the advertisement."""
        result = new_order(UNASSIGNED, UNASSIGNED, Ordering.destination(1))
        assert result.is_finite
        assert result.ordering == Ordering(1, ProperFraction(1, 2))


class TestOrderingMaintainsOrder:
    """The Definition 1 helper itself, so Theorem 6 below cannot pass
    vacuously."""

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

    @pytest.mark.parametrize(
        "broken, value",
        [
            ("current_ordering", (1, 3)),  # Eq. 3: the label would grow
            ("predecessor_minimum", (1, 2)),  # Eq. 4: not below M
            ("advertised_ordering", (1, 2)),  # Eq. 5: not above the advert
            ("successor_maximum", (1, 2)),  # Eq. 6: not above S_max
        ],
    )
    def test_each_equation_rejects_on_its_own(self, broken, value):
        holds = dict(
            current_ordering=Ordering(2, ProperFraction(2, 3)),
            predecessor_minimum=Ordering(2, ProperFraction(3, 4)),
            advertised_ordering=Ordering(2, ProperFraction(1, 3)),
            successor_maximum=Ordering(2, ProperFraction(1, 3)),
        )
        new = Ordering(2, ProperFraction(1, 2))
        assert ordering_maintains_order(new, **holds)
        holds[broken] = Ordering(2, ProperFraction(*value))
        assert not ordering_maintains_order(new, **holds)


def label(m: int, n: int) -> Ordering:
    return Ordering(1, ProperFraction(m, n))


class TestExample2:
    """Fig. 2: F, G and H once had routes to T (labels, no successors) and H
    solicits again.  The request travels H -> G -> F -> B, and A, already at
    1/2 from Example 1, answers.  Only B and F relabel."""

    REQUEST_PATH = ["H", "G", "F", "B"]

    @staticmethod
    def initial_labels():
        return {
            "A": label(1, 2),
            "B": label(2, 3),
            "F": label(2, 3),
            "G": label(2, 3),
            "H": label(3, 4),
        }

    def request_walk(self, labels):
        """Eq. 10: each relay caches the ordering it received and relays the
        minimum of it and its own; the terminus H caches nothing.  Returns
        the cached orderings and the minimum that reaches A."""
        cached = {"H": UNASSIGNED}
        carried = labels["H"]
        for node in self.REQUEST_PATH[1:]:
            cached[node] = carried
            carried = ordering_min(labels[node], carried)
        return cached, carried

    def reply_walk(self, successors=None):
        """Procedures 3-4: the reply walks back from A, each hop
        re-advertising its own new ordering.  Returns the final labels and,
        per hop from B back to H, the :func:`new_order` result."""
        labels = self.initial_labels()
        cached, _ = self.request_walk(labels)
        advertised = labels["A"]
        results = []
        for node in reversed(self.REQUEST_PATH):
            result = new_order(
                labels[node], cached[node], advertised, (successors or {}).get(node)
            )
            assert ordering_maintains_order(
                result.ordering,
                current_ordering=labels[node],
                predecessor_minimum=cached[node],
                advertised_ordering=advertised,
            )
            labels[node] = advertised = result.ordering
            results.append(result)
        return labels, results

    def test_request_carries_the_eq10_minimum(self):
        cached, carried = self.request_walk(self.initial_labels())
        assert cached == {
            "H": UNASSIGNED,
            "G": label(3, 4),
            "F": label(2, 3),
            "B": label(2, 3),
        }
        assert carried == label(2, 3)
        assert carried.precedes(label(1, 2))  # so A satisfies the SDC

    def test_reply_walk_relabels_b_and_f_only(self):
        labels, results = self.reply_walk()
        cases = [result.case for result in results]
        assert cases == ["line12", "line12", "line10", "line10"]  # B, F, G, H
        assert labels == {
            "A": label(1, 2),
            "B": label(3, 5),
            "F": label(5, 8),
            "G": label(2, 3),
            "H": label(3, 4),
        }
        # The raw mediant terms, not just equal values.
        assert [labels[node].fraction.as_tuple() for node in "BF"] == [(3, 5), (5, 8)]

    def test_topological_order_matches_paper(self):
        """H 3/4, G 2/3, F 5/8, B 3/5, A 1/2, T 0/1: each hop along the new
        route is a feasible successor of the one before (Eq. 5)."""
        labels, _ = self.reply_walk()
        labels["T"] = Ordering.destination(1)
        route = [labels[node] for node in ["H", "G", "F", "B", "A", "T"]]
        assert all(far.precedes(near) for far, near in zip(route, route[1:]))

    def test_all_new_nodes_have_routes(self):
        """Every hop accepts the reply, and B keeps its Example 1 successor A
        under its new label (line 13 drops nothing)."""
        _, results = self.reply_walk(successors={"B": {"A": label(1, 2)}})
        assert all(result.is_finite for result in results)
        assert [result.dropped_successors for result in results] == [()] * 4


class TestSuccessorElimination:
    def test_out_of_order_successors_are_dropped(self):
        """Line 13: successors the new label cannot keep in order are eliminated."""
        current = Ordering(1, ProperFraction(1, 2))
        cached = UNASSIGNED
        advertised = Ordering(2, ProperFraction(1, 3))
        successors = {
            "keep": Ordering(2, ProperFraction(1, 5)),
            "drop-stale": Ordering(1, ProperFraction(1, 5)),
        }
        result = new_order(current, cached, advertised, successors)
        assert result.is_finite
        assert "drop-stale" in result.dropped_successors
        assert "keep" not in result.dropped_successors

    def test_successor_map_is_not_mutated(self):
        successors = {"x": Ordering(1, ProperFraction(1, 5))}
        snapshot = dict(successors)
        new_order(
            Ordering(1, ProperFraction(1, 2)),
            UNASSIGNED,
            Ordering(2, ProperFraction(1, 3)),
            successors,
        )
        assert successors == snapshot


class TestRreqAdvertisementVariant:
    def test_uses_unassigned_cached_ordering(self):
        current = Ordering(1, ProperFraction(1, 2))
        advertised = Ordering(2, ProperFraction(1, 3))
        direct = new_order(current, UNASSIGNED, advertised)
        via_helper = new_order_for_rreq_advertisement(current, advertised)
        assert direct.ordering == via_helper.ordering

    def test_keeps_label_when_already_fresher_or_equal(self):
        current = Ordering(2, ProperFraction(1, 2))
        advertised = Ordering(2, ProperFraction(1, 3))
        result = new_order_for_rreq_advertisement(current, advertised)
        assert result.ordering == current


class TestAlgorithmShape:
    """Properties of Algorithm 1 that hold for every input, Facts or not."""

    @given(any_orderings(), any_orderings(), finite_orderings())
    def test_finite_results_take_the_advertised_sequence_number(
        self, current, cached, advertised
    ):
        result = new_order(current, cached, advertised)
        if result.is_finite:
            assert result.ordering.sequence_number == advertised.sequence_number

    @given(any_orderings(), any_orderings(), finite_orderings())
    def test_case_follows_the_sequence_number_comparison(
        self, current, cached, advertised
    ):
        case = new_order(current, cached, advertised).case
        if current.sequence_number < advertised.sequence_number:
            assert case in {"line5", "line7", "overflow"}
        elif current.sequence_number == advertised.sequence_number:
            assert case in {"line10", "line12", "overflow"}
        else:
            assert case == "unordered"

    @given(
        any_orderings(),
        any_orderings(),
        finite_orderings(),
        st.integers(min_value=16, max_value=256),
    )
    def test_a_larger_limit_keeps_every_finite_result(
        self, current, cached, advertised, limit
    ):
        """A split that fits a small limit fits the 32-bit one unchanged, so
        a tighter ``fraction_limit`` can only turn results into drops."""
        small = new_order(current, cached, advertised, limit=limit)
        if small.is_finite:
            full = new_order(current, cached, advertised)
            assert full.case == small.case
            assert full.ordering == small.ordering
            assert full.ordering.fraction.as_tuple() == (
                small.ordering.fraction.as_tuple()
            )

    @given(any_orderings(), finite_orderings())
    def test_rreq_variant_is_new_order_without_a_cached_solicitation(
        self, current, advertised
    ):
        assert new_order_for_rreq_advertisement(current, advertised) == new_order(
            current, UNASSIGNED, advertised
        )

    @given(
        any_orderings(),
        any_orderings(),
        finite_orderings(),
        st.dictionaries(
            st.integers(min_value=0, max_value=5), finite_orderings(), max_size=4
        ),
    )
    def test_dropped_successors_are_exactly_the_out_of_order_ones(
        self, current, cached, advertised, successors
    ):
        """Line 13 drops every successor the new label cannot keep, and no
        other."""
        result = new_order(current, cached, advertised, successors)
        if result.is_finite:
            assert set(result.dropped_successors) == {
                node
                for node, ordering in successors.items()
                if not result.ordering.precedes(ordering)
            }
        else:
            assert result.dropped_successors == ()


class TestTheorem6:
    """Every finite result of Algorithm 1 maintains order (Eqs. 3-6).

    The theorem's proof rests on two operational preconditions ("Facts"):

    * Fact 1 — the advertisement is feasible at the node (``O_A ≺ O_?``), which
      Procedure 3 guarantees before calling Algorithm 1;
    * Fact 2 — the cached solicitation ordering precedes the advertisement
      (``C_A_? ≺ O_?``), which holds because the reply was issued for a label
      below the minimum carried in the request.

    The property tests therefore restrict generated inputs to those
    preconditions, exactly as the protocol does.
    """

    @staticmethod
    def _facts_hold(current, cached, advertised):
        fact1 = current == UNASSIGNED or current.precedes(advertised)
        fact2 = cached == UNASSIGNED or cached.precedes(advertised)
        return fact1 and fact2

    @given(any_orderings(), any_orderings(), finite_orderings())
    def test_finite_results_maintain_order(self, current, cached, advertised):
        assume(self._facts_hold(current, cached, advertised))
        result = new_order(current, cached, advertised)
        if not result.is_finite:
            return
        assert ordering_maintains_order(
            result.ordering,
            current_ordering=current,
            predecessor_minimum=cached,
            advertised_ordering=advertised,
            successor_maximum=None,
        )

    @given(any_orderings(), any_orderings(), finite_orderings())
    def test_result_is_feasible_successor_relationship(
        self, current, cached, advertised
    ):
        """Eq. 5 specifically: the advertiser is a feasible successor of the
        new label, so adopting it can never create a loop (Theorem 2)."""
        assume(self._facts_hold(current, cached, advertised))
        result = new_order(current, cached, advertised)
        if result.is_finite:
            assert result.ordering.precedes(advertised)

    @given(
        any_orderings(),
        any_orderings(),
        finite_orderings(),
        st.dictionaries(
            st.integers(min_value=0, max_value=5), finite_orderings(), max_size=4
        ),
    )
    def test_retained_successors_remain_in_order(
        self, current, cached, advertised, successors
    ):
        result = new_order(current, cached, advertised, successors)
        if not result.is_finite:
            return
        for node, ordering in successors.items():
            if node not in result.dropped_successors:
                assert result.ordering.precedes(ordering)

    @given(any_orderings(), any_orderings(), finite_orderings())
    def test_labels_never_increase(self, current, cached, advertised):
        """Eq. 3 across the algorithm: a finite result never moves the node
        farther from the destination than it already was."""
        assume(self._facts_hold(current, cached, advertised))
        result = new_order(current, cached, advertised)
        if result.is_finite and result.ordering != current:
            assert current.precedes(result.ordering)
