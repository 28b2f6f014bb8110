"""Tests for the SRP composite ordering (Definitions 4–7 of the paper)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fractions import ProperFraction, UINT32_MAX
from repro.core.ordering import UNASSIGNED, Ordering, ordering_max, ordering_min


def proper_fractions(max_term: int = 200):
    return st.builds(
        lambda d, m: ProperFraction(m % (d + 1), d),
        st.integers(min_value=1, max_value=max_term),
        st.integers(min_value=0, max_value=max_term),
    )


def orderings(max_sn: int = 5, max_term: int = 200):
    """Hypothesis strategy over valid (possibly unassigned) orderings."""
    return st.builds(
        Ordering,
        st.integers(min_value=0, max_value=max_sn),
        proper_fractions(max_term),
    )


#: Definition 5 case by case: (A, B, whether A ≺ B), each as (sn, (m, n)).
DEFINITION_5 = [
    pytest.param((1, (1, 2)), (2, (1, 2)), True, id="eq7-fresher-sn"),
    pytest.param((2, (1, 2)), (1, (1, 2)), False, id="eq7-staler-sn"),
    pytest.param((1, (1, 2)), (1, (1, 3)), True, id="eq8-smaller-fraction"),
    pytest.param((1, (1, 3)), (1, (1, 2)), False, id="eq8-larger-fraction"),
    pytest.param((1, (1, 2)), (1, (2, 4)), False, id="equal-value-other-terms"),
    pytest.param((0, (1, 1)), (0, (1, 2)), True, id="unassigned-to-sn0-finite"),
    pytest.param((0, (1, 1)), (1, (0, 1)), True, id="unassigned-to-destination"),
    pytest.param((1, (0, 1)), (1, (0, 1)), False, id="destination-to-itself"),
    pytest.param((1, (0, 1)), (2, (99, 100)), True, id="fresher-sn-beats-destination"),
    pytest.param((3, (1, 1)), (3, (1, 2)), True, id="infinite-label-at-sn"),
]


class TestConstruction:
    def test_unassigned_sentinel(self):
        assert UNASSIGNED == Ordering(0, ProperFraction(1, 1))
        assert UNASSIGNED.is_unassigned
        assert not UNASSIGNED.is_finite

    def test_destination_label(self):
        dest = Ordering.destination(7)
        assert dest.sequence_number == 7
        assert dest.fraction == ProperFraction.zero()
        assert dest.is_finite

    def test_destination_requires_nonzero_sequence_number(self):
        with pytest.raises(ValueError):
            Ordering.destination(0)

    def test_rejects_negative_sequence_number(self):
        with pytest.raises(ValueError):
            Ordering(-1, ProperFraction(1, 2))

    def test_equality_and_hash_by_fraction_value(self):
        a = Ordering(2, ProperFraction(1, 2))
        b = Ordering(2, ProperFraction(2, 4))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Ordering(3, ProperFraction(1, 2))


class TestOrderingCriteria:
    """Definition 5: A ≺ B iff sn_A < sn_B, or sn equal and F_B < F_A."""

    def test_higher_sequence_number_supersedes(self):
        older = Ordering(1, ProperFraction(1, 10))
        fresher = Ordering(2, ProperFraction(9, 10))
        assert older.precedes(fresher)
        assert not fresher.precedes(older)

    def test_equal_sequence_number_smaller_fraction_precedes(self):
        far = Ordering(3, ProperFraction(3, 4))
        near = Ordering(3, ProperFraction(1, 4))
        assert far.precedes(near)
        assert not near.precedes(far)

    def test_never_precedes_itself(self):
        value = Ordering(3, ProperFraction(1, 4))
        assert not value.precedes(value)

    def test_unassigned_is_maximum(self):
        """Any assigned node is a feasible successor for an unassigned one."""
        assigned = Ordering(1, ProperFraction(1, 2))
        assert UNASSIGNED.precedes(assigned)
        assert not assigned.precedes(UNASSIGNED)

    def test_destination_is_feasible_for_everyone(self):
        dest = Ordering.destination(1)
        others = [
            UNASSIGNED,
            Ordering(1, ProperFraction(1, 2)),
            Ordering(1, ProperFraction(1, 1000)),
        ]
        for other in others:
            assert other.precedes(dest)

    @given(orderings(), orderings())
    def test_strict_partial_order_asymmetry(self, a, b):
        if a.precedes(b):
            assert not b.precedes(a)

    @given(orderings(), orderings(), orderings())
    def test_strict_partial_order_transitivity(self, a, b, c):
        if a.precedes(b) and b.precedes(c):
            assert a.precedes(c)

    @given(orderings())
    def test_irreflexive(self, a):
        assert not a.precedes(a)

    @pytest.mark.parametrize("a, b, expected", DEFINITION_5)
    def test_definition5_table(self, a, b, expected):
        first = Ordering(a[0], ProperFraction(*a[1]))
        second = Ordering(b[0], ProperFraction(*b[1]))
        assert first.precedes(second) is expected

    @given(orderings(), orderings())
    def test_precedes_is_the_lexicographic_key_order(self, a, b):
        """A ≺ B exactly when (sn_A, -F_A) < (sn_B, -F_B)."""

        def key(ordering):
            return (ordering.sequence_number, -ordering.fraction.as_fraction())

        assert a.precedes(b) == (key(a) < key(b))

    @given(orderings(), orderings())
    def test_distinct_orderings_are_comparable(self, a, b):
        """≺ is total on values: of two unequal orderings, one precedes."""
        assert (a == b) == (not a.precedes(b) and not b.precedes(a))

    @given(orderings())
    def test_unassigned_precedes_every_other_ordering(self, a):
        assert UNASSIGNED.precedes(a) == (a != UNASSIGNED)

    @given(orderings())
    def test_destination_has_no_successor_at_or_below_its_sequence_number(self, a):
        """Definition 7: ``(sn, 0/1)`` is least at its sn, so nothing at that
        sn or an older one is a feasible successor of the destination."""
        destination = Ordering.destination(max(a.sequence_number, 1))
        assert not destination.precedes(a)


class TestMinMax:
    def test_ordering_min_returns_feasible_successor(self):
        """The paper: min{O_A, O_B} returns O_B if O_A ≺ O_B else O_A."""
        far = Ordering(1, ProperFraction(3, 4))
        near = Ordering(1, ProperFraction(1, 4))
        assert ordering_min(far, near) == near
        assert ordering_min(near, far) == near

    def test_ordering_min_prefers_fresher_sequence_number(self):
        stale = Ordering(1, ProperFraction(1, 100))
        fresh = Ordering(2, ProperFraction(99, 100))
        assert ordering_min(stale, fresh) == fresh

    def test_ordering_max(self):
        far = Ordering(1, ProperFraction(3, 4))
        near = Ordering(1, ProperFraction(1, 4))
        assert ordering_max(far, near) == far

    @given(orderings(), orderings())
    def test_min_and_max_partition_the_pair(self, a, b):
        low, high = ordering_min(a, b), ordering_max(a, b)
        assert {low, high} <= {a, b}
        if a != b:
            # When comparable, max ≺ min (min is closer to the destination).
            if a.precedes(b) or b.precedes(a):
                assert high.precedes(low) or high == low

    @given(orderings(), orderings())
    def test_min_and_max_are_commutative(self, a, b):
        assert ordering_min(a, b) == ordering_min(b, a)
        assert ordering_max(a, b) == ordering_max(b, a)

    @given(orderings(), orderings(), orderings())
    def test_ordering_min_is_associative(self, a, b, c):
        """Eq. 10 folds the minimum hop by hop along a request path; the
        order of the folding does not matter."""
        assert ordering_min(ordering_min(a, b), c) == ordering_min(
            a, ordering_min(b, c)
        )

    @given(orderings(), orderings())
    def test_neither_argument_is_a_successor_of_the_minimum(self, a, b):
        """The minimum is the label closest to the destination."""
        low = ordering_min(a, b)
        assert not low.precedes(a)
        assert not low.precedes(b)


class TestOrderingAddition:
    """Definition 6: O + p/q keeps the sequence number and mediants the fraction."""

    def test_plus_fraction(self):
        value = Ordering(4, ProperFraction(1, 3))
        result = value.plus_fraction(ProperFraction(1, 2))
        assert result == Ordering(4, ProperFraction(2, 5))

    def test_plus_larger_fraction_precedes_original(self):
        """If m/n < p/q then O + p/q ≺ O (Definition 6's closing remark)."""
        value = Ordering(4, ProperFraction(1, 3))
        result = value.plus_fraction(ProperFraction(1, 2))
        assert result.precedes(value)

    def test_next_element_is_plus_one_over_one(self):
        value = Ordering(4, ProperFraction(1, 3))
        assert value.next_element() == Ordering(4, ProperFraction(2, 4))

    @given(orderings(), proper_fractions())
    def test_plus_a_larger_fraction_always_precedes_the_original(self, value, addend):
        if value.is_finite and value.fraction < addend:
            result = value.plus_fraction(addend, limit=None)
            assert result.sequence_number == value.sequence_number
            assert result.precedes(value)

    @given(orderings())
    def test_next_element_keeps_the_sn_and_stays_finite(self, value):
        if value.is_finite:
            following = value.next_element(limit=None)
            assert following.sequence_number == value.sequence_number
            assert following.is_finite
            assert following.precedes(value)

    def test_addition_requires_finite_ordering(self):
        with pytest.raises(ValueError):
            UNASSIGNED.plus_fraction(ProperFraction(1, 2))

    def test_would_overflow_with(self):
        near_limit = Ordering(1, ProperFraction(1, UINT32_MAX))
        other = Ordering(1, ProperFraction(1, 2))
        assert near_limit.would_overflow_with(other)
        assert not other.would_overflow_with(other)
