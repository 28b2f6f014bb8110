"""Unit and property tests for the proper-fraction arithmetic (Eqs. 1 and 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fractions import (
    DEFAULT_MAX_DENOMINATOR,
    UINT32_MAX,
    FractionOverflowError,
    ProperFraction,
    fibonacci_split_bound,
    max_split_depth,
)
from repro.core.ordering import Ordering

ZERO = ProperFraction.zero()
ONE = ProperFraction.one()


def proper_fractions(max_value: int = 10_000):
    """Hypothesis strategy producing valid proper fractions m/n with m <= n."""
    return st.builds(
        lambda d, m: ProperFraction(m % (d + 1), d),
        st.integers(min_value=1, max_value=max_value),
        st.integers(min_value=0, max_value=max_value),
    )


class TestConstruction:
    def test_zero_and_one_constructors(self):
        assert ZERO.as_tuple() == (0, 1)
        assert ONE.as_tuple() == (1, 1)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ProperFraction(1, 0)

    def test_rejects_negative_denominator(self):
        with pytest.raises(ValueError):
            ProperFraction(1, -2)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ProperFraction(-1, 2)

    def test_rejects_improper_fraction(self):
        with pytest.raises(ValueError):
            ProperFraction(3, 2)

    def test_as_tuple_preserves_raw_terms(self):
        assert ProperFraction(2, 4).as_tuple() == (2, 4)


class TestOrdering:
    def test_basic_comparisons(self):
        assert ProperFraction(1, 2) < ProperFraction(2, 3)
        assert ProperFraction(2, 3) > ProperFraction(1, 2)
        assert ProperFraction(1, 2) <= ProperFraction(1, 2)
        assert ProperFraction(1, 2) >= ProperFraction(1, 2)

    def test_equality_is_by_value_not_representation(self):
        assert ProperFraction(1, 2) == ProperFraction(2, 4)
        assert hash(ProperFraction(1, 2)) == hash(ProperFraction(2, 4))

    def test_zero_is_least_one_is_greatest(self):
        middle = ProperFraction(3, 7)
        assert ZERO < middle < ONE

    @given(proper_fractions(), proper_fractions())
    def test_trichotomy(self, a, b):
        outcomes = [a < b, a == b, b < a]
        assert sum(outcomes) == 1

    @given(proper_fractions(), proper_fractions(), proper_fractions())
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(proper_fractions(), proper_fractions())
    def test_comparison_matches_exact_fractions(self, a, b):
        assert (a < b) == (a.as_fraction() < b.as_fraction())

    def test_comparison_is_exact_where_floats_tie(self):
        """Definition 4 compares by cross-multiplication: two labels whose
        floating-point values are both 1.0 still order correctly."""
        low = ProperFraction(2**53, 2**53 + 1)
        high = ProperFraction(2**53 + 1, 2**53 + 2)
        assert low.numerator / low.denominator == high.numerator / high.denominator
        assert low < high
        assert low != high

    @given(proper_fractions(), proper_fractions())
    def test_equal_values_hash_equal(self, a, b):
        if a == b:
            assert hash(a) == hash(b)


class TestPredicates:
    def test_is_one(self):
        assert ONE.is_one
        assert ProperFraction(4, 4).is_one
        assert not ProperFraction(3, 4).is_one

    def test_is_finite(self):
        assert ProperFraction(3, 4).is_finite
        assert not ONE.is_finite

    def test_fits(self):
        assert ProperFraction(1, 2).fits()
        assert not ProperFraction(1, UINT32_MAX + 1).fits()
        assert not ProperFraction(5, 10).fits(limit=4)


class TestMediant:
    def test_eq1_mediant_lies_strictly_between(self):
        low, high = ProperFraction(1, 2), ProperFraction(2, 3)
        mid = low.mediant_with(high)
        assert low < mid < high
        assert mid == ProperFraction(3, 5)

    def test_mediant_of_bounds_is_one_half(self):
        assert ZERO.mediant_with(ONE) == ProperFraction(1, 2)

    @given(proper_fractions(), proper_fractions())
    def test_eq1_property(self, a, b):
        if a < b:
            mid = a.mediant_with(b, limit=None)
            assert a < mid < b

    @given(proper_fractions(), proper_fractions())
    def test_mediant_is_symmetric(self, a, b):
        assert (
            a.mediant_with(b, limit=None).as_tuple()
            == b.mediant_with(a, limit=None).as_tuple()
        )

    def test_mediant_overflow_raises(self):
        huge = ProperFraction(UINT32_MAX - 1, UINT32_MAX)
        with pytest.raises(FractionOverflowError):
            huge.mediant_with(ProperFraction(1, 2))

    def test_mediant_unlimited_does_not_raise(self):
        huge = ProperFraction(UINT32_MAX - 1, UINT32_MAX)
        result = huge.mediant_with(ProperFraction(1, 2), limit=None)
        assert result.denominator == UINT32_MAX + 2

    def test_would_overflow_with(self):
        huge = ProperFraction(UINT32_MAX - 1, UINT32_MAX)
        assert huge.would_overflow_with(ProperFraction(1, 2))
        assert not ProperFraction(1, 2).would_overflow_with(ProperFraction(1, 3))

    @given(
        proper_fractions(),
        proper_fractions(),
        st.integers(min_value=2, max_value=20_000),
    )
    def test_would_overflow_with_predicts_mediant_with(self, a, b, limit):
        """Procedure 2's T-bit check and the split agree on every pair."""
        if a.would_overflow_with(b, limit):
            with pytest.raises(FractionOverflowError):
                a.mediant_with(b, limit=limit)
        else:
            assert a.mediant_with(b, limit=limit).fits(limit)


class TestDensity:
    """Section II asks that the label set be dense: between two labels
    ``a < b`` there is always a third.  SRP's split is the mediant (Eq. 1)."""

    def test_split_strictly_between(self):
        mid = ZERO.mediant_with(ONE)
        assert ZERO < mid < ONE

    def test_split_requires_strict_order(self):
        """Eq. 1 holds for ``a < b`` only: the mediant of two terms of one
        value is that value, so there is nothing between them to take."""
        half = ProperFraction(1, 2)
        assert half.mediant_with(ProperFraction(2, 4)) == half

    @pytest.mark.parametrize("toward", ["low", "high", "alternating"])
    def test_repeated_splits_stay_ordered(self, toward):
        """Thirty splits toward either bound, or alternating between them,
        each land strictly inside the interval they split."""
        low, high = ZERO, ONE
        for step in range(30):
            mid = low.mediant_with(high)
            assert low < mid < high
            if toward == "low" or (toward == "alternating" and step % 2 == 0):
                high = mid
            else:
                low = mid

    @given(st.lists(st.booleans(), max_size=40))
    def test_random_split_walk_stays_ordered(self, directions):
        """Narrowing either bound at random never yields an out-of-order label."""
        low, high = ZERO, ONE
        for go_low in directions:
            mid = low.mediant_with(high, limit=None)
            assert low < mid < high
            if go_low:
                high = mid
            else:
                low = mid


class TestBoundedSplits:
    """SRP's fractions are bounded (32-bit fields, or
    ``SrpConfig.fraction_limit``): a split whose terms would pass the limit
    raises instead of wrapping around."""

    def test_split_below_limit_matches_mediant(self):
        split = ProperFraction(1, 2).mediant_with(ProperFraction(2, 3), limit=100)
        assert split.as_tuple() == (3, 5)

    def test_split_overflow_raises(self):
        with pytest.raises(FractionOverflowError):
            ProperFraction(5, 6).mediant_with(ProperFraction(6, 7), limit=10)

    def test_next_element_overflow_raises(self):
        with pytest.raises(FractionOverflowError):
            Ordering(1, ProperFraction(9, 10)).next_element(limit=10)

    def test_limit_is_inclusive(self):
        assert ZERO.mediant_with(ProperFraction(4, 9), limit=10).as_tuple() == (4, 10)
        with pytest.raises(FractionOverflowError):
            ZERO.mediant_with(ProperFraction(4, 9), limit=9)


class TestNextElement:
    """Eq. 2 on the type SRP calls it on: ``O + 1/1`` keeps the sn."""

    def test_eq2_next_element(self):
        labels = [Ordering(1, ZERO)]
        for _ in range(2):
            labels.append(labels[-1].next_element())
        assert [o.fraction.as_tuple() for o in labels] == [(0, 1), (1, 2), (2, 3)]

    def test_next_element_is_mediant_with_one(self):
        value = ProperFraction(3, 7)
        assert Ordering(2, value).next_element() == Ordering(2, value.mediant_with(ONE))

    @given(proper_fractions())
    def test_next_element_strictly_greater_but_below_one(self, value):
        if value.is_one:
            return
        nxt = Ordering(1, value).next_element(limit=None).fraction
        assert value < nxt < ONE

    def test_repeated_next_element_builds_example1_labels(self):
        """Example 1's labels, T outward: each hop takes the next element of
        its successor's label, so the node k hops out holds k/(k+1)."""
        labels = [Ordering.destination(1)]
        for _ in range(5):
            labels.append(labels[-1].next_element())
        assert [o.fraction.as_tuple() for o in labels] == [
            (0, 1),  # T
            (1, 2),  # A
            (2, 3),  # B
            (3, 4),  # C
            (4, 5),  # D
            (5, 6),  # E
        ]
        assert {o.sequence_number for o in labels} == {1}


class TestSplitDepth:
    def test_paper_bound_at_least_45_splits(self):
        """The paper: at least 45 splits fit in 32-bit fields."""
        assert fibonacci_split_bound(UINT32_MAX) >= 45

    def test_fibonacci_bound_small_limit(self):
        # Denominators 2,3,5,8,13 fit under 13 -> 5 splits.
        assert fibonacci_split_bound(13) == 5

    @pytest.mark.parametrize("limit", [2, 16, 1000, 2**16])
    def test_max_split_depth_small_limit(self, limit):
        # Splitting 0/1 against the moving upper bound gives denominators
        # 2, 3, 4, ... so limit - 1 splits fit (denominator == limit is
        # allowed, the next one is not).
        assert max_split_depth(ZERO, ONE, limit=limit) == limit - 1

    @pytest.mark.parametrize(
        "limit", [2, 3, 5, 8, 13, 21, 1000, 2**16, UINT32_MAX]
    )
    def test_fibonacci_chain_matches_analytic_bound(self, limit):
        """Always splitting the two *most recent* labels makes denominators
        grow like the Fibonacci sequence — the fastest possible — and the
        number of such splits that fit under a limit matches the analytic
        bound used to derive the paper's "at least 45" figure."""
        a, b = ZERO, ONE
        depth = 0
        while not a.would_overflow_with(b, limit):
            a, b = b, a.mediant_with(b, limit=limit)
            depth += 1
        assert depth == fibonacci_split_bound(limit)

    def test_max_denominator_constant(self):
        assert DEFAULT_MAX_DENOMINATOR == 1_000_000_000
        assert DEFAULT_MAX_DENOMINATOR < UINT32_MAX


class TestRepr:
    def test_repr_is_m_slash_n(self):
        assert repr(ProperFraction(3, 7)) == "3/7"
