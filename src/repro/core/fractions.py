"""Proper-fraction arithmetic used by Split-label Routing Protocol (SRP).

The paper builds its feasible-distance label from *proper fractions* ``m/n``
with ``0 <= m < n`` (plus the two sentinels ``0/1`` and ``1/1``).  Two
operations matter:

* the **mediant** ``(m+p)/(n+q)`` of two fractions ``m/n < p/q``, which always
  lies strictly between them (Eq. 1 of the paper) and is how SRP "splits" the
  ordering between a successor's label and the cached predecessor minimum;
* the **next-element** ``(m+1)/(n+1)`` (Eq. 2), the mediant with ``1/1``, used
  when a node may take any label above an advertisement.

SRP stores numerator and denominator in 32-bit unsigned integers, so the number
of consecutive mediant splits between a fixed pair is bounded (the denominators
grow at least as fast as the Fibonacci sequence; the paper quotes a lower bound
of 45 splits).  This module provides the bounded fraction type with explicit
overflow detection, exactly as the protocol needs, and the split-depth bounds
that state the paper's "at least 45" claim against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

__all__ = [
    "UINT32_MAX",
    "DEFAULT_MAX_DENOMINATOR",
    "FractionOverflowError",
    "ProperFraction",
    "max_split_depth",
    "fibonacci_split_bound",
]

#: Largest value representable in the 32-bit unsigned fields the paper uses.
UINT32_MAX = 2**32 - 1

#: The paper's MAX_DENOM threshold ("we use a value of one billion"): when an
#: advertisement terminus sees a denominator beyond this it requests a path
#: reset well before 32-bit overflow could corrupt the ordering.
DEFAULT_MAX_DENOMINATOR = 1_000_000_000


class FractionOverflowError(ArithmeticError):
    """Raised when a mediant or next-element would exceed the integer bound.

    SRP never lets this propagate into the routing state: Algorithm 1 returns
    the infinite ordering instead, and Procedure 2 sets the reset-required
    (T) bit in relayed solicitations.  The exception type exists so the lower
    level fraction arithmetic can signal the condition unambiguously.
    """


@dataclass(frozen=True, slots=True)
class ProperFraction:
    """An exact fraction ``numerator/denominator`` with ``0 <= m/n <= 1``.

    Instances are immutable value objects.  Comparison uses exact
    cross-multiplication (Definition 4 of the paper), never floating point.
    The fraction is *not* automatically reduced: the paper explicitly keeps
    the raw mediant terms (fraction reduction is listed as future work), and
    reduction would change the overflow behaviour the protocol depends on.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError(
                f"denominator must be positive, got {self.denominator}"
            )
        if self.numerator < 0:
            raise ValueError(f"numerator must be non-negative, got {self.numerator}")
        if self.numerator > self.denominator:
            raise ValueError(
                "fraction must not exceed 1/1: "
                f"got {self.numerator}/{self.denominator}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ProperFraction":
        """The destination's label ``0/1`` — the least element."""
        return cls(0, 1)

    @classmethod
    def one(cls) -> "ProperFraction":
        """The unassigned label ``1/1`` — the greatest element."""
        return cls(1, 1)

    # -- ordering ----------------------------------------------------------

    def _cross(self, other: "ProperFraction") -> Tuple[int, int]:
        return self.numerator * other.denominator, self.denominator * other.numerator

    def __lt__(self, other: "ProperFraction") -> bool:
        lhs, rhs = self._cross(other)
        return lhs < rhs

    def __le__(self, other: "ProperFraction") -> bool:
        lhs, rhs = self._cross(other)
        return lhs <= rhs

    def __gt__(self, other: "ProperFraction") -> bool:
        lhs, rhs = self._cross(other)
        return lhs > rhs

    def __ge__(self, other: "ProperFraction") -> bool:
        lhs, rhs = self._cross(other)
        return lhs >= rhs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProperFraction):
            return NotImplemented
        lhs, rhs = self._cross(other)
        return lhs == rhs

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    # -- value access ------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """Exact value as a :class:`fractions.Fraction` (always reduced)."""
        return Fraction(self.numerator, self.denominator)

    def as_tuple(self) -> Tuple[int, int]:
        """The raw ``(numerator, denominator)`` pair as stored on the wire."""
        return (self.numerator, self.denominator)

    # -- predicates --------------------------------------------------------

    @property
    def is_one(self) -> bool:
        """True for the greatest element ``1/1`` (or any equal fraction)."""
        return self.numerator == self.denominator

    @property
    def is_finite(self) -> bool:
        """True when strictly less than ``1/1`` (the paper's "finite" label)."""
        return self.numerator < self.denominator

    def fits(self, limit: int = UINT32_MAX) -> bool:
        """True when both fields fit in ``limit`` (32-bit unsigned by default)."""
        return self.numerator <= limit and self.denominator <= limit

    # -- arithmetic --------------------------------------------------------

    def mediant_with(
        self, other: "ProperFraction", *, limit: int | None = UINT32_MAX
    ) -> "ProperFraction":
        """The mediant of ``self`` and ``other`` (Eq. 1).

        Raises :class:`FractionOverflowError` if either resulting field would
        exceed ``limit``.  Pass ``limit=None`` for unbounded arithmetic.
        """
        num = self.numerator + other.numerator
        den = self.denominator + other.denominator
        if limit is not None and (num > limit or den > limit):
            raise FractionOverflowError(
                f"mediant of {self} and {other} exceeds limit {limit}"
            )
        return ProperFraction(num, den)

    def would_overflow_with(
        self, other: "ProperFraction", limit: int = UINT32_MAX
    ) -> bool:
        """True if the mediant with ``other`` would not fit in ``limit``.

        Procedure 2 uses this check (on the denominators carried in a
        solicitation and the relay node's own label) to decide whether to set
        the reset-required T bit.
        """
        return (
            self.numerator + other.numerator > limit
            or self.denominator + other.denominator > limit
        )

    def __repr__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def max_split_depth(
    low: ProperFraction, high: ProperFraction, *, limit: int = UINT32_MAX
) -> int:
    """How many times the pair can be split before a field exceeds ``limit``.

    This measures the worst-case repeated split against a fixed lower bound,
    the pattern that grows denominators fastest (Fibonacci-like).  The paper's
    "at least 45" bound corresponds to ``max_split_depth(0/1, 1/1)`` with the
    32-bit limit being >= 45.
    """
    depth = 0
    current_high = high
    while not low.would_overflow_with(current_high, limit):
        current_high = low.mediant_with(current_high, limit=limit)
        depth += 1
    return depth


def fibonacci_split_bound(limit: int = UINT32_MAX) -> int:
    """Analytic count of splits of ``0/1`` and ``1/1`` that fit under ``limit``.

    Repeatedly taking the mediant of ``0/1`` with the previous mediant produces
    denominators 2, 3, 4, ...; repeatedly splitting toward the moving lower
    bound produces Fibonacci denominators, which is the *fastest* growth and
    therefore the least upper bound on split count the paper cites.  This
    helper returns the largest ``k`` such that ``fib(k+2) <= limit``.
    """
    a, b = 1, 1  # fib(1), fib(2)
    k = 0
    while a + b <= limit:
        a, b = b, a + b
        k += 1
    return k

