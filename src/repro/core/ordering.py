"""The SRP composite ordering ``O = (sn, F)`` (Section III of the paper).

SRP labels a node's route to a destination with a pair of

* a destination-controlled **sequence number** ``sn`` (the paper uses a 64-bit
  timestamp so it never wraps within a node's lifetime), and
* a **feasible-distance proper fraction** ``F = m/n``.

Definition 5 (Ordering Criteria, "OC") gives the strict ordering ``A ≺ B``
("B is a feasible in-order successor for A"): either B has a *larger* sequence
number, or the sequence numbers are equal and B has a *smaller* fraction.  Note
the reversed sense: fresher sequence numbers supersede everything, and within a
sequence number smaller fractions are closer to the destination.

The unassigned (greatest) ordering is ``(0, 1/1)``; the destination labels
itself ``(sn, 0/1)`` with a non-zero sequence number (Definition 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fractions import UINT32_MAX, ProperFraction

__all__ = [
    "Ordering",
    "UNASSIGNED",
    "ordering_min",
    "ordering_max",
]


@dataclass(frozen=True, slots=True)
class Ordering:
    """A composite SRP label ``(sequence number, feasible-distance fraction)``.

    The class deliberately does not implement ``<`` / ``>`` with Python's rich
    comparison operators for the *routing* order, because the routing order is
    a strict partial order with a reversed component and silent use of ``<``
    invites mistakes.  Use :meth:`precedes` (the paper's ``≺``) or the
    module-level :func:`ordering_min`.  Equality and hashing compare the raw
    fields (two labels with equal fraction *value* but different terms are
    distinct wire representations but equal orderings; we compare by value).
    """

    sequence_number: int
    fraction: ProperFraction

    def __post_init__(self) -> None:
        if self.sequence_number < 0:
            raise ValueError(
                f"sequence number must be non-negative, got {self.sequence_number}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def unassigned(cls) -> "Ordering":
        """The maximum ordering ``(0, 1/1)`` of an unassigned node."""
        return cls(0, ProperFraction.one())

    @classmethod
    def destination(cls, sequence_number: int) -> "Ordering":
        """The label a destination gives itself: ``(sn, 0/1)`` with ``sn > 0``."""
        if sequence_number <= 0:
            raise ValueError("a destination's sequence number must be non-zero")
        return cls(sequence_number, ProperFraction.zero())

    # -- predicates --------------------------------------------------------

    @property
    def is_unassigned(self) -> bool:
        """True for the greatest element ``(0, 1/1)``."""
        return self.sequence_number == 0 and self.fraction.is_one

    @property
    def is_finite(self) -> bool:
        """True when the fraction is strictly less than ``1/1`` (paper: "finite")."""
        return self.fraction.is_finite

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return (
            self.sequence_number == other.sequence_number
            and self.fraction == other.fraction
        )

    def __hash__(self) -> int:
        return hash((self.sequence_number, self.fraction.as_fraction()))

    # -- the Ordering Criteria (Definition 5) --------------------------------

    def precedes(self, other: "Ordering") -> bool:
        """The paper's ``self ≺ other``: *other* is a feasible in-order successor.

        True iff ``sn_self < sn_other`` (Eq. 7) or the sequence numbers are
        equal and ``F_other < F_self`` (Eq. 8).
        """
        if self.sequence_number < other.sequence_number:
            return True
        if self.sequence_number == other.sequence_number:
            return other.fraction < self.fraction
        return False

    # -- Definition 6: ordering addition ------------------------------------

    def plus_fraction(
        self, addend: ProperFraction, *, limit: int | None = UINT32_MAX
    ) -> "Ordering":
        """``O + p/q`` from Definition 6: mediant the fraction, keep the sn.

        Only defined for finite orderings.  The result is "larger" in the
        routing order than ``self`` whenever ``self.fraction < addend``, which
        is how the next-element ``O + 1/1`` is obtained.
        """
        if not self.is_finite:
            raise ValueError("ordering addition requires a finite ordering")
        return Ordering(
            self.sequence_number,
            self.fraction.mediant_with(addend, limit=limit),
        )

    def next_element(self, *, limit: int | None = UINT32_MAX) -> "Ordering":
        """``O + 1/1`` — the next-element used in Algorithm 1 Case II."""
        return self.plus_fraction(ProperFraction.one(), limit=limit)

    def would_overflow_with(
        self, other: "Ordering", limit: int = UINT32_MAX
    ) -> bool:
        """True when the fraction split with ``other`` would overflow ``limit``."""
        return self.fraction.would_overflow_with(other.fraction, limit)

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Ordering(sn={self.sequence_number}, F={self.fraction})"


#: The shared unassigned sentinel ``(0, 1/1)``.
UNASSIGNED = Ordering.unassigned()


def ordering_min(a: Ordering, b: Ordering) -> Ordering:
    """The paper's ``min{O_A, O_B}``: returns ``b`` if ``a ≺ b`` else ``a``.

    Because ``≺`` reads "b is a feasible successor of a" — i.e. b is *closer*
    to the destination — the "minimum" of two orderings in the SLR label sense
    is the one closer to the destination.  This is the value a relay places in
    a forwarded solicitation (Eq. 10).
    """
    return b if a.precedes(b) else a


def ordering_max(a: Ordering, b: Ordering) -> Ordering:
    """The counterpart of :func:`ordering_min`: the label farther from the
    destination.  Used when computing ``S_max`` over a successor set."""
    return a if a.precedes(b) else b
