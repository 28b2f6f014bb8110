"""The label algebra SRP runs: proper fractions, orderings, Algorithm 1.

This package holds the paper's Sections II-III label machinery, independent of
any simulator or packet format, and nothing the protocol does not use:

* :mod:`repro.core.fractions` — proper-fraction arithmetic (mediant,
  next-element, 32-bit overflow behaviour).
* :mod:`repro.core.ordering` — the SRP composite ordering ``(sn, m/n)`` with
  the Ordering Criteria of Definition 5.
* :mod:`repro.core.neworder` — Algorithm 1.

Section II's worked examples and Theorem 3 are asserted on this code as SRP
runs it (Example 1 and Theorem 3 in the simulator, Example 2 through
:func:`new_order`); the successor-graph cycle search lives with
:mod:`repro.sim.monitor`.
"""

from .fractions import DEFAULT_MAX_DENOMINATOR, UINT32_MAX, ProperFraction
from .neworder import new_order, new_order_for_rreq_advertisement
from .ordering import UNASSIGNED, Ordering, ordering_max, ordering_min

__all__ = [
    "DEFAULT_MAX_DENOMINATOR",
    "UINT32_MAX",
    "ProperFraction",
    "new_order",
    "new_order_for_rreq_advertisement",
    "UNASSIGNED",
    "Ordering",
    "ordering_max",
    "ordering_min",
]
