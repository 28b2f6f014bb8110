"""A calendar/ladder event queue with O(1) amortized push and pop.

The :class:`~repro.sim.engine.Simulator` orders events by the tuple
``(time, priority, sequence)``; the sequence number is unique, so the order
is *total* and any correct priority queue pops the exact same sequence of
entries.  That totality is what makes this queue an **exact** replacement
for a binary heap: ``tests/sim/test_eventq.py`` compares it entry-for-entry
with a ``heapq`` list under randomized workloads, both as a bare structure
and behind the engine.

Structure (R. Brown's calendar queue, with a heap-ladder overflow):

* ``nbuckets`` **buckets** (a power of two) cover a sliding window of
  ``nbuckets * width`` seconds starting at the *current* bucket.  A pushed
  entry whose time falls inside the window is appended — unsorted, O(1) —
  to the bucket indexed by ``int(time / width) & (nbuckets - 1)``.
* The **active list** holds the entries of the bucket currently being
  drained, as a small binary heap: a visited bucket is heapified once
  (O(k) for k entries) and popped in order; same-window pushes that land
  at or before the cursor go straight into it.  Because bucket windows
  partition time and ``int(time / width)`` is monotone in ``time``, the
  minimum of the active heap is the global minimum — entries in later
  buckets and in the ladder are provably later.
* The **ladder** (``far``) is a heap holding everything beyond the window
  — long protocol timers, flow-end events.  Each time the cursor exposes
  a new bucket, admissible ladder entries are moved into their buckets;
  pushes to the far future are O(log F) for the small F of long timers
  instead of churning the main structure.

**Adaptive width.**  The calendar is O(1) only while buckets hold O(1)
entries each, so the queue resizes itself — rebucketing every entry, an
O(n) operation amortized over the ≥ n/2 pushes that triggered it — when
the in-window population outgrows ``2 * nbuckets`` or collapses below
``nbuckets / 8``.  The new width is estimated classically: the mean gap
between distinct times in a sample of queued entries, times a small
spread factor, clamps buckets to ~1–2 entries for the observed event
density.  Resizing moves entries between buckets but never reorders them
(order lives in the tuples), so exactness is untouched.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional, Tuple

__all__ = ["CalendarQueue"]

#: One queue entry, exactly the engine's heap entry shape.
_Entry = Tuple[float, int, int, object]

#: Bucket-count bounds.  The floor keeps tiny queues from thrashing the
#: resize logic; the ceiling bounds rebuild cost and empty-bucket scans.
_MIN_BUCKETS = 64
_MAX_BUCKETS = 1 << 15

#: Entries sampled for the width estimate at each resize.
_WIDTH_SAMPLE = 256

#: Bucket width = spread factor x mean inter-event gap: a little over one
#: expected entry per bucket, trading a few empty-bucket skips (cheap) for
#: short per-bucket heaps (the expensive part).
_SPREAD = 2.0


class CalendarQueue:
    """Bucketed calendar queue over ``(time, priority, seq, payload)`` tuples."""

    __slots__ = (
        "_width",
        "_inv_width",
        "_nbuckets",
        "_mask",
        "_buckets",
        "_cur",
        "_limit",
        "_count",
        "_active",
        "_far",
        "_grow_at",
        "_shrink_at",
    )

    def __init__(self, *, width: float = 1e-3, nbuckets: int = _MIN_BUCKETS) -> None:
        if width <= 0.0:
            raise ValueError(f"bucket width must be positive, got {width!r}")
        if nbuckets < 1 or nbuckets & (nbuckets - 1):
            raise ValueError(f"bucket count must be a power of two, got {nbuckets}")
        self._setup(width, nbuckets, cur=-1)
        #: Entries currently being drained (the visited bucket), as a heap.
        #: The engine's run loop reads this attribute directly and pops it
        #: with C-level ``heappop``, falling into :meth:`_advance` only when
        #: it is empty — keeping the per-event cost at heap parity.
        self._active: List[_Entry] = []
        #: Overflow ladder: entries at or beyond the window end.
        self._far: List[_Entry] = []

    def _setup(self, width: float, nbuckets: int, *, cur: int) -> None:
        """(Re)initialise the bucket array and cursor geometry."""
        self._width = width
        self._inv_width = 1.0 / width
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._buckets: List[List[_Entry]] = [[] for _ in range(nbuckets)]
        #: Absolute index (``int(time / width)``) of the bucket the cursor
        #: is on; entries at or before it belong to the active heap.
        self._cur = cur
        #: One past the last admissible absolute index: entries with
        #: ``int(time / width) >= _limit`` go to the ladder.
        self._limit = cur + nbuckets
        #: Entries held in ``_buckets`` (excludes active and ladder).
        self._count = 0
        self._grow_at = 2 * nbuckets
        self._shrink_at = nbuckets >> 3 if nbuckets > _MIN_BUCKETS else -1

    def __len__(self) -> int:
        return self._count + len(self._active) + len(self._far)

    def __bool__(self) -> bool:
        return bool(self._count or self._active or self._far)

    # -- core operations ---------------------------------------------------------

    def push(self, entry: _Entry) -> None:
        """Insert ``entry``; O(1) amortized."""
        i = int(entry[0] * self._inv_width)
        if i <= self._cur:
            # At or before the bucket being drained (a zero/short delay, or
            # an `until` push-back): joins the active heap so it is still
            # popped in exact order.
            heappush(self._active, entry)
        elif i < self._limit:
            self._buckets[i & self._mask].append(entry)
            count = self._count + 1
            self._count = count
            if count > self._grow_at:
                self._resize()
        else:
            heappush(self._far, entry)

    def pop(self) -> Optional[_Entry]:
        """Remove and return the least entry, or ``None`` when empty."""
        active = self._active
        if active:
            return heappop(active)
        return self._advance()

    def _advance(self) -> Optional[_Entry]:
        """Walk the cursor to the next populated bucket and pop its head.

        Called only with the active heap empty; returns ``None`` when the
        whole queue is empty.  The engine's calendar run loop calls this
        directly after a C-level ``heappop`` of :attr:`_active` fails, so
        the method-call overhead is paid once per *bucket*, not per event.
        """
        if not self._count and not self._far:
            return None
        if self._count <= self._shrink_at:
            self._resize()
        buckets = self._buckets
        mask = self._mask
        inv_width = self._inv_width
        far = self._far
        cur = self._cur
        limit = self._limit
        count = self._count
        while True:
            if not count:
                if not far:
                    # Everything drained while walking (cannot happen: the
                    # emptiness check above covers it) — stay consistent.
                    self._cur = cur
                    self._limit = limit
                    self._count = count
                    return None
                # Sparse region: jump the cursor straight to the ladder
                # head's bucket instead of sweeping empty years.
                cur = int(far[0][0] * inv_width) - 1
                limit = cur + self._nbuckets
            cur += 1
            limit += 1
            # Admit ladder entries that now fall inside the window.  The
            # admissibility test recomputes the bucket index with the same
            # expression push uses, so boundary rounding is consistent.
            while far and int(far[0][0] * inv_width) < limit:
                entry = heappop(far)
                buckets[int(entry[0] * inv_width) & mask].append(entry)
                count += 1
            bucket = buckets[cur & mask]
            if bucket:
                buckets[cur & mask] = []
                count -= len(bucket)
                heapify(bucket)
                self._active = bucket
                self._cur = cur
                self._limit = limit
                self._count = count
                return heappop(bucket)

    # -- adaptive sizing -----------------------------------------------------------

    def _drain(self) -> List[_Entry]:
        """Every queued entry, in no particular order."""
        entries = list(self._active)
        for bucket in self._buckets:
            entries.extend(bucket)
        entries.extend(self._far)
        return entries

    def _resize(self) -> None:
        """Re-bucket everything with a width fit to the observed density."""
        entries = self._drain()
        width = self._estimate_width(entries)
        n = len(entries)
        nbuckets = _MIN_BUCKETS
        while nbuckets < n and nbuckets < _MAX_BUCKETS:
            nbuckets <<= 1
        if entries:
            first = min(entries)
            cur = int(first[0] / width) - 1
        else:
            cur = -1
        self._setup(width, nbuckets, cur=cur)
        # With the bucket count clamped at the ceiling, the population can
        # legitimately exceed the usual grow threshold; lift it past the
        # current size so the re-push loop below cannot re-enter _resize.
        if self._grow_at <= n:
            self._grow_at = 2 * n
        self._active = []
        self._far = []
        for entry in entries:
            self.push(entry)

    def _estimate_width(self, entries: List[_Entry]) -> float:
        """Spread factor x mean gap between distinct sampled times."""
        if len(entries) < 2:
            return self._width
        step = max(len(entries) // _WIDTH_SAMPLE, 1)
        times = sorted({entry[0] for entry in entries[::step]})
        if len(times) < 2:
            return self._width
        mean_gap = (times[-1] - times[0]) / (len(times) - 1)
        if mean_gap <= 0.0:
            return self._width
        return mean_gap * _SPREAD
