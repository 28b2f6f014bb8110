"""Discrete-event simulation engine.

A minimal but complete event scheduler in the style GloMoSim provides to its
protocol models: events are ``(time, priority, sequence, payload)`` entries
executed in time order with FIFO tie-breaking.  Everything in
:mod:`repro.sim` — the MAC, mobility sampling, traffic generation and the
routing protocols' timers — runs on one :class:`Simulator` instance.

The queue stores plain tuples rather than ordered :class:`Event` objects: at
paper scale a trial pushes and pops millions of entries, and tuple comparison
(which never reaches the trailing payload because the sequence number is
unique) is several times cheaper than a dataclass-generated ``__lt__``.
:class:`Event` survives as the public handle returned by the scheduling
calls, keeping the ``cancel()`` API unchanged; hot-path callers that never
cancel use :meth:`Simulator.call_in`, which skips the handle allocation
entirely and queues the bare callback.

The queue is a bucketed calendar queue with an overflow ladder
(:class:`~repro.sim.eventq.CalendarQueue`): O(1) amortized push and pop
against a binary heap's O(log n).  At 50 nodes the two are within noise; at
200 nodes the calendar queue won every paired run against the heap.  Pop
order is totally determined by ``(time, priority, sequence)`` — the
sequence number is unique — so the queue dequeues exactly what a ``heapq``
list would; ``tests/sim/test_eventq.py`` holds the engine to a ``heapq``
reference kept there, including the priority ``-1`` fault events and
cancellation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Tuple

from .eventq import CalendarQueue

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduling mistakes (negative delays, running a stopped sim)."""


class Event:
    """Handle for one scheduled callback.  Ordering: time, priority, FIFO.

    The engine orders events by the ``(time, priority, sequence)`` tuple it
    keeps on the queue; the handle exists so callers can :meth:`cancel` a
    timer and inspect when it was due.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled", "_simulator")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Optional[Callable[[], None]],
        simulator: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it reaches the head.

        The callback reference is dropped immediately, so a cancelled timer
        releases whatever its closure captured (packets, protocol state) even
        while its tombstone is still queued.
        """
        if self.cancelled or self.callback is None:
            # Already cancelled, or already executed: nothing left to release
            # and the pending-event accounting must not be touched twice.
            return
        self.cancelled = True
        self.callback = None
        if self._simulator is not None:
            self._simulator._cancelled_pending += 1


#: One queue entry.  The payload — an Event handle or, for fire-and-forget
#: scheduling, the bare callback — is never compared: sequence is unique.
_HeapEntry = Tuple[float, int, int, object]


class Simulator:
    """The event loop: schedule callbacks at absolute or relative times.

    The simulator is deliberately free of domain knowledge; the wireless
    channel, nodes and protocols schedule plain callbacks.  ``priority`` lets
    same-instant events order deterministically (lower runs first), which keeps
    trials reproducible under a fixed seed.  The repo's convention: ``-1``
    fault-schedule flips (:mod:`repro.sim.faults` — a node crashing at *t*
    must be down before any frame sent at *t*), ``0`` ordinary traffic and
    timers, ``1`` channel-transmission finishes, ``2`` MAC proceed steps.

    ``now`` is a plain attribute (read it, never assign it): the property
    protocol is measurably slower at millions of reads per trial.
    """

    def __init__(self) -> None:
        self._calendar = CalendarQueue()
        self._push: Callable[[_HeapEntry], None] = self._calendar.push
        self._sequence = itertools.count()
        self.now = 0.0
        self._running = False
        self._processed = 0
        self._cancelled_pending = 0

    # -- clock -----------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for progress reporting)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Cancelled events stay queued as tombstones until the loop reaches
        them (their callbacks are already dropped), so the tombstone count
        is subtracted from the queue's raw size.
        """
        return len(self._calendar) - self._cancelled_pending

    # -- scheduling --------------------------------------------------------------

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self.now:.6f}"
            )
        event = Event(time, priority, next(self._sequence), callback, self)
        self._push((time, priority, event.sequence, event))
        return event

    def schedule_in(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        event = Event(time, priority, next(self._sequence), callback, self)
        self._push((time, priority, event.sequence, event))
        return event

    def call_in(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Fire-and-forget :meth:`schedule_in`: no :class:`Event` handle.

        Identical ordering semantics, but the callback cannot be cancelled.
        The MAC and channel schedule hundreds of thousands of uncancellable
        callbacks (backoffs, jitters, end-of-air-time completions) per trial;
        skipping the handle allocation is a measured win.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._push((self.now + delay, priority, next(self._sequence), callback))

    def hot_scheduler(
        self,
    ) -> "Tuple[Callable[[_HeapEntry], None], Callable[[], int]]":
        """The raw scheduling internals for trusted hot-path callers.

        Returns ``(push, next_sequence)``.  A caller may push entries shaped
        exactly like :meth:`call_in`'s — ``(self.now + delay, priority,
        next_sequence(), callback)`` with ``delay >= 0``.  This skips one
        Python call and the negative-delay check per event, which the MAC's
        backoff machinery pays many times per trial; ordering semantics are
        identical because the entries are.  ``push`` is the calendar
        queue's ``push`` method.
        """
        return self._push, self._sequence.__next__

    # -- execution ----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until`` at
        the end, even if the last event fired earlier, so periodic statistics
        normalised by elapsed time are consistent across trials.
        """
        event_class = Event
        self._running = True
        # The processed counter lives in a local inside the loop (one
        # instance-attribute store per event is measurable at 10M events);
        # the attribute is synced on every exit path, including callbacks
        # that raise.
        processed = self._processed
        calendar = self._calendar
        advance = calendar._advance
        push = calendar.push
        pop = heapq.heappop
        try:
            while self._running:
                # The common case is one attribute load and a C-level
                # heappop.  The attribute must be re-read every iteration —
                # callbacks push into it and _advance replaces it wholesale
                # at each bucket boundary.
                active = calendar._active
                if active:
                    entry = pop(active)
                else:
                    entry = advance()
                    if entry is None:
                        break
                time = entry[0]
                if until is not None and time > until:
                    # Leave it queued for a potential later run() call;
                    # everything else in the queue is later still.
                    push(entry)
                    break
                payload = entry[3]
                if payload.__class__ is event_class:
                    if payload.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    callback = payload.callback
                    # Drop the closure before executing so a fired event
                    # never pins its captured state, mirroring cancel()
                    # for tombstones.
                    payload.callback = None
                    self.now = time
                    processed += 1
                    callback()
                else:
                    self.now = time
                    processed += 1
                    payload()
        finally:
            self._processed = processed
        if until is not None and self.now < until:
            self.now = until
        self._running = False

    def step(self) -> bool:
        """Execute the single next event; returns False when the queue is empty."""
        while True:
            entry = self._calendar.pop()
            if entry is None:
                return False
            payload = entry[3]
            if payload.__class__ is Event:
                if payload.cancelled:
                    self._cancelled_pending -= 1
                    continue
                callback = payload.callback
                payload.callback = None
            else:
                callback = payload
            self.now = entry[0]
            self._processed += 1
            callback()
            return True

    def stop(self) -> None:
        """Stop :meth:`run` after the event currently executing."""
        self._running = False
