"""Calendar-queue exactness against a binary-heap oracle kept in this module.

The calendar queue's correctness contract (``repro.sim.eventq``) is total:
pop order is fully determined by the ``(time, priority, sequence)`` prefix,
so a correct queue is indistinguishable from a binary heap — not
statistically, *entry for entry*.  The heap lives only here, as the oracle.
This module enforces the contract at two levels:

1. **Structure level** — property-based workloads (hypothesis) drive a
   :class:`CalendarQueue` and a ``heapq`` list through identical push/pop
   interleavings, including negative priorities (fault-schedule flips),
   same-timestamp ties and resize-triggering bursts.
2. **Engine level** — cancel-then-refire timer churn, partial runs and
   cancelled tombstones, on the :class:`Simulator` and on
   :class:`ReferenceSimulator`, an engine over a plain ``heapq`` list.
3. **Trial level** — every protocol's smoke trial, clean and under two
   fault presets, run once on the calendar queue and once with
   :class:`HeapQueue` standing in for it: the summaries and event counts
   must be identical.

Whole trials are also held to the golden captures in
``test_runtime_seam.py``.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.paper import EvaluationScale
from repro.protocols import PROTOCOLS, protocol_factory
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.eventq import CalendarQueue
from repro.sim.faults import fault_preset
from repro.sim.network import build_network


# -- structure-level oracle ------------------------------------------------------


def drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


#: Times drawn from a *small* grid as well as a continuum, so same-timestamp
#: collisions (where ordering falls to priority, then sequence) are common
#: rather than measure-zero.
times = st.one_of(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False, width=32),
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 100.0, 100.0]),
)
priorities = st.sampled_from([-1, 0, 0, 1, 2])


@st.composite
def workloads(draw):
    """A randomized interleaving of pushes and pops.

    Pushes carry monotonically increasing sequence numbers, exactly like the
    engine's; pops may interleave anywhere (the engine pops while callbacks
    push).
    """
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=120))):
        if draw(st.booleans()):
            ops.append(("push", draw(times), draw(priorities)))
        else:
            ops.append(("pop",))
    return ops


class TestCalendarOracle:
    @given(workloads())
    @settings(max_examples=200, deadline=None)
    def test_interleaved_ops_match_heap(self, ops):
        calendar = CalendarQueue()
        heap = []
        seq = itertools.count()
        for op in ops:
            if op[0] == "push":
                entry = (op[1], op[2], next(seq), None)
                calendar.push(entry)
                heapq.heappush(heap, entry)
                assert len(calendar) == len(heap)
            else:
                expected = heapq.heappop(heap) if heap else None
                assert calendar.pop() == expected
        assert drain(calendar) == sorted(heap)
        assert not calendar and len(calendar) == 0

    @given(
        st.lists(st.tuples(times, priorities), min_size=0, max_size=400),
        st.sampled_from([1e-4, 1e-3, 0.25, 10.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_push_then_drain_sorts(self, items, width):
        """Any width — far too fine or far too coarse — drains in exact
        order; resize only changes speed.  400 entries crosses the default
        grow threshold (128), so the adaptive resize itself is exercised."""
        calendar = CalendarQueue(width=width)
        entries = [
            (time, priority, seq, None)
            for seq, (time, priority) in enumerate(items)
        ]
        for entry in entries:
            calendar.push(entry)
        assert drain(calendar) == sorted(entries)

    def test_same_timestamp_ties_break_by_priority_then_fifo(self):
        calendar = CalendarQueue()
        entries = [
            (5.0, 1, 0, "finish"),
            (5.0, -1, 1, "fault"),
            (5.0, 0, 2, "timer-a"),
            (5.0, 0, 3, "timer-b"),
            (5.0, 2, 4, "proceed"),
        ]
        for entry in entries:
            calendar.push(entry)
        assert [e[3] for e in drain(calendar)] == [
            "fault", "timer-a", "timer-b", "finish", "proceed",
        ]

    def test_negative_priority_runs_first_even_pushed_last(self):
        calendar = CalendarQueue()
        calendar.push((1.0, 0, 0, "traffic"))
        calendar.push((1.0, 2, 1, "proceed"))
        calendar.push((1.0, -1, 2, "fault"))
        assert calendar.pop()[3] == "fault"

    def test_far_future_ladder_round_trip(self):
        """Entries far beyond the bucket window park in the ladder and are
        re-admitted in exact order, across a sparse-region cursor jump."""
        calendar = CalendarQueue(width=1e-3)  # 64-bucket window = 64 ms
        rng = random.Random(17)
        entries = [
            (rng.choice([rng.uniform(0, 0.05), rng.uniform(1e3, 1e6)]), 0, seq, None)
            for seq in range(300)
        ]
        for entry in entries:
            calendar.push(entry)
        assert drain(calendar) == sorted(entries)

    def test_push_at_or_before_cursor_joins_active_heap(self):
        """A zero-delay push while a bucket drains is still popped in order
        (the engine's `until` push-back and immediate callbacks rely on it)."""
        calendar = CalendarQueue()
        for seq in range(8):
            calendar.push((float(seq), 0, seq, None))
        assert calendar.pop() == (0.0, 0, 0, None)
        calendar.push((0.0, 0, 100, "same-bucket"))  # i <= cursor
        assert calendar.pop() == (0.0, 0, 100, "same-bucket")

    def test_resize_under_clamped_bucket_ceiling_terminates(self):
        """When the population exceeds the maximum bucket count the resize
        lifts its own grow threshold; a pathological same-bucket burst must
        not recurse."""
        calendar = CalendarQueue()
        entries = [(1.0 + 1e-9 * seq, 0, seq, None) for seq in range(1500)]
        for entry in entries:
            calendar.push(entry)
        assert len(calendar) == 1500
        assert drain(calendar) == sorted(entries)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="width"):
            CalendarQueue(width=0.0)
        with pytest.raises(ValueError, match="power of two"):
            CalendarQueue(nbuckets=48)


# -- engine level ----------------------------------------------------------------


class ReferenceHandle:
    """The reference engine's cancellable handle."""

    def __init__(self, callback):
        self.callback = callback

    def cancel(self):
        self.callback = None


class ReferenceSimulator:
    """The engine's contract on a plain ``heapq`` list, kept here as the
    oracle :class:`Simulator` and its calendar queue are held to: entries
    ``(time, priority, sequence, handle)``, cancelled handles skipped when
    popped, and ``run(until)`` stopping short of the first later entry."""

    def __init__(self):
        self._heap = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.events_processed = 0

    def schedule_at(self, time, callback, *, priority=0):
        handle = ReferenceHandle(callback)
        heapq.heappush(self._heap, (time, priority, next(self._sequence), handle))
        return handle

    def schedule_in(self, delay, callback, *, priority=0):
        return self.schedule_at(self.now + delay, callback, priority=priority)

    def call_in(self, delay, callback, priority=0):
        self.schedule_at(self.now + delay, callback, priority=priority)

    def _fire(self, entry):
        time, _, _, handle = entry
        if handle.callback is None:
            return False
        callback, handle.callback = handle.callback, None
        self.now = time
        self.events_processed += 1
        callback()
        return True

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            self._fire(heapq.heappop(heap))
        if until is not None and self.now < until:
            self.now = until


def fire_log(simulator, script):
    """Run ``script(simulator, log)`` and return the observed fire order."""
    log = []
    script(simulator, log)
    simulator.run()
    return log


def timer_churn(seed):
    """Randomized timer churn — schedule, cancel, reschedule from inside
    callbacks, at priorities -1 to 2 — recording ``(now, label)`` at every
    firing."""

    def script(simulator, log):
        rng = random.Random(seed)
        handles = []

        def tick(label):
            def callback():
                log.append((simulator.now, label))
                if rng.random() < 0.5 and handles:
                    handles.pop(rng.randrange(len(handles))).cancel()
                if rng.random() < 0.6:
                    handles.append(
                        simulator.schedule_in(
                            rng.uniform(0.0, 5.0),
                            tick(label + 1),
                            priority=rng.choice([-1, 0, 1]),
                        )
                    )
                if rng.random() < 0.3:
                    simulator.call_in(rng.uniform(0.0, 1.0), tick(label + 500), 2)

            return callback

        for label in range(30):
            handles.append(
                simulator.schedule_at(
                    rng.uniform(0.0, 10.0) if rng.random() < 0.9 else 1.25,
                    tick(label * 1000),
                    priority=rng.choice([-1, 0, 2]),
                )
            )

    return script


class TestEngineAgainstHeapReference:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cancel_then_refire_matches_heap(self, seed):
        """Timer churn fires identically on the engine and on the heap
        reference."""
        script = timer_churn(seed)
        reference = ReferenceSimulator()
        reference_log = fire_log(reference, script)
        simulator = Simulator()
        assert fire_log(simulator, script) == reference_log
        assert simulator.events_processed == reference.events_processed
        assert reference_log  # the workload actually fired something

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partial_runs_match_heap(self, seed):
        """``run(until)`` in slices leaves the clock and the fire order where
        the heap reference leaves them."""
        script = timer_churn(seed)
        observed = []
        for simulator in (ReferenceSimulator(), Simulator()):
            log = []
            script(simulator, log)
            checkpoints = []
            for until in (0.5, 1.25, 1.25, 4.0, 9.99):
                simulator.run(until=until)
                checkpoints.append((simulator.now, len(log)))
            simulator.run()
            observed.append((log, checkpoints, simulator.events_processed))
        assert observed[1] == observed[0]

    def test_cancelled_tombstones_never_fire(self):
        """Cancelled events stay physically queued as tombstones, but never
        fire — and double-cancel is harmless."""
        observed = []
        for simulator in (ReferenceSimulator(), Simulator()):
            fired = []
            handles = [
                simulator.schedule_at(float(i), lambda i=i: fired.append(i))
                for i in range(10)
            ]
            simulator.call_in(20.0, lambda: fired.append("tail"))
            for handle in handles[3:7]:
                handle.cancel()
                handle.cancel()  # idempotent
            simulator.run()
            observed.append((fired, simulator.events_processed))
        assert observed[1] == observed[0]
        assert observed[1] == ([0, 1, 2, 7, 8, 9, "tail"], 7)

    def test_partial_run_pushes_the_leftover_back_once(self):
        """The `until` push-back requeues the first late entry exactly once."""
        simulator = Simulator()
        fired = []
        for i in range(6):
            simulator.call_in(float(i), lambda i=i: fired.append(i))
        simulator.run(until=2.5)
        assert fired == [0, 1, 2]
        later = simulator.schedule_in(0.25, lambda: fired.append("cancelled"))
        later.cancel()
        simulator.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert simulator.events_processed == 6


# -- trial level -----------------------------------------------------------------


class HeapQueue:
    """:class:`CalendarQueue`'s interface over one plain ``heapq`` list.

    :meth:`Simulator.run` pops straight from the queue's ``_active`` heap
    and calls ``_advance`` only once that heap is empty; here ``_active`` is
    the whole queue, so ``_advance`` has nothing left to expose.
    """

    def __init__(self):
        self._active = []

    def push(self, entry):
        heapq.heappush(self._active, entry)

    def pop(self):
        return heapq.heappop(self._active) if self._active else None

    def _advance(self):
        return None

    def __len__(self):
        return len(self._active)


def smoke_trial(protocol, preset):
    scenario = EvaluationScale.smoke().scenario.with_pause_time(0.0)
    if preset is not None:
        scenario = scenario.with_faults(fault_preset(preset, scenario))
    network = build_network(scenario, protocol_factory(protocol))
    summary = network.run()
    return network, (summary.to_dict(), network.simulator.events_processed)


class TestTrialAgainstHeapReference:
    @pytest.mark.parametrize(
        "preset",
        [None, "churn-partition", "blackout-burst"],
        ids=["clean", "churn-partition", "blackout-burst"],
    )
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_trial_matches_heap_driven_trial(self, monkeypatch, protocol, preset):
        """A whole trial pops the same entries off the calendar queue as off
        a binary heap, so nothing it measures can differ."""
        calendar_network, calendar_run = smoke_trial(protocol, preset)
        assert isinstance(calendar_network.simulator._calendar, CalendarQueue)
        monkeypatch.setattr(engine, "CalendarQueue", HeapQueue)
        heap_network, heap_run = smoke_trial(protocol, preset)
        assert isinstance(heap_network.simulator._calendar, HeapQueue)
        assert heap_run == calendar_run
        assert heap_run[1] > 1000


class TestTrialEventBudget:
    def test_mac_backoff_stays_event_driven(self):
        """An absolute budget on the MAC's event cost: smoke OLSR runs at 6.2
        events per transmitted frame under the freeze/resume backoff (8.7 at
        paper-tier).  A backoff that re-senses a busy medium on a timer blows
        straight through the ceiling — the retired polling loop cost 28 here
        and 74 at paper-tier."""
        network = build_network(
            EvaluationScale.smoke().scenario, protocol_factory("OLSR")
        )
        network.run()
        frames = sum(
            node.mac.stats.transmitted_frames for node in network.nodes.values()
        )
        assert network.simulator.events_processed < 12 * frames
