"""Calendar-queue exactness: oracle equivalence and whole-trial bit-identity.

The calendar queue's correctness contract (``repro.sim.eventq``) is total:
pop order is fully determined by the ``(time, priority, sequence)`` prefix,
so a correct queue is indistinguishable from the reference binary heap —
not statistically, *entry for entry*.  This module enforces the contract at
three levels:

1. **Structure level** — property-based workloads (hypothesis) drive a
   :class:`CalendarQueue` and a ``heapq`` list through identical push/pop
   interleavings, including negative priorities (fault-schedule flips),
   same-timestamp ties and resize-triggering bursts.
2. **Engine level** — cancel-then-refire timer churn and the
   ``pending_events`` bookkeeping, on both queue flavours.
3. **Trial level** — the acceptance matrix: all five protocols, clean and
   faulted, FastPaths off and on, must produce bit-identical
   :class:`TrialSummary` objects and event counts under either queue.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.sim.engine import Simulator
from repro.sim.eventq import CalendarQueue
from repro.sim.faults import fault_preset
from repro.sim.network import build_network
from repro.sim.tuning import EngineTuning, FastPaths

PROTOCOLS = ("SRP", "LDR", "AODV", "DSR", "OLSR")


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


def fire_log(simulator, script):
    """Run ``script(simulator, log)`` and return the observed fire order."""
    log = []
    script(simulator, log)
    simulator.run()
    return log


class TestEngineEquivalence:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cancel_then_refire_matches_heap(self, seed):
        """Randomized timer churn — schedule, cancel, reschedule from inside
        callbacks — fires identically on both queues."""

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
                return callback

            for label in range(30):
                handles.append(
                    simulator.schedule_at(
                        rng.uniform(0.0, 10.0) if rng.random() < 0.9 else 1.25,
                        tick(label * 1000),
                        priority=rng.choice([-1, 0, 2]),
                    )
                )

        heap_log = fire_log(Simulator(event_queue="heap"), script)
        calendar_log = fire_log(Simulator(event_queue="calendar"), script)
        assert calendar_log == heap_log
        assert heap_log  # the workload actually fired something

    @pytest.mark.parametrize("event_queue", ["heap", "calendar"])
    def test_pending_events_excludes_cancelled_tombstones(self, event_queue):
        """Regression (the ISSUE's bookkeeping audit): cancelled events stay
        physically queued as tombstones, but ``pending_events`` must count
        only live events — and double-cancel must not double-subtract."""
        simulator = Simulator(event_queue=event_queue)
        fired = []
        handles = [
            simulator.schedule_at(float(i), lambda i=i: fired.append(i))
            for i in range(10)
        ]
        simulator.call_in(20.0, lambda: fired.append("tail"))
        assert simulator.pending_events == 11
        for handle in handles[3:7]:
            handle.cancel()
            handle.cancel()  # idempotent: accounting touched once
        assert simulator.pending_events == 7
        simulator.run()
        assert fired == [0, 1, 2, 7, 8, 9, "tail"]
        assert simulator.pending_events == 0
        assert simulator.events_processed == 7

    @pytest.mark.parametrize("event_queue", ["heap", "calendar"])
    def test_pending_events_during_partial_run(self, event_queue):
        """The `until` push-back keeps the leftover entry counted exactly once."""
        simulator = Simulator(event_queue=event_queue)
        for i in range(6):
            simulator.call_in(float(i), lambda: None)
        simulator.run(until=2.5)
        assert simulator.pending_events == 3
        later = simulator.schedule_in(0.25, lambda: None)
        later.cancel()
        assert simulator.pending_events == 3
        simulator.run()
        assert simulator.pending_events == 0

    def test_step_and_run_agree_across_queues(self):
        logs = []
        for event_queue in ("heap", "calendar"):
            simulator = Simulator(event_queue=event_queue)
            log = []
            rng = random.Random(5)
            for i in range(50):
                simulator.schedule_at(
                    rng.choice([0.5, 1.0, rng.uniform(0, 30)]),
                    lambda i=i: log.append(i),
                    priority=rng.choice([-1, 0, 1]),
                )
            while simulator.step():
                pass
            logs.append(log)
        assert logs[0] == logs[1]

    def test_unknown_queue_rejected(self):
        with pytest.raises(ValueError, match="unknown event queue"):
            Simulator(event_queue="splay")


# -- trial level -----------------------------------------------------------------


def smoke_scenario(*, faulted=False):
    scenario = EvaluationScale.smoke().scenario
    if faulted:
        scenario = scenario.with_faults(fault_preset("churn-partition", scenario))
    return scenario


def run_matrix_point(scenario, protocol, *, event_queue, fast_paths):
    network = build_network(
        scenario,
        protocol_factory(protocol),
        fast_paths=fast_paths,
        tuning=EngineTuning(event_queue=event_queue),
    )
    summary = network.run()
    return summary, network.simulator.events_processed


class TestTrialBitIdentity:
    """The acceptance matrix: queue flag x FastPaths x faults, all protocols."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_queue_and_fast_paths_matrix(self, protocol, faulted):
        scenario = smoke_scenario(faulted=faulted)
        results = {
            (event_queue, flags_on): run_matrix_point(
                scenario,
                protocol,
                event_queue=event_queue,
                fast_paths=FastPaths() if flags_on else FastPaths.none(),
            )
            for event_queue in ("heap", "calendar")
            for flags_on in (True, False)
        }
        reference = results[("heap", True)]
        for point, result in results.items():
            assert result == reference, (
                f"{protocol} ({'faulted' if faulted else 'clean'}) diverged at "
                f"queue={point[0]}, fast_paths={'on' if point[1] else 'off'}"
            )

    def test_mac_backoff_stays_event_driven(self):
        """An absolute budget on the MAC's event cost: smoke OLSR runs at 6.2
        events per transmitted frame under the freeze/resume backoff (8.7 at
        paper-tier).  A backoff that re-senses a busy medium on a timer blows
        straight through the ceiling — the retired polling loop cost 28 here
        and 74 at paper-tier."""
        network = build_network(smoke_scenario(), protocol_factory("OLSR"))
        network.run()
        frames = sum(
            node.mac.stats.transmitted_frames for node in network.nodes.values()
        )
        assert network.simulator.events_processed < 12 * frames


class TestEngineTuning:
    def test_defaults(self):
        tuning = EngineTuning()
        assert tuning.event_queue == "calendar"

    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="event queue"):
            EngineTuning(event_queue="splay")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_QUEUE", "heap")
        tuning = EngineTuning.from_env()
        assert tuning.event_queue == "heap"

    def test_from_env_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVENT_QUEUE", raising=False)
        assert EngineTuning.from_env() == EngineTuning()

    def test_build_network_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_QUEUE", "heap")
        network = build_network(smoke_scenario(), protocol_factory("SRP"))
        assert network.simulator.event_queue == "heap"
