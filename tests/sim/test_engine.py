"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_in(2.0, lambda: order.append("late"))
        sim.schedule_in(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        order = []
        for label in ["a", "b", "c"]:
            sim.schedule_in(1.0, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule_in(1.0, lambda: order.append("low"), priority=5)
        sim.schedule_in(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule_in(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule_in(1.0, lambda: seen.append(sim.now))

        sim.schedule_in(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule_in(1.0, lambda: fired.append(1))
        sim.schedule_in(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        # The late event survives for a later run() call.
        sim.run()
        assert fired == [1, 2]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_in(1.0, lambda: fired.append("cancelled"))
        sim.schedule_in(2.0, lambda: fired.append("kept"))
        event.cancel()
        sim.run()
        assert fired == ["kept"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule_in(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_double_cancel_is_harmless(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_in(1.0, lambda: fired.append(1))
        sim.schedule_in(2.0, lambda: fired.append(2))
        event.cancel()
        event.cancel()
        sim.run()
        assert fired == [2]
        assert sim.events_processed == 1

    def test_tombstones_drain_without_firing(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule_in(5.0, lambda: fired.append("keep"))
        for i in range(10):
            sim.schedule_in(1.0 + i * 0.1, lambda: fired.append(i)).cancel()
        sim.run(until=3.0)
        assert fired == [] and sim.events_processed == 0
        keep.cancel()
        sim.run()
        assert fired == [] and sim.events_processed == 0

    def test_cancel_after_firing_is_a_no_op(self):
        sim = Simulator()
        fired = []
        first = sim.schedule_in(1.0, lambda: fired.append(1))
        sim.schedule_in(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        first.cancel()  # too late: it already ran
        sim.run()
        assert fired == [1, 2]

    def test_cancel_releases_callback_reference_immediately(self):
        import weakref

        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        event = sim.schedule_in(1.0, lambda: payload)
        event.cancel()
        del payload
        # The tombstone is still queued, but the closure is gone.
        assert ref() is None

    def test_fired_event_releases_callback_reference(self):
        import weakref

        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        sim.schedule_at(1.0, lambda: payload)
        later = sim.schedule_at(10.0, lambda: None)
        sim.run(until=5.0)
        del payload
        assert ref() is None
        later.cancel()


class TestCallIn:
    def test_call_in_orders_with_events(self):
        sim = Simulator()
        order = []
        sim.call_in(2.0, lambda: order.append("late"))
        sim.schedule_in(1.0, lambda: order.append("early"))
        sim.call_in(1.0, lambda: order.append("early-fifo-second"))
        sim.run()
        assert order == ["early", "early-fifo-second", "late"]

    def test_call_in_respects_priority(self):
        sim = Simulator()
        order = []
        sim.call_in(1.0, lambda: order.append("low"), 5)
        sim.call_in(1.0, lambda: order.append("high"), 0)
        sim.run()
        assert order == ["high", "low"]

    def test_call_in_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_in(-0.5, lambda: None)

    def test_call_in_beyond_until_survives_for_later_run(self):
        sim = Simulator()
        fired = []
        sim.call_in(10.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == []
        sim.run()
        assert fired == [1]
