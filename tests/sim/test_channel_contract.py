"""The instantaneous unit-disk channel's contract, tested below the MAC.

Every trial runs on this one channel model, so its observable rules are
pinned here directly against bare radio listeners:

* **Timing.**  Propagation is instantaneous: every receiver in range hears a
  frame over exactly ``[start, start + airtime]``, so all copies of one frame
  are delivered together at its trailing edge.
* **Range.**  Reception and carrier sense are inclusive disk tests, and the
  reception set is exactly the set of listeners inside the disk, delivered
  in attach order.
* **Collisions.**  Overlapping receptions at one receiver collide both; a
  receiver that is itself transmitting loses the frame (half-duplex); a
  frame that starts exactly when another ends does not collide with it.
* **Carrier sense.**  ``busy_horizon`` is the latest end of any in-progress
  transmission within carrier-sense range, and an expired transmission no
  longer counts at its own end instant.
* **Sleepers.**  A frozen backoff is woken at the first verified idle edge,
  never while a transmission still covers it.
* **Exactness of the channel caches.**  The grid index answers exactly what
  a brute-force disk scan over every listener answers, for fixed and moving
  listeners, and a seeded contention burst reproduces every delivery, ACK
  and counter of its golden capture.
"""

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.packet import Frame, Packet, PacketKind
from repro.sim.phy import PhyConfig

PHY = PhyConfig()  # 250 m reception, 400 m carrier sense

GOLDEN_BURSTS = json.loads(
    (Path(__file__).parent / "golden_seed_summaries.json").read_text(encoding="utf-8")
)["channel_bursts"]


class Radio:
    """A bare radio listener: a fixed point or a function of the clock."""

    def __init__(self, node_id, where, simulator, log):
        self.node_id = node_id
        self._where = where
        self._simulator = simulator
        self._log = log
        self.busy_until = -1.0

    def position(self):
        if callable(self._where):
            return self._where(self._simulator.now)
        return self._where

    def is_transmitting(self):
        return self._simulator.now < self.busy_until

    def radio_receive(self, frame, transmitter):
        self._log.append((self._simulator.now, self.node_id, transmitter))


def build(positions, *, phy=PHY, max_node_speed=0.0):
    """A channel with one :class:`Radio` per ``positions`` entry, in order."""
    simulator = Simulator()
    channel = Channel(simulator, phy, max_node_speed=max_node_speed)
    log = []
    radios = {}
    for node_id, where in positions.items():
        radios[node_id] = Radio(node_id, where, simulator, log)
        channel.attach(radios[node_id])
    return simulator, channel, radios, log


def frame(transmitter, receiver=None, *, size=256):
    packet = Packet(
        kind=PacketKind.DATA if receiver is not None else PacketKind.CONTROL,
        source=transmitter,
        destination=receiver if receiver is not None else "all",
        size_bytes=size,
        created_at=0.0,
    )
    return Frame(packet, transmitter, receiver)


def airtime(size=256):
    return PHY.transmission_time(frame("a", size=size))


def in_disk(a, b, radius):
    dx, dy = a[0] - b[0], a[1] - b[1]
    return (dx * dx + dy * dy) ** 0.5 <= radius


def scan_in_range(positions, origin, exclude):
    """The brute-force reference: every listener inside the reception disk
    around ``origin``, in attach (``positions``) order."""
    return [
        node
        for node, point in positions.items()
        if node != exclude and in_disk(point, origin, PHY.reception_range)
    ]


# -- timing and range ----------------------------------------------------------------


class TestArrivalTiming:
    def test_all_receivers_hear_at_the_trailing_edge(self):
        simulator, channel, _, log = build(
            {"tx": (0.0, 0.0), "near": (50.0, 0.0), "far": (200.0, 0.0)}
        )
        duration = channel.transmit("tx", frame("tx"))
        simulator.run()
        assert duration == airtime()
        assert log == [(duration, "near", "tx"), (duration, "far", "tx")]

    def test_arrival_is_offset_from_the_transmit_instant(self):
        simulator, channel, _, log = build({"tx": (0.0, 0.0), "rx": (10.0, 0.0)})
        durations = []
        simulator.schedule_at(
            3.25, lambda: durations.append(channel.transmit("tx", frame("tx")))
        )
        simulator.run()
        assert log == [(3.25 + durations[0], "rx", "tx")]

    def test_range_is_an_inclusive_disk(self):
        edge = PHY.reception_range
        simulator, channel, _, log = build(
            {
                "tx": (0.0, 0.0),
                "edge": (edge, 0.0),
                "beyond": (math.nextafter(edge, math.inf), 0.0),
            }
        )
        channel.transmit("tx", frame("tx"))
        simulator.run()
        assert [node for _, node, _ in log] == ["edge"]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=700.0),
                st.floats(min_value=0.0, max_value=700.0),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_receivers_are_exactly_the_listeners_in_range(self, points):
        positions = {index: point for index, point in enumerate(points)}
        simulator, channel, _, log = build(positions)
        duration = channel.transmit(0, frame(0))
        simulator.run()
        expected = scan_in_range(positions, positions[0], exclude=0)
        assert [node for _, node, _ in log] == expected
        assert all(when == duration for when, _, _ in log)
        assert channel.stats.receptions_delivered == len(expected)


class TestDeliveryOrder:
    def test_receivers_hear_in_attach_order(self):
        # Attach order deliberately disagrees with distance and with x.
        positions = {
            "c": (220.0, 0.0),
            "a": (10.0, 0.0),
            "tx": (0.0, 0.0),
            "b": (-150.0, 90.0),
        }
        simulator, channel, _, log = build(positions)
        channel.transmit("tx", frame("tx"))
        simulator.run()
        assert [node for _, node, _ in log] == ["c", "a", "b"]
        assert channel.neighbors_of("tx") == scan_in_range(
            positions, positions["tx"], exclude="tx"
        )


# -- carrier sense -------------------------------------------------------------------


class TestBusyHorizon:
    def test_idle_medium_reads_zero(self):
        _, channel, _, _ = build({"a": (0.0, 0.0), "b": (100.0, 0.0)})
        assert channel.busy_horizon("b") == 0.0
        assert not channel.is_busy_near("b")

    def test_in_range_transmission_holds_until_its_end(self):
        # 300 m: outside reception range but inside carrier-sense range.
        _, channel, _, _ = build({"a": (0.0, 0.0), "c": (300.0, 0.0)})
        duration = channel.transmit("a", frame("a"))
        assert channel.busy_horizon("c") == duration
        assert channel.is_busy_near("c")

    def test_sense_range_is_an_inclusive_disk(self):
        edge = PHY.carrier_sense_range
        _, channel, _, _ = build(
            {
                "a": (0.0, 0.0),
                "edge": (0.0, edge),
                "beyond": (0.0, math.nextafter(edge, math.inf)),
            }
        )
        duration = channel.transmit("a", frame("a"))
        assert channel.busy_horizon("edge") == duration
        assert channel.busy_horizon("beyond") == 0.0

    def test_latest_in_range_end_wins(self):
        _, channel, _, _ = build(
            {
                "short": (0.0, 0.0),
                "long": (100.0, 0.0),
                "distant": (2000.0, 0.0),
                "probe": (50.0, 50.0),
            }
        )
        short = channel.transmit("short", frame("short", size=64))
        long = channel.transmit("long", frame("long", size=1024))
        # Out of the probe's sense range, and longer still: ignored.
        channel.transmit("distant", frame("distant", size=2048))
        assert short < long
        assert channel.busy_horizon("probe") == long

    def test_medium_reads_idle_at_the_horizon(self):
        simulator, channel, _, _ = build({"a": (0.0, 0.0), "b": (100.0, 0.0)})
        duration = channel.transmit("a", frame("a"))
        seen = []
        # Priority 0 runs before the channel's own end-of-air event at the
        # same instant: the expired transmission must already be ignored.
        simulator.schedule_at(
            duration,
            lambda: seen.append((channel.busy_horizon("b"), channel.is_busy_near("b"))),
        )
        simulator.run()
        assert seen == [(0.0, False)]


# -- collisions ----------------------------------------------------------------------


class TestCollisionRules:
    def test_overlap_mid_air_collides_both(self):
        simulator, channel, _, log = build(
            {"left": (0.0, 0.0), "mid": (200.0, 0.0), "right": (400.0, 0.0)}
        )
        acks = []
        channel.transmit("left", frame("left", "mid"), acks.append)
        simulator.schedule_at(
            airtime() / 2,
            lambda: channel.transmit("right", frame("right", "mid"), acks.append),
        )
        simulator.run()
        assert log == []
        assert acks == [False, False]
        assert channel.stats.collisions == 2

    def test_back_to_back_frames_do_not_collide(self):
        simulator, channel, _, log = build({"a": (0.0, 0.0), "b": (100.0, 0.0)})
        duration = channel.transmit("a", frame("a"))
        # Starts at the first frame's end, before its end-of-air event runs.
        simulator.schedule_at(duration, lambda: channel.transmit("a", frame("a")))
        simulator.run()
        assert [node for _, node, _ in log] == ["b", "b"]
        assert channel.stats.collisions == 0

    def test_transmitting_receiver_loses_the_frame(self):
        simulator, channel, radios, log = build(
            {"a": (0.0, 0.0), "b": (100.0, 0.0), "c": (-100.0, 0.0)}
        )
        radios["b"].busy_until = 1.0
        channel.transmit("a", frame("a"))
        simulator.run()
        assert [node for _, node, _ in log] == ["c"]
        assert channel.stats.collisions == 1

    def test_unicast_ack_reports_delivery_to_the_target(self):
        simulator, channel, _, _ = build(
            {"a": (0.0, 0.0), "b": (100.0, 0.0), "far": (900.0, 0.0)}
        )
        acks = []
        channel.transmit("a", frame("a", "b"), lambda ok: acks.append(("b", ok)))
        simulator.run()
        channel.transmit("a", frame("a", "far"), lambda ok: acks.append(("far", ok)))
        simulator.run()
        assert acks == [("b", True), ("far", False)]


class TestAccounting:
    def test_every_started_reception_is_delivered_or_collided(self):
        rng = random.Random(7)
        positions = {
            node: (rng.uniform(0, 600), rng.uniform(0, 600)) for node in range(10)
        }
        simulator, channel, _, log = build(positions)
        for _ in range(30):
            node = rng.randrange(10)
            simulator.schedule_at(
                rng.uniform(0.0, 0.03),
                lambda node=node: channel.transmit(node, frame(node)),
            )
        simulator.run()
        stats = channel.stats
        assert stats.transmissions == 30
        assert stats.collisions > 0
        assert stats.receptions_started == stats.receptions_delivered + stats.collisions
        assert stats.receptions_delivered == len(log)


# -- frozen-backoff sleepers ---------------------------------------------------------


class TestSleepers:
    def test_sleeper_wakes_at_the_idle_edge(self):
        simulator, channel, _, _ = build({"a": (0.0, 0.0), "s": (300.0, 0.0)})
        duration = channel.transmit("a", frame("a"))
        woke = []
        channel.freeze("s", channel.busy_horizon("s"), lambda: woke.append(simulator.now))
        simulator.run()
        assert woke == [duration]

    def test_sleeper_stays_frozen_while_another_frame_covers_it(self):
        simulator, channel, _, _ = build(
            {"a": (0.0, 0.0), "b": (100.0, 0.0), "s": (50.0, 100.0)}
        )
        short = channel.transmit("a", frame("a", size=64))
        long = channel.transmit("b", frame("b", size=1024))
        woke = []
        # A stale hint (the short frame's end): the finish at that instant
        # must find the long frame still on the air and keep sleeping.
        channel.freeze("s", short, lambda: woke.append(simulator.now))
        simulator.run()
        assert woke == [long]

    def test_reregistering_overwrites_the_callback(self):
        simulator, channel, _, _ = build({"a": (0.0, 0.0), "s": (100.0, 0.0)})
        duration = channel.transmit("a", frame("a"))
        woke = []
        channel.freeze("s", duration, lambda: woke.append("first"))
        channel.freeze("s", duration, lambda: woke.append("second"))
        simulator.run()
        assert woke == ["second"]

    def test_empty_medium_wakes_every_sleeper(self):
        simulator, channel, _, _ = build({"a": (0.0, 0.0), "s": (100.0, 0.0)})
        duration = channel.transmit("a", frame("a"))
        woke = []
        # A hint far past the real horizon cannot strand the sleeper: the
        # last frame leaving the air is an idle edge for everyone.
        channel.freeze("s", 10 * duration, lambda: woke.append(simulator.now))
        simulator.run()
        assert woke == [duration]

    def test_retry_from_the_ack_runs_before_sleepers_wake(self):
        simulator, channel, _, _ = build(
            {"a": (0.0, 0.0), "b": (100.0, 0.0), "s": (50.0, 100.0)}
        )
        retries = []

        def on_complete(ok):
            if not retries:
                retries.append(channel.transmit("a", frame("a", "b")))

        first = channel.transmit("a", frame("a", "b"), on_complete)
        woke = []
        channel.freeze("s", first, lambda: woke.append(simulator.now))
        simulator.run()
        assert woke == [first + retries[0]]


# -- moving listeners ----------------------------------------------------------------


class TestMovingListener:
    def test_mover_is_tracked_across_grid_cells(self):
        # Moves along y = 0 at 20 m/s from x = 0 to x = 1800 over 90 s,
        # crossing several 250 m grid cells and every static node's disk.
        def mover(t):
            return (min(20.0 * t, 1800.0), 0.0)

        static = {f"s{x}": (float(x), 120.0) for x in range(0, 1801, 300)}
        instants = (0.0, 7.5, 22.0, 46.0, 61.25, 89.0)
        simulator, channel, _, log = build({"m": mover, **static}, max_node_speed=20.0)
        neighbours = []

        def send():
            neighbours.append(channel.neighbors_of("m"))
            channel.transmit("m", frame("m"))

        for when in instants:
            simulator.schedule_at(when, send)
        simulator.run()
        expected = [scan_in_range(static, mover(t), exclude="m") for t in instants]
        assert neighbours == expected
        heard = [node for nodes in expected for node in nodes]
        assert [node for _, node, _ in log] == heard


# -- cache exactness -----------------------------------------------------------------


def burst(*, mobile):
    """A seeded contention burst: every delivery, ACK and counter it yields.

    Fourteen radios on a 700 m square (moving at up to 20 m/s when
    ``mobile``) send sixty broadcast and unicast frames, half-duplex, at
    random instants packed tightly enough that many of them overlap.
    """
    rng = random.Random(2024)
    positions = {}
    for node in range(14):
        x, y = rng.uniform(0, 700), rng.uniform(0, 700)
        if mobile:
            heading = rng.uniform(0, 2 * math.pi)
            speed = rng.uniform(0, 20.0)
            vx, vy = speed * math.cos(heading), speed * math.sin(heading)
            positions[node] = lambda t, x=x, y=y, vx=vx, vy=vy: (x + vx * t, y + vy * t)
        else:
            positions[node] = (x, y)
    simulator, channel, radios, log = build(positions, max_node_speed=20.0)
    acks = []

    def send(node, receiver, size):
        if radios[node].is_transmitting():
            return
        duration = channel.transmit(
            node,
            frame(node, receiver, size=size),
            None if receiver is None else lambda ok: acks.append((node, receiver, ok)),
        )
        radios[node].busy_until = simulator.now + duration

    for _ in range(60):
        node = rng.randrange(14)
        receiver = rng.choice([None, (node + rng.randrange(1, 14)) % 14])
        simulator.schedule_at(
            rng.uniform(0.0, 0.2),
            lambda node=node, receiver=receiver, size=rng.choice((64, 256, 1024)): (
                send(node, receiver, size)
            ),
        )
    simulator.run()
    return log, acks, channel.stats


def burst_capture(mobile):
    """:func:`burst`'s outcome as a golden capture: the counters, plus one
    digest over every (time, receiver, transmitter) delivery and every ACK."""
    log, acks, stats = burst(mobile=mobile)
    digest = hashlib.sha256(repr((log, acks)).encode("utf-8")).hexdigest()
    return {"digest": digest, "stats": dataclasses.asdict(stats)}


class TestChannelCacheExactness:
    @pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
    def test_burst_matches_golden_capture(self, mobile):
        log, acks, stats = burst(mobile=mobile)
        # The burst must exercise what the channel's caches could get wrong.
        assert log and stats.collisions > 0
        assert any(ok for _, _, ok in acks) and not all(ok for _, _, ok in acks)
        expected = GOLDEN_BURSTS["mobile" if mobile else "static"]
        assert burst_capture(mobile) == expected
