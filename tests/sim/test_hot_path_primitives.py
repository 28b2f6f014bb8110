"""The trial hot path's exact primitives, each held to its reference.

Where the simulator computes something a cheaper way than the obvious one —
an inlined random draw, a precompiled mobility segment table, recycled
frames — the answer must not change.  Each test here compares one such
primitive with the plain computation it replaces, bit for bit.  Whole trials
are held to the golden captures in ``test_runtime_seam.py``.
"""

import random

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.sim.network import build_network
from repro.sim.packet import Frame, Packet, PacketKind


class TestTrialEquivalence:
    def test_randint_fallback_for_rng_subclasses_is_exact(self):
        """The MAC inlines its backoff draw only for ``random.Random``
        itself; any subclass goes through ``randint``.  Both must consume
        the stream identically."""

        class SubclassedRandom(random.Random):
            pass

        scenario = EvaluationScale.smoke().scenario
        inlined = build_network(scenario, protocol_factory("OLSR"))
        fallback = build_network(scenario, protocol_factory("OLSR"))
        for node in fallback.nodes.values():
            rng = SubclassedRandom()
            rng.setstate(node.mac._rng.getstate())
            node.mac._rng = rng
        assert inlined.run() == fallback.run()
        assert (
            inlined.simulator.events_processed
            == fallback.simulator.events_processed
        )


class TestPrimitiveEquivalence:
    """The primitives, exercised directly."""

    def test_inlined_randbelow_matches_randint(self):
        """The MAC's inlined rejection loop consumes the identical
        getrandbits draws as random.Random.randint."""
        for window in (16, 32, 1024):
            reference = random.Random(99)
            fast = random.Random(99)
            jitter_n = window + 1
            jitter_bits = jitter_n.bit_length()
            getrandbits = fast.getrandbits
            for _ in range(500):
                expected = reference.randint(0, window)
                r = getrandbits(jitter_bits)
                while r >= jitter_n:
                    r = getrandbits(jitter_bits)
                assert r == expected

    def test_segment_table_matches_waypoint_interpolation(self):
        """``position_at_xy`` reads the segment table; ``position_at`` asks
        the covering :class:`Waypoint` leg, the reference."""
        from repro.sim.mobility import RandomWaypointMobility
        from repro.sim.space import Terrain

        terrain = Terrain(900.0, 400.0)
        table = RandomWaypointMobility(terrain, random.Random(7), pause_time=2.0)
        legs = RandomWaypointMobility(terrain, random.Random(7), pause_time=2.0)
        times = [random.Random(3).uniform(0, 300) for _ in range(200)]
        # Sorted plus revisits: the trace extends lazily either way.
        for t in sorted(times) + times[:20]:
            point = legs.position_at(t)
            assert table.position_at_xy(t) == (point.x, point.y)

    def test_segment_for_covers_and_evaluates_exactly(self):
        from repro.sim.mobility import RandomWaypointMobility
        from repro.sim.space import Terrain

        model = RandomWaypointMobility(
            Terrain(900.0, 400.0), random.Random(11), pause_time=1.0
        )
        rng = random.Random(13)
        for _ in range(200):
            t = rng.uniform(0, 200)
            segment = model.segment_for(t)
            valid_from, depart, arrival, sx, sy, ex, ey = segment
            assert valid_from <= t <= arrival
            # Evaluate the inlined expressions the channel uses.
            if t <= depart:
                position = (sx, sy)
            elif t >= arrival:
                position = (ex, ey)
            else:
                travel = arrival - depart
                fraction = (t - depart) / travel if travel > 0 else 1.0
                fraction = min(max(fraction, 0.0), 1.0)
                position = (sx + (ex - sx) * fraction, sy + (ey - sy) * fraction)
            assert position == model.position_at_xy(t)

    def test_static_mobility_segment_is_eternal_pause(self):
        from repro.sim.mobility import StaticMobility
        from repro.sim.space import Position

        model = StaticMobility(Position(12.0, 34.0))
        segment = model.segment_for(5.0)
        assert segment[0] == 0.0 and segment[1] == float("inf")
        assert (segment[3], segment[4]) == (12.0, 34.0)

    def test_frame_reinit_repurposes_in_place(self):
        packet_a = Packet(PacketKind.DATA, 0, 1, 100, 0.0)
        packet_b = Packet(PacketKind.CONTROL, 2, 3, 52, 1.0)
        frame = Frame(packet=packet_a, transmitter=0, receiver=1, enqueued_at=0.0)
        original_uid = frame.uid
        same = frame.reinit(packet_b, 2, 3, 1.5)
        assert same is frame
        assert frame.packet is packet_b
        assert frame.transmitter == 2 and frame.receiver == 3
        assert frame.enqueued_at == 1.5
        assert frame.uid != original_uid

    def test_copy_for_forwarding_shares_uid_and_fields(self):
        packet = Packet(
            PacketKind.DATA, 4, 9, 512, 2.5, payload="x", flow_id=7, hops=3
        )
        copy = packet.copy_for_forwarding()
        assert copy is not packet
        assert copy == packet

    def test_rreq_cache_expiry_prefix_scan(self):
        """Entries are created in time order, so the prefix scan drops
        exactly the stale ones."""
        from repro.protocols.common import RreqCache

        cache = RreqCache(max_age=10.0)
        for i in range(5):
            cache.activate(source=i, rreq_id=i, now=float(i))
        cache.expire(now=12.5)  # ages 12.5..8.5 -> the first three are stale
        assert len(cache) == 2
        for stale in (0, 1, 2):
            assert cache.get(stale, stale) is None
        assert cache.get(3, 3) is not None and cache.get(4, 4) is not None
