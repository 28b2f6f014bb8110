"""Optimization-equivalence tests: every fast path is exact.

PR 5's contract (the same one PR 1 made for the spatial index): for a fixed
seed, a trial produces a **bit-identical** :class:`TrialSummary` with every
hot-path optimization enabled or disabled — the fast paths change how fast
the answer arrives, never the answer.  These tests enforce that contract at
smoke scale for all five protocols, for each fast path in isolation, and for
the OLSR incremental-routing flag that lives in the protocol config.
"""

import random

import pytest

from repro.experiments.paper import EvaluationScale
from repro.protocols import protocol_factory
from repro.protocols.olsr import OlsrConfig, OlsrProtocol
from repro.sim.network import build_network, run_trial
from repro.sim.packet import Frame, Packet, PacketKind
from repro.sim.tuning import FastPaths
from repro.workloads.scenario import scaled_scenario

PROTOCOLS = ("SRP", "LDR", "AODV", "DSR", "OLSR")

FLAG_NAMES = (
    "mobility_segments",
    "reception_memo",
    "frame_pool",
    "airtime_memo",
    "grid_prefilter",
    "batch_receptions",
)


def smoke_scenario(pause_time: float = 0.0):
    return EvaluationScale.smoke().scenario.with_pause_time(pause_time)


class TestTrialEquivalence:
    """Whole-trial bit-identity, the acceptance property."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_all_fast_paths_off_vs_on(self, protocol):
        scenario = smoke_scenario()
        off = build_network(
            scenario, protocol_factory(protocol), fast_paths=FastPaths.none()
        )
        summary_off = off.run()
        on = build_network(
            scenario, protocol_factory(protocol), fast_paths=FastPaths()
        )
        summary_on = on.run()
        assert summary_off == summary_on
        # Same simulation, event for event — not merely the same headline
        # numbers.
        assert off.simulator.events_processed == on.simulator.events_processed

    @pytest.mark.parametrize("flag", FLAG_NAMES)
    def test_each_fast_path_alone(self, flag):
        """Each flag toggled on by itself matches the all-off reference.

        Uses OLSR (the densest trial: saturated channel, floods, constant
        route churn) so every fast path is actually exercised.
        """
        scenario = smoke_scenario()
        reference = run_trial(
            scenario, protocol_factory("OLSR"), fast_paths=FastPaths.none()
        )
        single = run_trial(
            scenario, protocol_factory("OLSR"), fast_paths=FastPaths.only(flag)
        )
        assert single == reference, f"fast path {flag} changed the trial"

    @pytest.mark.parametrize("pause_time", [0.0, 25.0])
    def test_pause_time_extremes(self, pause_time):
        """Paused nodes exercise the zero-drift certification paths."""
        scenario = smoke_scenario(pause_time)
        for protocol in ("SRP", "OLSR"):
            off = run_trial(
                scenario, protocol_factory(protocol), fast_paths=FastPaths.none()
            )
            on = run_trial(scenario, protocol_factory(protocol))
            assert off == on

    def test_static_positions_trials_match(self):
        scenario = scaled_scenario(
            node_count=12, flow_count=3, duration=15.0, seed=5
        )
        off = run_trial(
            scenario,
            protocol_factory("SRP"),
            static_positions=True,
            fast_paths=FastPaths.none(),
        )
        on = run_trial(
            scenario, protocol_factory("SRP"), static_positions=True
        )
        assert off == on

    def test_randint_fallback_for_rng_subclasses_is_exact(self):
        """The MAC inlines its backoff draw only for ``random.Random``
        itself; any subclass goes through ``randint``.  Both must consume
        the stream identically."""

        class SubclassedRandom(random.Random):
            pass

        scenario = smoke_scenario()
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

    def test_incremental_olsr_routing_is_exact(self):
        scenario = smoke_scenario()
        incremental = run_trial(
            scenario, lambda nid: OlsrProtocol(OlsrConfig(incremental_routes=True))
        )
        full = run_trial(
            scenario,
            lambda nid: OlsrProtocol(OlsrConfig(incremental_routes=False)),
        )
        assert incremental == full


class TestFastPathsFlags:
    def test_none_disables_everything(self):
        none = FastPaths.none()
        assert not any(getattr(none, flag) for flag in FLAG_NAMES)

    def test_only_enables_exactly_the_named_flags(self):
        only = FastPaths.only("reception_memo", "frame_pool")
        assert only.reception_memo and only.frame_pool
        assert not only.airtime_memo and not only.mobility_segments

    def test_only_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown fast paths"):
            FastPaths.only("warp_drive")

    def test_default_is_all_on(self):
        default = FastPaths()
        assert all(getattr(default, flag) for flag in FLAG_NAMES)


class TestPrimitiveEquivalence:
    """The primitives behind the flags, exercised directly."""

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

    def test_airtime_memo_matches_phy(self):
        from repro.sim.channel import Channel
        from repro.sim.engine import Simulator
        from repro.sim.phy import PhyConfig

        phy = PhyConfig()
        channel = Channel(Simulator(), phy)
        for size in (52, 44, 512, 512, 52):
            frame = Frame(
                packet=Packet(
                    kind=PacketKind.DATA,
                    source=0,
                    destination=1,
                    size_bytes=size,
                    created_at=0.0,
                ),
                transmitter=0,
                receiver=1,
            )
            assert channel.airtime(frame) == phy.transmission_time(frame)

    def test_segment_table_matches_waypoint_interpolation(self):
        from repro.sim.mobility import RandomWaypointMobility
        from repro.sim.space import Terrain

        terrain = Terrain(900.0, 400.0)
        with_table = RandomWaypointMobility(
            terrain, random.Random(7), pause_time=2.0, use_segment_table=True
        )
        without = RandomWaypointMobility(
            terrain, random.Random(7), pause_time=2.0, use_segment_table=False
        )
        times = [random.Random(3).uniform(0, 300) for _ in range(200)]
        # Sorted plus revisits: the trace extends lazily either way.
        for t in sorted(times) + times[:20]:
            assert with_table.position_at_xy(t) == without.position_at_xy(t)
            point = with_table.position_at(t)
            assert with_table.position_at_xy(t) == (point.x, point.y)

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

    def test_bulk_positions_at_matches_per_model_queries(self):
        from repro.sim.mobility import (
            RandomWaypointMobility,
            StaticMobility,
            bulk_positions_at,
        )
        from repro.sim.space import Position, Terrain

        terrain = Terrain(900.0, 400.0)
        models = {
            "a": RandomWaypointMobility(terrain, random.Random(1)),
            "b": RandomWaypointMobility(terrain, random.Random(2), pause_time=5.0),
            "c": StaticMobility(Position(1.0, 2.0)),
        }
        for t in (0.0, 3.7, 42.0):
            snapshot = bulk_positions_at(models, t)
            assert snapshot == {
                name: model.position_at_xy(t) for name, model in models.items()
            }

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
