"""Tests for random streams, terrain geometry and mobility models."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.mobility import RandomWaypointMobility, StaticMobility
from repro.sim.rng import RngStreams, derive_seed
from repro.sim.space import Position, Terrain


class TestRngStreams:
    def test_same_seed_and_name_same_sequence(self):
        a = RngStreams(42).get("mobility")
        b = RngStreams(42).get("mobility")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RngStreams(42)
        assert streams.get("mobility").random() != streams.get("traffic").random()

    def test_get_returns_same_object(self):
        streams = RngStreams(1)
        assert streams.get("x") is streams.get("x")

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

class TestPositionAndTerrain:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_interpolate(self):
        mid = Position(0, 0).interpolate(Position(10, 10), 0.5)
        assert (mid.x, mid.y) == (5.0, 5.0)

    def test_interpolate_clamps_fraction(self):
        assert Position(0, 0).interpolate(Position(10, 0), 2.0) == Position(10, 0)

    def test_terrain_contains(self):
        terrain = Terrain(100, 50)
        assert terrain.contains(Position(50, 25))
        assert not terrain.contains(Position(150, 25))

    def test_terrain_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            Terrain(0, 10)

    def test_random_position_inside(self):
        terrain = Terrain(2200, 600)
        rng = random.Random(1)
        for _ in range(100):
            assert terrain.contains(terrain.random_position(rng))


class TestStaticMobility:
    def test_position_is_constant(self):
        model = StaticMobility(Position(10, 20))
        assert model.position_at(0.0) == Position(10, 20)
        assert model.position_at(1000.0) == Position(10, 20)


class TestRandomWaypointMobility:
    def _model(self, pause_time=0.0, seed=1, max_speed=20.0):
        terrain = Terrain(1000, 500)
        return RandomWaypointMobility(
            terrain,
            random.Random(seed),
            max_speed=max_speed,
            pause_time=pause_time,
        )

    def test_positions_stay_in_terrain(self):
        model = self._model()
        terrain = Terrain(1000, 500)
        for t in range(0, 900, 10):
            assert terrain.contains(model.position_at(float(t)))

    def test_deterministic_given_seed(self):
        a, b = self._model(seed=7), self._model(seed=7)
        for t in (0.0, 10.0, 100.0, 500.0):
            assert a.position_at(t) == b.position_at(t)

    def test_pause_time_keeps_node_still(self):
        model = self._model(pause_time=50.0)
        start = model.position_at(0.0)
        assert model.position_at(25.0) == start
        assert model.position_at(49.0) == start

    def test_movement_happens_after_pause(self):
        model = self._model(pause_time=5.0)
        start = model.position_at(0.0)
        later = model.position_at(200.0)
        assert (start.x, start.y) != (later.x, later.y)

    def test_speed_bound_respected(self):
        model = self._model(max_speed=20.0)
        previous = model.position_at(0.0)
        for t in range(1, 300):
            current = model.position_at(float(t))
            assert previous.distance_to(current) <= 20.0 + 1e-6
            previous = current

    def test_rejects_bad_parameters(self):
        terrain = Terrain(100, 100)
        with pytest.raises(ValueError):
            RandomWaypointMobility(terrain, random.Random(1), max_speed=0.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(terrain, random.Random(1), pause_time=-1.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(
                terrain, random.Random(1), min_speed=30.0, max_speed=20.0
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            self._model().position_at(-1.0)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_any_query_time_is_valid(self, time, seed):
        """Property: the lazily extended trace always covers the query and the
        result is inside the terrain (no degenerate-leg infinite loops)."""
        terrain = Terrain(500, 200)
        model = RandomWaypointMobility(
            terrain, random.Random(seed), max_speed=20.0, pause_time=0.0
        )
        assert terrain.contains(model.position_at(float(time)))
