"""Tests for the spatial grid index and the channel's cached geometry.

The index and the channel caches are performance features that must be
*invisible*: every query answer, and therefore every trial outcome, must be
identical to the brute-force O(N) scans they replace.  These tests pin that
down with randomized brute-force comparisons (including points exactly at the
range boundary and on cell borders) and a fixed-seed trial equivalence check.
"""

import math
import random

import pytest

from repro.protocols import PROTOCOLS, protocol_factory
from repro.sim.faults import fault_preset
from repro.sim.network import build_network, run_trial
from repro.sim.spatial import SpatialGrid
from repro.workloads.scenario import scaled_scenario


def brute_force_within(points, origin, radius):
    """Reference answer: inclusive disk membership by full scan.

    Uses the exact distance expression of the channel scan and the grid
    (``sqrt(dx² + dy²)``, not ``math.hypot``) so boundary points compare
    bit-for-bit identically.
    """
    ox, oy = origin
    return {
        key
        for key, (x, y) in points.items()
        if ((x - ox) ** 2 + (y - oy) ** 2) ** 0.5 <= radius
    }


def candidates(grid, origin, radius):
    """Every key in the buckets ``candidate_buckets`` returns."""
    buckets = grid.candidate_buckets(origin, radius)
    return [key for bucket in buckets for key, _, _ in bucket]


def grid_within(grid, origin, radius):
    """The candidates filtered with the brute-force distance test, as the
    channel's reception-set query filters them."""
    ox, oy = origin
    return [
        key
        for bucket in grid.candidate_buckets(origin, radius)
        for key, x, y in bucket
        if ((x - ox) ** 2 + (y - oy) ** 2) ** 0.5 <= radius
    ]


class TestSpatialGridBasics:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            SpatialGrid(0)
        with pytest.raises(ValueError):
            SpatialGrid(-5.0)

    def test_empty_grid_has_no_neighbors(self):
        grid = SpatialGrid(100.0)
        assert grid.candidate_buckets((0.0, 0.0), 1e9) == []

    def test_negative_radius_matches_nothing(self):
        grid = SpatialGrid(100.0)
        grid.insert("a", 0.0, 0.0)
        assert grid.candidate_buckets((0.0, 0.0), -1.0) == []

    def test_zero_radius_is_inclusive(self):
        grid = SpatialGrid(100.0)
        grid.insert("a", 5.0, 5.0)
        grid.insert("b", 5.0, 6.0)
        assert grid_within(grid, (5.0, 5.0), 0.0) == ["a"]

    def test_boundary_point_is_included(self):
        grid = SpatialGrid(250.0)
        grid.insert("edge", 250.0, 0.0)
        grid.insert("beyond", 250.0000001, 0.0)
        assert grid_within(grid, (0.0, 0.0), 250.0) == ["edge"]

    def test_points_on_cell_borders(self):
        # Points exactly on cell boundaries (multiples of the cell size) land
        # in a well-defined cell and are still found across cell lines.
        grid = SpatialGrid(100.0)
        for i, x in enumerate((0.0, 100.0, 200.0, 300.0)):
            grid.insert(i, x, 100.0)
        assert sorted(grid_within(grid, (100.0, 100.0), 100.0)) == [0, 1, 2]

    def test_negative_coordinates(self):
        grid = SpatialGrid(50.0)
        grid.insert("nw", -75.0, -75.0)
        grid.insert("se", 75.0, 75.0)
        assert grid_within(grid, (-70.0, -70.0), 10.0) == ["nw"]

    def test_clear_and_rebuild(self):
        grid = SpatialGrid(10.0)
        grid.insert("a", 1.0, 1.0)
        grid.clear()
        assert grid.candidate_buckets((0.0, 0.0), 1e9) == []
        grid.build([("b", 2.0, 2.0), ("c", 3.0, 3.0)])
        assert sorted(candidates(grid, (0.0, 0.0), 1e9)) == ["b", "c"]
        assert sorted(grid_within(grid, (2.5, 2.5), 5.0)) == ["b", "c"]


class TestSpatialGridAgainstBruteForce:
    @pytest.mark.parametrize("trial_seed", range(8))
    @pytest.mark.parametrize("cell_size", [30.0, 100.0, 250.0])
    def test_random_layouts_match_brute_force(self, trial_seed, cell_size):
        rng = random.Random(1000 + trial_seed)
        points = {
            i: (rng.uniform(-100.0, 1100.0), rng.uniform(-100.0, 500.0))
            for i in range(rng.randint(1, 120))
        }
        grid = SpatialGrid(cell_size)
        grid.build((key, x, y) for key, (x, y) in points.items())
        for _ in range(25):
            origin = (rng.uniform(-200.0, 1200.0), rng.uniform(-200.0, 600.0))
            radius = rng.choice([0.0, 10.0, 75.0, 250.0, 400.0, 2000.0])
            expected = brute_force_within(points, origin, radius)
            got = grid_within(grid, origin, radius)
            assert len(got) == len(set(got)), "no key may be reported twice"
            assert set(got) == expected
            # Candidates must be a superset of the true neighbour set.
            assert set(candidates(grid, origin, radius)) >= expected

    def test_boundary_and_cell_border_layout(self):
        # Nodes at exact multiples of the cell size and at the exact query
        # radius, probed from a grid-corner origin.
        cell = 100.0
        points = {}
        key = 0
        for x in range(0, 501, 100):
            for y in range(0, 501, 100):
                points[key] = (float(x), float(y))
                key += 1
        grid = SpatialGrid(cell)
        grid.build((k, x, y) for k, (x, y) in points.items())
        for radius in (0.0, 100.0, 141.4213562373095, 200.0, 500.0):
            for origin in ((0.0, 0.0), (100.0, 100.0), (250.0, 250.0)):
                assert set(grid_within(grid, origin, radius)) == (
                    brute_force_within(points, origin, radius)
                )

    def test_candidates_with_inflated_radius_cover_moved_points(self):
        # The channel queries a stale snapshot with the radius inflated by
        # the drift bound; every point within `radius` of the origin *after*
        # moving up to `drift` must appear among the candidates.
        rng = random.Random(7)
        stale = {i: (rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(80)}
        drift = 60.0
        moved = {}
        for key, (x, y) in stale.items():
            angle = rng.uniform(0, 2 * math.pi)
            step = rng.uniform(0, drift)
            moved[key] = (x + step * math.cos(angle), y + step * math.sin(angle))
        grid = SpatialGrid(250.0)
        grid.build((k, x, y) for k, (x, y) in stale.items())
        for _ in range(20):
            origin = moved[rng.randrange(80)]
            radius = 250.0
            truly_in_range = brute_force_within(moved, origin, radius)
            assert set(candidates(grid, origin, radius + drift)) >= truly_in_range


class TestTrialEquivalence:
    @pytest.mark.parametrize(
        "preset", [None, "churn-partition"], ids=["clean", "churn-partition"]
    )
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_trial_reception_sets_match_brute_force(self, protocol, preset):
        """Every reception set the channel computes from its grid during a
        fixed-seed trial equals a full scan of every node's exact position,
        in node order — for each protocol's traffic pattern, and with nodes
        crashing and the terrain partitioned."""
        scenario = scaled_scenario(
            node_count=14,
            flow_count=3,
            duration=20.0,
            terrain_width=800.0,
            terrain_height=300.0,
            seed=97,
        )
        if preset is not None:
            scenario = scenario.with_faults(fault_preset(preset, scenario))
        network = build_network(scenario, protocol_factory(protocol))
        channel = network.channel
        neighbors_of = channel.neighbors_of
        checked = []

        def checked_neighbors_of(node_id):
            got = neighbors_of(node_id)
            positions = {
                other: node.position() for other, node in network.nodes.items()
            }
            expected = brute_force_within(
                positions, positions[node_id], scenario.phy.reception_range
            )
            expected.discard(node_id)
            assert got == sorted(expected)
            checked.append(node_id)
            return got

        channel.neighbors_of = checked_neighbors_of
        network.run()
        assert len(checked) > 100

    def test_repeat_runs_are_deterministic(self):
        scenario = scaled_scenario(
            node_count=12,
            flow_count=2,
            duration=8.0,
            terrain_width=700.0,
            terrain_height=300.0,
            seed=55,
        )
        first = run_trial(scenario, protocol_factory("SRP"))
        second = run_trial(scenario, protocol_factory("SRP"))
        assert first == second
