"""Topology builders, the orbiting sink path, and Poisson traffic."""

import math

import numpy as np
import pytest

from antwsn.kernel import RandomStream
from antwsn.scenario import (REFERENCE_NODES, REFERENCE_SIDE, SinkTrajectory,
                             TopologyError, data_times, from_points, make_grid,
                             make_random_square, make_trajectory,
                             traffic_schedule)


class TestGrid:
    def test_shape_and_neighbors(self):
        top = make_grid(9, spacing=20.0, tx_radius=35.0)
        assert top.n == 9
        assert top.side == 40.0
        # corner sees its two orthogonal neighbors plus the diagonal
        assert top.neighbors[0] == [1, 3, 4]
        # center of the 3x3 reaches everyone
        assert top.neighbors[4] == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_non_square_count_rejected(self):
        with pytest.raises(TopologyError):
            make_grid(10)

    def test_spacing_beyond_radius_rejected(self):
        with pytest.raises(TopologyError):
            make_grid(9, spacing=40.0, tx_radius=35.0)


class TestFromPoints:
    def test_builds_neighbor_lists(self):
        top = from_points([(0, 0), (20, 0), (40, 0)])
        assert top.neighbors == [[1], [0, 2], [1]]

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            from_points([(0, 0), (100, 0)])

    def test_disconnected_allowed_when_asked(self):
        top = from_points([(0, 0), (100, 0)], require_connected=False)
        assert top.neighbors == [[], []]


class TestRandomSquare:
    def test_density_preserving_side(self):
        rng = RandomStream(1, "topology")
        top = make_random_square(49, rng)
        assert top.side == REFERENCE_SIDE
        top100 = make_random_square(100, RandomStream(1, "topology"))
        assert top100.side == pytest.approx(
            REFERENCE_SIDE * math.sqrt(100 / REFERENCE_NODES))

    def test_connected_and_in_bounds(self):
        for seed in (1, 2, 3):
            top = make_random_square(25, RandomStream(seed, "topology"))
            assert top.n == 25
            assert np.all(top.positions >= 0) and np.all(top.positions <= top.side)
            assert all(top.neighbors[i] for i in range(top.n))

    def test_reproducible(self):
        a = make_random_square(16, RandomStream(7, "topology"))
        b = make_random_square(16, RandomStream(7, "topology"))
        assert np.array_equal(a.positions, b.positions)

    def test_too_few_nodes(self):
        with pytest.raises(TopologyError):
            make_random_square(1, RandomStream(1, "topology"))


class TestNearestNode:
    def test_basic_and_tie_break(self):
        top = from_points([(0, 0), (20, 0)])
        assert top.nearest_node((1, 0)) == 0
        assert top.nearest_node((10, 0)) == 0  # equidistant: lowest id wins

    def test_alive_mask_skips_dead(self):
        top = from_points([(0, 0), (20, 0)])
        assert top.nearest_node((1, 0), alive_mask=np.array([False, True])) == 1


class TestTrajectory:
    def test_circle_and_clipping(self):
        traj = SinkTrajectory(center=(50, 50), radius=10, angular_speed=math.pi,
                              side=100.0)
        x, y = traj.position(0.0)
        assert (x, y) == pytest.approx((60.0, 50.0))
        x, y = traj.position(1.0)  # half turn
        assert (x, y) == pytest.approx((40.0, 50.0))
        clipped = SinkTrajectory(center=(0, 0), radius=10, angular_speed=0.0,
                                 side=5.0)
        assert clipped.position(0.0) == (5.0, 0.0)

    def test_negative_time_rejected(self):
        traj = SinkTrajectory((0, 0), 1, 1, 10)
        with pytest.raises(ValueError):
            traj.position(-0.1)

    def test_make_trajectory_one_revolution(self):
        traj = make_trajectory(140.0, 100.0, RandomStream(4, "mobility"),
                               radius_frac=0.25)
        assert traj.radius == pytest.approx(35.0)
        assert traj.angular_speed == pytest.approx(2 * math.pi / 100.0)
        assert 0 <= traj.center[0] <= 140 and 0 <= traj.center[1] <= 140


class TestTraffic:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            data_times(0.0, 10.0, RandomStream(1, "traffic"))

    def test_times_sorted_in_window(self):
        times = data_times(2.0, 50.0, RandomStream(1, "traffic"))
        assert times == sorted(times)
        assert all(0 <= t < 50.0 for t in times)

    def test_mean_count_tracks_rate(self):
        times = data_times(5.0, 200.0, RandomStream(9, "traffic"))
        assert 850 <= len(times) <= 1150  # 1000 expected

    def test_schedule_skips_sink(self):
        events = traffic_schedule(4, sink_id=2, rate=1.0, duration=30.0,
                                  rng=RandomStream(3, "traffic"))
        sources = {node for _, node in events}
        assert 2 not in sources
        assert sources == {0, 1, 3}
