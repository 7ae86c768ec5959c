"""Tests for repro.geo.distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import (
    Point,
    euclidean,
    haversine_km,
    pairwise_euclidean,
    pairwise_euclidean_xy,
    travel_time_hours,
)
from repro.geo.distance import DEFAULT_SPEED_KMH


def summed_squares_reference(xy_a, xy_b):
    """The kernel's earlier form: the squared ``(n, m, 2)`` difference
    summed over its last axis."""
    diff = xy_a[:, None, :] - xy_b[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


#: Coordinates over every magnitude a float can take: negative, tiny
#: (subnormal squares) and huge (overflowing squares).
any_coordinate = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-170, 1e-160, 1.5e154, -1e155, 1e308]
)
coordinate_arrays = st.lists(
    st.tuples(any_coordinate, any_coordinate), max_size=7
).map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 2))


class TestEuclidean:
    def test_matches_point_method(self):
        a, b = Point(1, 1), Point(4, 5)
        assert euclidean(a, b) == a.distance_to(b) == pytest.approx(5.0)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(48.85, 2.35, 48.85, 2.35) == pytest.approx(0.0)

    def test_one_degree_latitude_is_about_111km(self):
        assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.2, abs=0.5)

    def test_paris_london(self):
        # Paris (48.8566, 2.3522) to London (51.5074, -0.1278) ~ 344 km.
        assert haversine_km(48.8566, 2.3522, 51.5074, -0.1278) == pytest.approx(344, abs=5)

    def test_symmetry(self):
        d1 = haversine_km(10, 20, -30, 40)
        d2 = haversine_km(-30, 40, 10, 20)
        assert d1 == pytest.approx(d2)

    def test_antipodal_is_half_circumference(self):
        assert haversine_km(0, 0, 0, 180) == pytest.approx(20015, abs=10)


class TestTravelTime:
    def test_default_speed_is_paper_value(self):
        assert DEFAULT_SPEED_KMH == 5.0

    def test_time_is_distance_over_speed(self):
        assert travel_time_hours(Point(0, 0), Point(10, 0)) == pytest.approx(2.0)

    def test_custom_speed(self):
        assert travel_time_hours(Point(0, 0), Point(10, 0), speed_kmh=20) == pytest.approx(0.5)

    def test_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            travel_time_hours(Point(0, 0), Point(1, 0), speed_kmh=0)


class TestPairwise:
    def test_shape_and_values(self):
        a = [Point(0, 0), Point(1, 0)]
        b = [Point(0, 0), Point(0, 2), Point(3, 4)]
        matrix = pairwise_euclidean(a, b)
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] == pytest.approx(0.0)
        assert matrix[0, 1] == pytest.approx(2.0)
        assert matrix[0, 2] == pytest.approx(5.0)
        assert matrix[1, 0] == pytest.approx(1.0)

    @settings(max_examples=300)
    @given(coordinate_arrays, coordinate_arrays)
    def test_bit_identical_to_summed_squares(self, xy_a, xy_b):
        with np.errstate(over="ignore", invalid="ignore"):
            got = pairwise_euclidean_xy(xy_a, xy_b)
            want = summed_squares_reference(xy_a, xy_b)
        assert got.shape == want.shape == (len(xy_a), len(xy_b))
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_empty_inputs(self):
        assert pairwise_euclidean([], [Point(0, 0)]).shape == (0, 1)
        assert pairwise_euclidean([Point(0, 0)], []).shape == (1, 0)

    @given(
        st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=6),
        st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=6),
    )
    def test_matches_scalar_euclidean(self, coords_a, coords_b):
        points_a = [Point(x, y) for x, y in coords_a]
        points_b = [Point(x, y) for x, y in coords_b]
        matrix = pairwise_euclidean(points_a, points_b)
        for i, pa in enumerate(points_a):
            for j, pb in enumerate(points_b):
                assert matrix[i, j] == pytest.approx(euclidean(pa, pb), abs=1e-9)
