"""Tests for Random Walk with Restart."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Point
from repro.willingness import random_walk_with_restart, stationary_distributions


# The one-worker reference and the batched solver validate alike.
SOLVERS = (
    random_walk_with_restart,
    lambda locations, **kw: stationary_distributions([locations], **kw)[0],
)


class TestRWR:
    def test_empty_rejected(self):
        for solve in SOLVERS:
            with pytest.raises(ValueError):
                solve([])

    def test_bad_restart_rejected(self):
        for solve in SOLVERS:
            with pytest.raises(ValueError):
                solve([Point(0, 0)], restart=0.0)
            with pytest.raises(ValueError):
                solve([Point(0, 0)], restart=1.5)

    def test_single_location_gets_all_mass(self):
        result = random_walk_with_restart([Point(1, 1), Point(1, 1)])
        assert result.locations == (Point(1, 1),)
        assert result.probabilities[0] == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self):
        locations = [Point(0, 0), Point(1, 0), Point(0, 0), Point(2, 2)]
        result = random_walk_with_restart(locations)
        assert result.probabilities.sum() == pytest.approx(1.0)
        assert (result.probabilities > 0).all()

    def test_deduplicates_locations(self):
        locations = [Point(0, 0), Point(1, 1), Point(0, 0)]
        result = random_walk_with_restart(locations)
        assert len(result.locations) == 2

    def test_frequent_location_gets_more_mass(self):
        # Walk oscillates around A: A B A C A D -> A has higher stationary mass.
        a = Point(0, 0)
        locations = [a, Point(1, 0), a, Point(2, 0), a, Point(3, 0)]
        result = random_walk_with_restart(locations, restart=0.15)
        mass = dict(zip(result.locations, result.probabilities))
        assert mass[a] == pytest.approx(max(result.probabilities))

    def test_probability_of_unvisited_is_zero(self):
        result = random_walk_with_restart([Point(0, 0)])
        assert result.probability_of(Point(9, 9)) == 0.0

    def test_probability_of_matches_vector(self):
        locations = [Point(0, 0), Point(1, 1), Point(0, 0)]
        result = random_walk_with_restart(locations)
        for location, probability in zip(result.locations, result.probabilities):
            assert result.probability_of(location) == pytest.approx(float(probability))

    def test_restart_one_gives_uniform(self):
        locations = [Point(0, 0), Point(1, 0), Point(2, 0)]
        result = random_walk_with_restart(locations, restart=1.0)
        np.testing.assert_allclose(result.probabilities, 1.0 / 3.0, atol=1e-9)

    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1, max_size=30,
        ),
        st.floats(0.05, 1.0),
    )
    def test_stationary_is_fixed_point(self, coords, restart):
        locations = [Point(float(x), float(y)) for x, y in coords]
        result = random_walk_with_restart(locations, restart=restart, tol=1e-12)
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-6)
        assert (result.probabilities >= -1e-12).all()

