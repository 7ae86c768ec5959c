"""Tests for location entropy."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.entities import Task
from repro.geo import Point
from repro.influence import VenueEntropy, entropy_of_tasks, location_entropy


class TestLocationEntropy:
    def test_empty_is_zero(self):
        assert location_entropy({}) == 0.0

    def test_single_visitor_is_zero(self):
        assert location_entropy({1: 10}) == 0.0

    def test_uniform_two_visitors_is_ln2(self):
        assert location_entropy({1: 5, 2: 5}) == pytest.approx(math.log(2))

    def test_skew_lower_than_uniform(self):
        skew = location_entropy({1: 9, 2: 1})
        uniform = location_entropy({1: 5, 2: 5})
        assert skew < uniform

    def test_zero_counts_ignored(self):
        assert location_entropy({1: 5, 2: 0}) == 0.0

    def test_uniform_n_visitors_is_ln_n(self):
        counts = {i: 3 for i in range(7)}
        assert location_entropy(counts) == pytest.approx(math.log(7))

    @given(st.dictionaries(st.integers(0, 20), st.integers(1, 50), min_size=1, max_size=20))
    def test_bounded_by_ln_n(self, counts):
        entropy = location_entropy(counts)
        assert 0.0 <= entropy <= math.log(len(counts)) + 1e-9


class TestEntropyOfTasks:
    def make_task(self, task_id, venue_id):
        return Task(
            task_id=task_id, location=Point(0, 0), publication_time=0.0,
            valid_hours=1.0, venue_id=venue_id,
        )

    def test_lookup_through_venue(self):
        tasks = [self.make_task(0, 100), self.make_task(1, 200)]
        visits = {100: {1: 5, 2: 5}}
        entropies = entropy_of_tasks(tasks, visits)
        assert entropies[0] == pytest.approx(math.log(2))
        assert entropies[1] == 0.0  # no history

    def test_task_without_venue(self):
        task = Task(task_id=0, location=Point(0, 0), publication_time=0.0, valid_hours=1.0)
        assert entropy_of_tasks([task], {})[0] == 0.0

    def test_shared_venues_read_each_venue_once(self):
        """Tasks at one venue share its entropy; the cached value is the
        venue's own, whichever task asked first."""
        visits = {100: {1: 5, 2: 5}, 200: {1: 9, 2: 1}, 300: {}}
        tasks = [
            self.make_task(task_id, venue)
            for task_id, venue in enumerate([200, 100, 200, 300, 100, None, 400])
        ]
        entropy = VenueEntropy(visits)
        expected = [
            location_entropy(visits.get(task.venue_id) or {}) for task in tasks
        ]
        assert [entropy(task) for task in tasks] == expected
        assert [entropy(task) for task in reversed(tasks)] == expected[::-1]
        assert list(entropy_of_tasks(tasks, visits).values()) == expected
