"""Tests for repro.entities (tasks, workers, check-ins, records, assignments)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.entities import (
    AssignedPair,
    Assignment,
    CheckIn,
    PerformedTask,
    Task,
    TaskHistory,
    Worker,
)
from repro.geo import Point


class TestTask:
    def make(self, **kw):
        defaults = dict(
            task_id=1, location=Point(0, 0), publication_time=10.0, valid_hours=5.0,
            categories=("cafe",), venue_id=7,
        )
        defaults.update(kw)
        return Task(**defaults)

    def test_expiry_time(self):
        assert self.make().expiry_time == 15.0

    def test_is_expired_at(self):
        task = self.make()
        assert not task.is_expired_at(15.0)  # deadline inclusive
        assert task.is_expired_at(15.001)

    def test_rejects_negative_validity(self):
        with pytest.raises(ValueError):
            self.make(valid_hours=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("valid_hours", float("nan")),
        ("valid_hours", float("inf")),
        ("publication_time", float("nan")),
        ("publication_time", float("inf")),
        ("publication_time", float("-inf")),
        ("location", Point(float("nan"), 0.0)),
        ("location", Point(0.0, float("inf"))),
    ])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            self.make(**{field: value})

    def test_with_valid_hours_returns_copy(self):
        task = self.make()
        other = task.with_valid_hours(2.0)
        assert other.valid_hours == 2.0
        assert task.valid_hours == 5.0
        assert other.task_id == task.task_id and other.categories == task.categories

    def test_frozen(self):
        with pytest.raises(AttributeError):
            self.make().valid_hours = 3.0  # type: ignore[misc]


class TestWorker:
    def test_can_reach_border_inclusive(self):
        worker = Worker(worker_id=1, location=Point(0, 0), reachable_km=5.0)
        assert worker.can_reach(Point(5.0, 0.0))
        assert not worker.can_reach(Point(5.01, 0.0))

    def test_travel_hours(self):
        worker = Worker(worker_id=1, location=Point(0, 0), reachable_km=5.0, speed_kmh=10.0)
        assert worker.travel_hours_to(Point(5, 0)) == pytest.approx(0.5)

    def test_default_speed_is_paper_value(self):
        assert Worker(worker_id=0, location=Point(0, 0), reachable_km=1.0).speed_kmh == 5.0

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Worker(worker_id=1, location=Point(0, 0), reachable_km=-1.0)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            Worker(worker_id=1, location=Point(0, 0), reachable_km=1.0, speed_kmh=0.0)

    @pytest.mark.parametrize("field, value", [
        ("reachable_km", float("nan")),
        ("reachable_km", float("inf")),
        ("speed_kmh", float("nan")),
        ("speed_kmh", float("inf")),
        ("location", Point(float("nan"), 0.0)),
        ("location", Point(0.0, float("-inf"))),
    ])
    def test_rejects_non_finite_values(self, field, value):
        values = {"location": Point(0, 0), "reachable_km": 1.0, "speed_kmh": 5.0}
        values[field] = value
        with pytest.raises(ValueError, match=field.split("_")[0]):
            Worker(worker_id=1, **values)

    def test_with_radius_and_moved_to(self):
        worker = Worker(worker_id=1, location=Point(0, 0), reachable_km=5.0)
        assert worker.with_radius(9.0).reachable_km == 9.0
        assert worker.moved_to(Point(1, 1)).location == Point(1, 1)
        assert worker.reachable_km == 5.0  # original untouched


class TestCheckIn:
    def test_day_and_hour(self):
        checkin = CheckIn(user_id=1, venue_id=2, location=Point(0, 0), time=50.0)
        assert checkin.day == 2
        assert checkin.hour_of_day == pytest.approx(2.0)

    @given(st.floats(min_value=0, max_value=10000))
    def test_day_hour_roundtrip(self, time):
        checkin = CheckIn(user_id=0, venue_id=0, location=Point(0, 0), time=time)
        assert checkin.day * 24.0 + checkin.hour_of_day == pytest.approx(time)
        assert 0.0 <= checkin.hour_of_day < 24.0 or checkin.hour_of_day == pytest.approx(24.0)


class TestPerformedTask:
    def test_rejects_completion_before_arrival(self):
        with pytest.raises(ValueError):
            PerformedTask(location=Point(0, 0), arrival_time=5.0, completion_time=4.0)


class TestTaskHistory:
    def test_sorts_chronologically(self):
        history = TaskHistory(
            worker_id=1,
            performed=[
                PerformedTask(location=Point(1, 0), arrival_time=5.0, completion_time=5.0),
                PerformedTask(location=Point(0, 0), arrival_time=1.0, completion_time=1.0),
            ],
        )
        assert [p.arrival_time for p in history] == [1.0, 5.0]
        assert history.locations == [Point(0, 0), Point(1, 0)]

    def test_add_keeps_order(self):
        history = TaskHistory(worker_id=1, performed=[])
        history.add(PerformedTask(location=Point(1, 1), arrival_time=3.0, completion_time=3.0))
        history.add(PerformedTask(location=Point(2, 2), arrival_time=1.0, completion_time=1.0))
        assert [p.arrival_time for p in history] == [1.0, 3.0]

    def test_category_document_concatenates_in_order(self):
        history = TaskHistory(
            worker_id=1,
            performed=[
                PerformedTask(
                    location=Point(0, 0), arrival_time=2.0, completion_time=2.0,
                    categories=("bar", "pub"),
                ),
                PerformedTask(
                    location=Point(0, 0), arrival_time=1.0, completion_time=1.0,
                    categories=("cafe",),
                ),
            ],
        )
        assert history.category_document == ["cafe", "bar", "pub"]

    def test_venue_visit_counts(self):
        history = TaskHistory(
            worker_id=1,
            performed=[
                PerformedTask(location=Point(0, 0), arrival_time=1.0, completion_time=1.0, venue_id=4),
                PerformedTask(location=Point(0, 0), arrival_time=2.0, completion_time=2.0, venue_id=4),
                PerformedTask(location=Point(0, 0), arrival_time=3.0, completion_time=3.0, venue_id=9),
                PerformedTask(location=Point(0, 0), arrival_time=4.0, completion_time=4.0, venue_id=None),
            ],
        )
        assert history.venue_visit_counts() == {4: 2, 9: 1}

    def test_empty_history(self):
        history = TaskHistory(worker_id=1, performed=[])
        assert len(history) == 0
        assert history.category_document == []
        assert history.locations == []


class TestAssignment:
    def make_pair(self, task_id, worker_id):
        task = Task(task_id=task_id, location=Point(0, 0), publication_time=0.0, valid_hours=1.0)
        worker = Worker(worker_id=worker_id, location=Point(3, 4), reachable_km=10.0)
        return task, worker

    def test_add_and_len(self):
        assignment = Assignment()
        task, worker = self.make_pair(1, 1)
        assignment.add(task, worker)
        assert len(assignment) == 1
        assert assignment.assigned_task_ids == {1}
        assert assignment.assigned_worker_ids == {1}

    def test_rejects_duplicate_worker(self):
        assignment = Assignment()
        t1, w = self.make_pair(1, 5)
        t2, _ = self.make_pair(2, 5)
        assignment.add(t1, w)
        with pytest.raises(ValueError, match="worker 5"):
            assignment.add(t2, w)

    def test_rejects_duplicate_task(self):
        assignment = Assignment()
        t, w1 = self.make_pair(3, 1)
        _, w2 = self.make_pair(3, 2)
        assignment.add(t, w1)
        with pytest.raises(ValueError, match="task 3"):
            assignment.add(t, w2)

    def test_extend_appends_disjoint_pairs(self):
        assignment = Assignment([AssignedPair(*self.make_pair(1, 1))])
        other = Assignment([AssignedPair(*self.make_pair(2, 2)), AssignedPair(*self.make_pair(3, 3))])
        assignment.extend(other)
        assert [pair.task.task_id for pair in assignment] == [1, 2, 3]
        assert assignment.assigned_worker_ids == {1, 2, 3}
        assert assignment.assigned_task_ids == {1, 2, 3}
        assignment.add(*self.make_pair(4, 4))
        assert len(assignment) == 4

    @pytest.mark.parametrize(
        "other, message",
        [((9, 5), "worker 5"), ((3, 9), "task 3"), ((3, 5), "worker 5")],
    )
    def test_extend_rejects_repeats_without_mutating(self, other, message):
        assignment = Assignment(
            [AssignedPair(*self.make_pair(3, 1)), AssignedPair(*self.make_pair(4, 5))]
        )
        incoming = Assignment(
            [AssignedPair(*self.make_pair(8, 8)), AssignedPair(*self.make_pair(*other))]
        )
        before = list(assignment.pairs)
        with pytest.raises(ValueError, match=message):
            assignment.extend(incoming)
        assert assignment.pairs == before
        assert assignment.assigned_worker_ids == {1, 5}
        assert assignment.assigned_task_ids == {3, 4}

    def test_constructor_names_first_repeat(self):
        pairs = [self.make_pair(1, 1), self.make_pair(2, 2), self.make_pair(3, 1)]
        with pytest.raises(ValueError, match="worker 1 already assigned"):
            Assignment([AssignedPair(task, worker) for task, worker in pairs])
        pairs = [self.make_pair(1, 1), self.make_pair(1, 2), self.make_pair(3, 1)]
        with pytest.raises(ValueError, match="task 1 already assigned"):
            Assignment([AssignedPair(task, worker) for task, worker in pairs])

    def test_travel_costs(self):
        assignment = Assignment()
        task, worker = self.make_pair(1, 1)
        assignment.add(task, worker)  # worker at (3,4), task at origin: 5 km
        assert assignment.total_travel_km() == pytest.approx(5.0)
        assert assignment.average_travel_km() == pytest.approx(5.0)

    def test_empty_average_travel_is_zero(self):
        assert Assignment().average_travel_km() == 0.0
