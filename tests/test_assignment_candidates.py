"""Tests for repro.assignment.candidates — grid-indexed feasibility.

The exhaustive scan ``_dense_pairs`` is the reference the grid path is
compared against.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import candidate_pairs, compute_feasible
from repro.assignment.candidates import _dense_pairs
from repro.entities import Task, Worker
from repro.geo import Point


def build_world(worker_coords, task_coords, radius=10.0, valid_hours=5.0, speed=5.0):
    workers = [
        Worker(worker_id=i, location=Point(x, y), reachable_km=radius, speed_kmh=speed)
        for i, (x, y) in enumerate(worker_coords)
    ]
    tasks = [
        Task(task_id=i, location=Point(x, y), publication_time=0.0, valid_hours=valid_hours)
        for i, (x, y) in enumerate(task_coords)
    ]
    return workers, tasks


class TestCandidatePairs:
    def test_empty_inputs(self):
        workers, tasks = build_world([(0, 0)], [(1, 1)])
        assert candidate_pairs([], tasks, 0.0) == []
        assert candidate_pairs(workers, [], 0.0) == []

    def test_radius_excludes_far_task(self):
        workers, tasks = build_world([(0, 0)], [(50, 50)], radius=5.0)
        assert candidate_pairs(workers, tasks, 0.0) == []

    def test_deadline_excludes_slow_worker(self):
        # Task 20 km away, radius allows it, but 5 km/h cannot make a
        # 1-hour deadline.
        workers, tasks = build_world([(0, 0)], [(20, 0)], radius=25.0, valid_hours=1.0)
        assert candidate_pairs(workers, tasks, 0.0) == []
        # A fast worker makes it.
        fast_workers, _ = build_world([(0, 0)], [(20, 0)], radius=25.0, speed=25.0)
        got = candidate_pairs(fast_workers, tasks, 0.0)
        assert [(p.worker_index, p.task_index) for p in got] == [(0, 0)]

    def test_current_time_counts_against_deadline(self):
        workers, tasks = build_world([(0, 0)], [(1, 0)], radius=5.0, valid_hours=2.0)
        assert candidate_pairs(workers, tasks, 0.0) != []
        assert candidate_pairs(workers, tasks, 10.0) == []

    @pytest.mark.parametrize(
        "enumerate_pairs", [candidate_pairs, _dense_pairs], ids=["grid", "dense"]
    )
    def test_matches_dense_mask(self, enumerate_pairs, tiny_instance):
        """The grid path and the reference reproduce compute_feasible exactly."""
        workers = tiny_instance.workers
        tasks = tiny_instance.tasks
        t = tiny_instance.current_time
        feasible = compute_feasible(workers, tasks, t)
        expected = set(zip(*feasible.feasible_indices()))
        got = {
            (p.worker_index, p.task_index)
            for p in enumerate_pairs(workers, tasks, t)
        }
        assert got == {(int(r), int(c)) for r, c in expected}

    @settings(max_examples=25, deadline=None)
    @given(
        worker_coords=st.lists(
            st.tuples(st.floats(-30, 30, width=32), st.floats(-30, 30, width=32)),
            min_size=1, max_size=15,
        ),
        task_coords=st.lists(
            st.tuples(st.floats(-30, 30, width=32), st.floats(-30, 30, width=32)),
            min_size=1, max_size=15,
        ),
        radius=st.floats(0.5, 40, width=32),
    )
    def test_index_matches_dense_property(self, worker_coords, task_coords, radius):
        workers, tasks = build_world(worker_coords, task_coords, radius=float(radius))
        dense = _dense_pairs(workers, tasks, 0.0)
        indexed = candidate_pairs(workers, tasks, 0.0)
        key = lambda pairs: [(p.worker_index, p.task_index) for p in pairs]
        assert key(indexed) == key(dense)
        for a, b in zip(indexed, dense):
            assert a.distance_km == pytest.approx(b.distance_km)

    def test_distances_agree_with_matrix(self, tiny_instance):
        feasible = compute_feasible(
            tiny_instance.workers, tiny_instance.tasks, tiny_instance.current_time
        )
        for pair in candidate_pairs(
            tiny_instance.workers, tiny_instance.tasks, tiny_instance.current_time
        ):
            assert pair.distance_km == pytest.approx(
                float(feasible.distance_km[pair.worker_index, pair.task_index])
            )
