"""Regression tests: incremental online rounds == full recomputation.

The :class:`~repro.assignment.RoundState` cache must be an invisible
optimization: every prepared matrix and every resulting assignment has to
match the from-scratch per-round path bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.assignment.base as assignment_base
from repro.assignment import (
    IAAssigner,
    MTAAssigner,
    PreparedInstance,
    RoundState,
)
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.framework import OnlineSimulator, WorkerArrival, day_arrivals
from repro.geo import Point


def make_instance(tasks, workers=(), current_time=0.0):
    return SCInstance(
        name="incremental-test",
        current_time=current_time,
        tasks=list(tasks),
        workers=list(workers),
        histories={},
        social_edges=[],
        all_worker_ids=tuple(range(50)),
    )


def make_task(task_id, x, y, published=0.0, phi=5.0):
    return Task(
        task_id=task_id, location=Point(x, y), publication_time=published,
        valid_hours=phi,
    )


def make_worker(worker_id, x, y, radius=10.0, speed=5.0):
    return Worker(
        worker_id=worker_id, location=Point(x, y), reachable_km=radius,
        speed_kmh=speed,
    )


class TestRoundStatePreparation:
    def test_single_round_matches_fresh_preparation(self):
        tasks = [make_task(i, float(i), 0.0) for i in range(4)]
        workers = [make_worker(i, 0.5 * i, 1.0) for i in range(3)]
        instance = make_instance(tasks, workers)
        incremental = RoundState(influence=None).prepare(instance)
        fresh = PreparedInstance(instance, influence=None)
        np.testing.assert_array_equal(
            incremental.feasible.distance_km, fresh.feasible.distance_km
        )
        np.testing.assert_array_equal(incremental.feasible.mask, fresh.feasible.mask)
        np.testing.assert_array_equal(
            incremental.influence_matrix, fresh.influence_matrix
        )

    def test_growing_and_shrinking_pools_stay_exact(self):
        state = RoundState(influence=None)
        tasks = [make_task(i, float(i), 0.0, phi=50.0) for i in range(6)]
        workers = [make_worker(i, 0.3 * i, 0.5) for i in range(6)]
        # Round 1: a slice of each pool; round 2: some leave, new ones join;
        # round 3: later time shifts the deadline mask.
        rounds = [
            (tasks[:3], workers[:2], 0.0),
            (tasks[1:5], [workers[1], workers[3], workers[4]], 1.0),
            ([tasks[2], tasks[5]], workers[3:], 2.5),
        ]
        for round_tasks, round_workers, time in rounds:
            instance = make_instance(round_tasks, round_workers, current_time=time)
            incremental = state.prepare(instance)
            fresh = PreparedInstance(instance, influence=None)
            np.testing.assert_array_equal(
                incremental.feasible.distance_km, fresh.feasible.distance_km
            )
            np.testing.assert_array_equal(
                incremental.feasible.mask, fresh.feasible.mask
            )
            assert incremental.entropy_by_task == fresh.entropy_by_task

    def test_empty_round_passthrough(self):
        state = RoundState(influence=None)
        prepared = state.prepare(make_instance([], []))
        assert prepared.feasible.num_feasible == 0

    def test_identity_change_invalidates_whole_row(self):
        """A worker re-seen with a new location must not leak stale cells for
        tasks absent from the round that detected the change."""
        state = RoundState(influence=None)
        task_a = make_task(0, 2.0, 0.0, phi=50.0)
        task_b = make_task(1, 3.0, 0.0, phi=50.0)
        worker = make_worker(7, 0.0, 0.0)
        state.prepare(make_instance([task_a, task_b], [worker]))
        moved = make_worker(7, 0.0, 1.0)
        # Round 2 sees the moved worker with only task A ...
        state.prepare(make_instance([task_a], [moved]))
        # ... round 3 with task B must recompute B's cell, not reuse round 1.
        prepared = state.prepare(make_instance([task_b], [moved]))
        fresh = PreparedInstance(make_instance([task_b], [moved]))
        np.testing.assert_array_equal(
            prepared.feasible.distance_km, fresh.feasible.distance_km
        )

    def test_task_identity_change_refreshes_entropy(self):
        state = RoundState(influence=None)
        original = Task(
            task_id=3, location=Point(1.0, 0.0), publication_time=0.0,
            valid_hours=9.0, venue_id=10,
        )
        replaced = Task(
            task_id=3, location=Point(1.0, 0.0), publication_time=0.0,
            valid_hours=9.0, venue_id=99,
        )
        worker = make_worker(1, 0.0, 0.0)
        instance = make_instance([original], [worker])
        instance.venue_visits = {10: {1: 4, 2: 4}, 99: {1: 8}}
        first = state.prepare(instance)
        instance_2 = make_instance([replaced], [worker])
        instance_2.venue_visits = instance.venue_visits
        second = state.prepare(instance_2)
        fresh = PreparedInstance(instance_2)
        assert second.entropy_by_task == fresh.entropy_by_task
        assert first.entropy_by_task != second.entropy_by_task

    def test_influence_rows_cached_per_worker(self, tiny_instance, fitted_models):
        """Influence cells computed through RoundState rectangles equal the
        full-matrix path, even when workers/tasks arrive across rounds."""
        influence_incremental = fitted_models.influence_model()
        influence_full = fitted_models.influence_model()
        workers = tiny_instance.workers
        tasks = tiny_instance.tasks
        state = RoundState(influence_incremental)
        first = tiny_instance.with_workers(list(workers[:4])).with_tasks(list(tasks[:5]))
        second = tiny_instance.with_workers(list(workers[2:8])).with_tasks(list(tasks[3:9]))
        for round_instance in (first, second):
            incremental = state.prepare(round_instance)
            fresh = PreparedInstance(round_instance, influence_full)
            np.testing.assert_array_equal(
                incremental.influence_matrix, fresh.influence_matrix
            )
            np.testing.assert_array_equal(
                incremental.feasible.mask, fresh.feasible.mask
            )


#: Payload variants an entity may appear with in a round: the original
#: object, an equal but distinct copy, and two relocations.
SAME, EQUAL_COPY, MOVED_EAST, MOVED_SOUTH = range(4)
UNIVERSE = 8


def variant(entity, kind):
    if kind == SAME:
        return entity
    if kind == EQUAL_COPY:
        return replace(entity)
    dx, dy = (0.7, 0.0) if kind == MOVED_EAST else (0.0, -1.3)
    moved = Point(entity.location.x + dx, entity.location.y + dy)
    return replace(entity, location=moved)


def picks():
    """One round's members in matrix order: unique universe indices, each
    with a payload variant, in drawn (so unsorted-id) order."""
    return st.lists(
        st.tuples(st.integers(0, UNIVERSE - 1), st.integers(SAME, MOVED_SOUTH)),
        max_size=UNIVERSE, unique_by=lambda pick: pick[0],
    )


def assert_matches_fresh(prepared, fresh):
    np.testing.assert_array_equal(
        prepared.feasible.distance_km, fresh.feasible.distance_km, strict=True
    )
    np.testing.assert_array_equal(prepared.feasible.mask, fresh.feasible.mask, strict=True)
    np.testing.assert_array_equal(
        prepared.influence_matrix, fresh.influence_matrix, strict=True
    )
    assert prepared.entropy_by_task == fresh.entropy_by_task
    assert list(prepared.entropy_by_task) == list(fresh.entropy_by_task)


class TestCarriedRoundCache:
    """The cache carries exactly the previous round: entities join, leave,
    return after an absent round, return relocated, or return as an equal
    but distinct object, and every round equals a fresh preparation."""

    @settings(max_examples=80, deadline=None)
    @given(
        fitted=st.just(False),
        rounds=st.lists(
            st.tuples(picks(), picks(), st.sampled_from([0.0, 1.0, 3.0])),
            min_size=1, max_size=6,
        ),
    )
    @example(
        fitted=True,
        rounds=[
            ([(3, SAME), (0, SAME), (5, SAME)], [(4, SAME), (1, SAME), (6, SAME)], 0.0),
            # 0 and task 6 leave, 7 and task 2 join.
            ([(5, SAME), (7, SAME), (3, EQUAL_COPY)], [(2, SAME), (4, SAME), (1, SAME)], 1.0),
            # 0 returns after an absent round, 5 relocates, task 6 returns
            # as an equal copy, task 1 relocates.
            ([(0, SAME), (5, MOVED_EAST), (7, SAME)], [(6, EQUAL_COPY), (1, MOVED_SOUTH)], 1.0),
            ([(5, SAME), (3, SAME)], [(1, SAME), (4, SAME)], 3.0),
            ([], [(4, SAME)], 3.0),
            ([(3, SAME)], [], 3.0),
        ],
    )
    def test_rounds_equal_fresh_preparation(
        self, fitted, rounds, tiny_instance, fitted_models
    ):
        workers = tiny_instance.workers[:UNIVERSE]
        tasks = tiny_instance.tasks[:UNIVERSE]
        if fitted:
            state = RoundState(fitted_models.influence_model())
            reference = fitted_models.influence_model()
        else:
            state, reference = RoundState(None), None
        for worker_picks, task_picks, hours in rounds:
            instance = tiny_instance.with_workers(
                [variant(workers[i], kind) for i, kind in worker_picks]
            ).with_tasks([variant(tasks[i], kind) for i, kind in task_picks])
            instance.current_time = tiny_instance.current_time + hours
            prepared = state.prepare(instance)
            assert_matches_fresh(prepared, PreparedInstance(instance, reference))

    def test_only_new_rows_and_columns_are_computed(self, monkeypatch, fitted_models):
        """Kept entities are found in unsorted rounds and reused: a round
        computes influence for new rows x all columns and kept rows x new
        columns only, and distances once, at the round's full shape."""
        model = fitted_models.influence_model()
        influence_shapes, distance_shapes = [], []
        influence_matrix = model.influence_matrix
        pairwise = assignment_base.pairwise_euclidean_xy

        def influence_spy(workers, tasks):
            influence_shapes.append((len(workers), len(tasks)))
            return influence_matrix(workers, tasks)

        def distance_spy(xy_a, xy_b):
            distance_shapes.append((len(xy_a), len(xy_b)))
            return pairwise(xy_a, xy_b)

        monkeypatch.setattr(model, "influence_matrix", influence_spy)
        monkeypatch.setattr(assignment_base, "pairwise_euclidean_xy", distance_spy)
        state = RoundState(model)
        tasks = [make_task(i, float(i), 0.0, phi=50.0) for i in (7, 2, 9, 4)]
        workers = [make_worker(i, 0.3 * i, 0.5) for i in (5, 1, 8)]
        state.prepare(make_instance(tasks, workers))
        assert influence_shapes == [(3, 4)]
        assert distance_shapes == [(3, 4)]
        influence_shapes.clear()
        distance_shapes.clear()
        # Reordered, one worker and one task left, one of each joined.
        state.prepare(make_instance(
            [tasks[3], make_task(3, 1.5, 0.0, phi=50.0), tasks[0], tasks[2]],
            [workers[2], make_worker(6, 1.0, 1.0), workers[0]],
            current_time=1.0,
        ))
        assert influence_shapes == [(1, 4), (2, 1)]
        assert distance_shapes == [(3, 4)]

    def test_cache_shrinks_to_the_round(self):
        """Nothing of an entity that left is carried: every cached array is
        sized by the latest round's pool, not by every entity ever seen."""
        state = RoundState(influence=None)
        tasks = [make_task(i, float(i), 0.0, phi=50.0) for i in range(9)]
        workers = [make_worker(i, 0.3 * i, 0.5) for i in range(7)]
        state.prepare(make_instance(tasks, workers))
        prepared = state.prepare(make_instance(tasks[2:6], workers[4:7], current_time=1.0))
        assert prepared.feasible.distance_km.shape == (3, 4)
        arrays = [
            item
            for value in vars(state).values()
            for item in (value if isinstance(value, tuple) else (value,))
            if isinstance(item, np.ndarray)
        ]
        assert arrays
        for array in arrays:
            assert max(array.shape) <= 4, array.shape

    def test_returned_matrices_are_read_only(self, fitted_models, tiny_instance):
        state = RoundState(fitted_models.influence_model())
        round_instance = tiny_instance.with_workers(
            list(tiny_instance.workers[:4])
        ).with_tasks(list(tiny_instance.tasks[:3]))
        prepared = state.prepare(round_instance)
        with pytest.raises(ValueError, match="read-only"):
            prepared.feasible.distance_km[0, 0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            prepared.influence_matrix[0, 0] = -1.0
        # The next round still equals a fresh preparation.
        again = state.prepare(round_instance)
        assert_matches_fresh(
            again, PreparedInstance(round_instance, fitted_models.influence_model())
        )


class TestDuplicateIds:
    """Ids are unique within a round; a repeated id is rejected by name
    rather than silently sharing one cached row or column."""

    def test_duplicate_worker_on_fresh_state(self):
        instance = make_instance(
            [make_task(0, 0.0, 0.0)], [make_worker(5, 1.0, 0.0), make_worker(5, 8.0, 0.0)]
        )
        with pytest.raises(ValueError, match="worker id 5 "):
            RoundState(influence=None).prepare(instance)

    def test_duplicate_worker_after_earlier_round(self):
        state = RoundState(influence=None)
        task = make_task(0, 0.0, 0.0)
        state.prepare(make_instance([task], [make_worker(5, 1.0, 0.0)]))
        duplicated = make_instance(
            [task], [make_worker(5, 1.0, 0.0), make_worker(5, 8.0, 0.0)]
        )
        with pytest.raises(ValueError, match="worker id 5 "):
            state.prepare(duplicated)

    def test_duplicate_task_on_fresh_state(self):
        instance = make_instance(
            [make_task(3, 0.0, 0.0), make_task(3, 4.0, 0.0)], [make_worker(1, 1.0, 0.0)]
        )
        with pytest.raises(ValueError, match="task id 3 "):
            RoundState(influence=None).prepare(instance)

    def test_duplicate_task_after_earlier_round(self):
        state = RoundState(influence=None)
        worker = make_worker(1, 1.0, 0.0)
        state.prepare(make_instance([make_task(3, 0.0, 0.0)], [worker]))
        duplicated = make_instance(
            [make_task(2, 2.0, 0.0), make_task(3, 0.0, 0.0), make_task(3, 4.0, 0.0)],
            [worker],
        )
        with pytest.raises(ValueError, match="task id 3 "):
            state.prepare(duplicated)


class TestOnlineEquivalence:
    def _assignments(self, result):
        return sorted(
            (pair.worker.worker_id, pair.task.task_id)
            for pair in result.assignment.pairs
        )

    def test_synthetic_day_identical_assignments(self):
        tasks = [
            make_task(i, float(i % 4), 0.3 * i, published=float(i % 3), phi=6.0)
            for i in range(8)
        ]
        arrivals = [
            WorkerArrival(worker=make_worker(i, 0.4 * i, 1.0), arrival_time=0.5 * i)
            for i in range(7)
        ]
        incremental = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0).run(
            make_instance(tasks), arrivals
        )
        full = OnlineSimulator(
            MTAAssigner(), None, batch_hours=1.0, incremental=False
        ).run(make_instance(tasks), arrivals)
        assert self._assignments(incremental) == self._assignments(full)
        assert [s.assigned for s in incremental.steps] == [
            s.assigned for s in full.steps
        ]

    def test_fitted_world_identical_assignments(
        self, tiny_dataset, tiny_instance, fitted_models
    ):
        arrivals = day_arrivals(tiny_dataset, 6)
        incremental = OnlineSimulator(
            IAAssigner(), fitted_models.influence_model(), batch_hours=4.0
        ).run(tiny_instance, arrivals)
        full = OnlineSimulator(
            IAAssigner(), fitted_models.influence_model(), batch_hours=4.0,
            incremental=False,
        ).run(tiny_instance, arrivals)
        assert incremental.total_assigned > 0
        assert self._assignments(incremental) == self._assignments(full)
        assert [s.expired_tasks for s in incremental.steps] == [
            s.expired_tasks for s in full.steps
        ]
