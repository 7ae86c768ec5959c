"""Tests for feasibility computation and PreparedInstance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.assignment import compute_feasible, PreparedInstance, RoundState
from repro.assignment.base import mask_nonzero
from repro.entities import Task, Worker
from repro.geo import Point


class TestComputeFeasible:
    def test_empty_inputs(self):
        feasible = compute_feasible([], [], current_time=0.0)
        assert feasible.num_feasible == 0
        assert feasible.mask.shape == (0, 0)

    def test_radius_constraint(self):
        workers = [Worker(worker_id=0, location=Point(0, 0), reachable_km=5.0, speed_kmh=1000.0)]
        tasks = [
            Task(task_id=0, location=Point(3, 0), publication_time=0.0, valid_hours=100.0),
            Task(task_id=1, location=Point(8, 0), publication_time=0.0, valid_hours=100.0),
        ]
        feasible = compute_feasible(workers, tasks, current_time=0.0)
        assert feasible.mask[0, 0] and not feasible.mask[0, 1]

    def test_radius_border_inclusive(self):
        workers = [Worker(worker_id=0, location=Point(0, 0), reachable_km=5.0, speed_kmh=1000.0)]
        tasks = [Task(task_id=0, location=Point(5, 0), publication_time=0.0, valid_hours=100.0)]
        feasible = compute_feasible(workers, tasks, current_time=0.0)
        assert feasible.mask[0, 0]

    def test_deadline_constraint(self):
        # Worker at 5 km with 5 km/h needs 1 h; task expires in 0.5 h.
        workers = [Worker(worker_id=0, location=Point(0, 0), reachable_km=50.0, speed_kmh=5.0)]
        tight = Task(task_id=0, location=Point(5, 0), publication_time=0.0, valid_hours=0.5)
        loose = Task(task_id=1, location=Point(5, 0), publication_time=0.0, valid_hours=2.0)
        feasible = compute_feasible(workers, [tight, loose], current_time=0.0)
        assert not feasible.mask[0, 0]
        assert feasible.mask[0, 1]

    def test_current_time_shifts_deadline(self):
        workers = [Worker(worker_id=0, location=Point(0, 0), reachable_km=50.0, speed_kmh=5.0)]
        task = Task(task_id=0, location=Point(5, 0), publication_time=0.0, valid_hours=2.0)
        assert compute_feasible(workers, [task], current_time=0.0).mask[0, 0]
        assert not compute_feasible(workers, [task], current_time=1.5).mask[0, 0]

    def test_distance_matrix_correct(self, square_workers, square_tasks):
        feasible = compute_feasible(square_workers, square_tasks, current_time=0.0)
        assert feasible.distance_km[0, 0] == pytest.approx(
            square_workers[0].location.distance_to(square_tasks[0].location)
        )

    def test_per_worker_speed_honored(self):
        slow = Worker(worker_id=0, location=Point(0, 0), reachable_km=50.0, speed_kmh=1.0)
        fast = Worker(worker_id=1, location=Point(0, 0), reachable_km=50.0, speed_kmh=100.0)
        task = Task(task_id=0, location=Point(10, 0), publication_time=0.0, valid_hours=1.0)
        feasible = compute_feasible([slow, fast], [task], current_time=0.0)
        assert not feasible.mask[0, 0]
        assert feasible.mask[1, 0]

    def test_feasible_indices_match_mask(self, square_workers, square_tasks):
        feasible = compute_feasible(square_workers, square_tasks, current_time=0.0)
        rows, columns = feasible.feasible_indices()
        assert len(rows) == feasible.num_feasible
        for r, c in zip(rows, columns):
            assert feasible.mask[r, c]


class TestPreparedInstance:
    def test_caches_are_lazy_and_stable(self, tiny_instance, full_influence):
        prepared = PreparedInstance(tiny_instance, full_influence)
        first = prepared.influence_matrix
        second = prepared.influence_matrix
        assert first is second

    def test_without_model_influence_is_zero(self, tiny_instance):
        prepared = PreparedInstance(tiny_instance, influence=None)
        assert prepared.influence_matrix.sum() == 0.0

    def test_entropy_vector_alignment(self, prepared, tiny_instance):
        vector = prepared.entropy_vector()
        assert vector.shape == (tiny_instance.num_tasks,)
        assert (vector >= 0).all()

    def test_build_assignment_validates_feasibility(self, prepared):
        mask = prepared.feasible.mask
        infeasible = np.argwhere(~mask)
        if len(infeasible):
            row, column = map(int, infeasible[0])
            with pytest.raises(ValueError):
                prepared.build_assignment([(row, column)])

    def test_build_assignment_constructs_pairs(self, prepared, tiny_instance):
        rows, columns = prepared.feasible.feasible_indices()
        if len(rows):
            assignment = prepared.build_assignment([(int(rows[0]), int(columns[0]))])
            assert len(assignment) == 1


class TestBuildAssignmentUniqueness:
    @pytest.fixture()
    def wide_prepared(self):
        from repro.data.instance import SCInstance
        from repro.geo import Point

        workers = [
            Worker(worker_id=i, location=Point(0.0, 0.0), reachable_km=50.0, speed_kmh=100.0)
            for i in range(2)
        ]
        tasks = [
            Task(task_id=j, location=Point(1.0, 0.0), publication_time=0.0, valid_hours=10.0)
            for j in range(2)
        ]
        instance = SCInstance(
            name="uniq",
            current_time=0.0,
            tasks=tasks,
            workers=workers,
            histories={},
            social_edges=[],
            all_worker_ids=(0, 1),
        )
        return PreparedInstance(instance)

    def test_duplicate_worker_rejected(self, wide_prepared):
        with pytest.raises(ValueError, match="worker row 0 .* more than one task"):
            wide_prepared.build_assignment([(0, 0), (0, 1)])

    def test_duplicate_task_rejected(self, wide_prepared):
        with pytest.raises(ValueError, match="task column 1 .* more than one worker"):
            wide_prepared.build_assignment([(0, 1), (1, 1)])

    def test_infeasible_pairs_rejected_off_the_pair_graph(self, wide_prepared):
        """Feasibility is read off the pair graph, without building the
        dense mask; an out-of-range column is rejected, not read as the
        next row's pair (key ``0 * 2 + 2`` is row 1, column 0)."""
        prepared = RoundState().prepare(wide_prepared.instance)
        for column in (2, -1):
            with pytest.raises(ValueError, match="infeasible pair"):
                prepared.build_assignment((np.array([0]), np.array([column])))
        assert len(prepared.build_assignment((np.array([0, 1]), np.array([1, 0])))) == 2
        assert "mask" not in vars(prepared.feasible)

    def test_disjoint_pairs_accepted(self, wide_prepared):
        assignment = wide_prepared.build_assignment([(0, 0), (1, 1)])
        assert len(assignment) == 2


class TestMaskNonzero:
    """The flat read equals ``np.nonzero`` on every 2-D mask shape."""

    @staticmethod
    def assert_equal_to_nonzero(mask):
        rows, columns = mask_nonzero(mask)
        expected_rows, expected_columns = np.nonzero(mask)
        np.testing.assert_array_equal(rows, expected_rows, strict=True)
        np.testing.assert_array_equal(columns, expected_columns, strict=True)

    @pytest.mark.parametrize("shape", [(0, 0), (4, 0), (0, 5), (1, 1), (3, 7)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_degenerate_and_uniform_shapes(self, shape, fill):
        self.assert_equal_to_nonzero(np.full(shape, fill, dtype=bool))

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            bool,
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
        )
    )
    def test_random_masks(self, mask):
        self.assert_equal_to_nonzero(mask)

    def test_non_contiguous_view(self):
        mask = np.random.default_rng(3).random((9, 14)) < 0.3
        self.assert_equal_to_nonzero(mask[::2, 1::3])
        self.assert_equal_to_nonzero(mask.T)
