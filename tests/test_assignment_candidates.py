"""Tests for repro.assignment.candidates — the grid-enumerated pair graph.

:func:`~repro.assignment.compute_feasible`, the dense kernel, is the bit
reference: the enumerator must return its pair set, in its (row, column)
order, with bit-equal distances, in both candidate regimes (every pair of
a small rectangle, and the 3 x 3 grid neighbourhood).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import candidates, compute_feasible, pair_graph
from repro.entities import Task, Worker
from repro.geo import Point, pairwise_euclidean_xy

#: Candidate regimes: the all-pairs shortcut for small rectangles, and the
#: grid neighbourhood forced for every size.
REGIMES = {"dense": candidates.DENSE_CELLS, "grid": 0}


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


def enumerate_pairs(workers, tasks, now, regime="dense"):
    """:func:`pair_graph` over the entities' attribute rows."""
    worker_attrs = np.array(
        [(w.location.x, w.location.y, w.reachable_km, w.speed_kmh) for w in workers]
    ).reshape(-1, 4)
    task_attrs = np.array(
        [(t.location.x, t.location.y, t.expiry_time) for t in tasks]
    ).reshape(-1, 3)
    with mock.patch.object(candidates, "DENSE_CELLS", REGIMES[regime]):
        return pair_graph(worker_attrs, task_attrs, now)


def pair_list(graph):
    return list(zip(graph.rows().tolist(), graph.columns.tolist()))


def assert_matches_reference(workers, tasks, now, regime):
    """The enumerator's graph is compute_feasible's, array for array and
    bit for bit."""
    got = enumerate_pairs(workers, tasks, now, regime)
    want = compute_feasible(workers, tasks, now).graph
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.columns, want.columns)
    assert got.distance_km.view(np.uint64).tolist() == want.distance_km.view(np.uint64).tolist()


class TestCandidatePairs:
    def test_empty_inputs(self):
        workers, tasks = build_world([(0, 0)], [(1, 1)])
        assert enumerate_pairs([], tasks, 0.0).num_pairs == 0
        empty = enumerate_pairs(workers, [], 0.0)
        assert empty.num_pairs == 0
        assert empty.indptr.tolist() == [0, 0]

    def test_radius_excludes_far_task(self):
        workers, tasks = build_world([(0, 0)], [(50, 50)], radius=5.0)
        assert pair_list(enumerate_pairs(workers, tasks, 0.0)) == []

    def test_deadline_excludes_slow_worker(self):
        # Task 20 km away, radius allows it, but 5 km/h cannot make a
        # 1-hour deadline.
        workers, tasks = build_world([(0, 0)], [(20, 0)], radius=25.0, valid_hours=1.0)
        assert pair_list(enumerate_pairs(workers, tasks, 0.0)) == []
        # A fast worker makes it.
        fast_workers, _ = build_world([(0, 0)], [(20, 0)], radius=25.0, speed=25.0)
        assert pair_list(enumerate_pairs(fast_workers, tasks, 0.0)) == [(0, 0)]

    def test_current_time_counts_against_deadline(self):
        workers, tasks = build_world([(0, 0)], [(1, 0)], radius=5.0, valid_hours=2.0)
        assert pair_list(enumerate_pairs(workers, tasks, 0.0)) != []
        assert pair_list(enumerate_pairs(workers, tasks, 10.0)) == []

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_matches_dense_mask(self, regime, tiny_instance):
        """Both candidate regimes reproduce compute_feasible exactly."""
        assert_matches_reference(
            tiny_instance.workers, tiny_instance.tasks, tiny_instance.current_time, regime
        )

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
        assert_matches_reference(workers, tasks, 0.0, "grid")

    def test_distances_agree_with_matrix(self, tiny_instance):
        feasible = compute_feasible(
            tiny_instance.workers, tiny_instance.tasks, tiny_instance.current_time
        )
        graph = enumerate_pairs(
            tiny_instance.workers, tiny_instance.tasks, tiny_instance.current_time, "grid"
        )
        assert graph.num_pairs == feasible.num_feasible > 0
        np.testing.assert_array_equal(
            graph.distance_km, feasible.distance_km[graph.rows(), graph.columns]
        )


@st.composite
def tied_worlds(draw):
    """Small rounds built to sit on every edge the enumerator can get
    wrong: radii and deadlines tied with a pair's computed distance and
    arrival time, coordinates on integer multiples of the radius (cell
    edges up to the cell pad), negative coordinates and coordinates far
    from the origin, zero radii and coincident points, and empty pools."""
    radius = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0]))
    origin = draw(st.sampled_from([0.0, -7.5, 1e6, -3e7 + 0.25]))
    step = radius or 1.0
    coordinate = st.one_of(
        st.integers(-4, 4).map(lambda k: origin + k * step),
        st.floats(-4, 4, allow_nan=False).map(lambda v: origin + v * step),
    )
    point = st.tuples(coordinate, coordinate)
    worker_points = draw(st.lists(point, max_size=12))
    task_points = draw(st.lists(point, max_size=12))
    if worker_points and draw(st.booleans()):
        # Coincident points: the only pairs a zero radius accepts.
        task_points.append(draw(st.sampled_from(worker_points)))
    radii = [
        draw(st.sampled_from([0.0, radius, radius / 2, 2 * radius]))
        for _ in worker_points
    ]
    speeds = [draw(st.sampled_from([1.0, 5.0, 3.3])) for _ in worker_points]
    now = draw(st.sampled_from([0.0, 2.5]))
    deadlines = [now + draw(st.sampled_from([0.0, 0.5, 4.0, 100.0])) for _ in task_points]
    if worker_points and task_points:
        distance = pairwise_euclidean_xy(np.array(worker_points), np.array(task_points))
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, len(worker_points) - 1))
            j = draw(st.integers(0, len(task_points) - 1))
            if draw(st.booleans()):
                radii[i] = float(distance[i, j])  # d == r
            else:
                radii[i] = max(radii[i], float(distance[i, j]))
                deadlines[j] = now + float(distance[i, j]) / speeds[i]  # arrival == deadline
    workers = [
        Worker(worker_id=i, location=Point(x, y), reachable_km=r, speed_kmh=s)
        for i, ((x, y), r, s) in enumerate(zip(worker_points, radii, speeds))
    ]
    tasks = [
        Task(task_id=j, location=Point(x, y), publication_time=0.0, valid_hours=deadline)
        for j, ((x, y), deadline) in enumerate(zip(task_points, deadlines))
    ]
    return workers, tasks, now


class TestPairGraphAgainstDenseKernel:
    """A hypothesis differential of :func:`pair_graph` against the dense
    kernel: the same pair set in (row, column) order, bit-equal distances."""

    @settings(max_examples=300, deadline=None)
    @given(world=tied_worlds(), regime=st.sampled_from(sorted(REGIMES)))
    def test_matches_dense_kernel(self, world, regime):
        workers, tasks, now = world
        assert_matches_reference(workers, tasks, now, regime)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_ties_are_feasible(self, regime):
        """A 3-4-5 pair is feasible at ``d == r`` and at ``now + d/speed
        == deadline``, on a cell edge and across it."""
        worker = Worker(worker_id=0, location=Point(0.0, 0.0), reachable_km=5.0, speed_kmh=2.5)
        tasks = [
            Task(task_id=0, location=Point(3.0, 4.0), publication_time=0.0, valid_hours=3.0),
            Task(task_id=1, location=Point(-5.0, 0.0), publication_time=0.0, valid_hours=3.0),
            Task(task_id=2, location=Point(0.0, 5.0), publication_time=0.0, valid_hours=2.9),
        ]
        graph = enumerate_pairs([worker], tasks, 1.0, regime)
        assert pair_list(graph) == [(0, 0), (0, 1)]
        assert graph.distance_km.tolist() == [5.0, 5.0]

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_far_from_origin_at_cell_edges(self, regime):
        """Coordinates around 1e7 km, on and next to multiples of the
        radius: ``floor(x / cell)`` rounding must not drop a pair."""
        base = 1e7
        points = [(base + k * 2.0 + e, -base + e) for k in range(-3, 4) for e in (0.0, 1e-9, -1e-9)]
        workers = [
            Worker(worker_id=i, location=Point(x, y), reachable_km=2.0, speed_kmh=5.0)
            for i, (x, y) in enumerate(points)
        ]
        tasks = [
            Task(task_id=i, location=Point(x + 2.0, y), publication_time=0.0, valid_hours=9.0)
            for i, (x, y) in enumerate(points)
        ]
        assert_matches_reference(workers, tasks, 0.0, regime)
        assert enumerate_pairs(workers, tasks, 0.0, regime).num_pairs > len(points)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_rounding_at_a_cell_edge_keeps_the_pair(self, regime):
        """``1 - (-2**-60)`` rounds to ``1.0``, so this pair is feasible at
        radius 1, though its points lie two unpadded unit cells apart."""
        # Far tasks spread the cell table past both points, so the worker
        # is looked up in its own cell rather than clamped onto a margin.
        far = [(float(x), float(y)) for x in range(-3, 4) for y in (-3, 3)]
        for worker, task in (((1.0, 0.0), (-(2.0**-60), 0.0)), ((0.0, 1.0), (0.0, -(2.0**-60)))):
            workers, tasks = build_world([worker], [task, *far, *[(y, x) for x, y in far]], radius=1.0)
            assert_matches_reference(workers, tasks, 0.0, regime)
            assert pair_list(enumerate_pairs(workers, tasks, 0.0, regime)) == [(0, 0)]

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_zero_radius_pairs_only_coincident_points(self, regime):
        workers, tasks = build_world([(1.5, -2.0), (4.0, 4.0)], [(4.0, 4.0), (1.5, -2.0001)], radius=0.0)
        assert pair_list(enumerate_pairs(workers, tasks, 0.0, regime)) == [(1, 0)]


class TestPairGraph:
    def test_block_renumbers_rows_and_columns(self):
        workers, tasks = build_world([(0, 0), (100, 0), (101, 0)], [(1, 0), (100.5, 0), (102, 0)])
        graph = enumerate_pairs(workers, tasks, 0.0)
        block = graph.block(1, 3, 1)
        assert pair_list(block) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert block.indptr.tolist() == [0, 2, 4]

    def test_subset_keeps_rows(self):
        workers, tasks = build_world([(0, 0), (0, 1)], [(1, 0), (0, 2)])
        graph = enumerate_pairs(workers, tasks, 0.0)
        assert pair_list(graph) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        kept = graph.subset(np.array([False, True, True, False]))
        assert pair_list(kept) == [(0, 1), (1, 0)]
        assert kept.indptr.tolist() == [0, 1, 2]
        assert kept.distance_km.tolist() == [graph.distance_km[1], graph.distance_km[2]]
