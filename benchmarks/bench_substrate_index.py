"""Substrate bench: feasible-pair enumeration — dense kernel vs grid graph.

Design-choice ablation: the dense ``|W| x |S|`` feasibility kernel
(:func:`~repro.assignment.compute_feasible`) is the batch path and the
reference, and :func:`~repro.assignment.pair_graph`, which tests only the
tasks in each worker's 3 x 3 grid neighbourhood, is what stream rounds
run.  Both produce the identical pair graph (asserted here and
property-tested in the unit suite).
"""

import numpy as np
import pytest

from repro.assignment import compute_feasible, pair_graph
from repro.entities import Task, Worker
from repro.geo import Point


def make_world(num_workers: int, num_tasks: int, radius: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    area = 100.0
    workers = [
        Worker(worker_id=i, location=Point(*rng.uniform(0, area, 2)), reachable_km=radius)
        for i in range(num_workers)
    ]
    tasks = [
        Task(
            task_id=i,
            location=Point(*rng.uniform(0, area, 2)),
            publication_time=0.0,
            valid_hours=5.0,
        )
        for i in range(num_tasks)
    ]
    return workers, tasks


def dense_graph(workers, tasks, now):
    return compute_feasible(workers, tasks, now).graph


def grid_graph(workers, tasks, now):
    worker_attrs = np.array(
        [(w.location.x, w.location.y, w.reachable_km, w.speed_kmh) for w in workers]
    )
    task_attrs = np.array([(t.location.x, t.location.y, t.expiry_time) for t in tasks])
    return pair_graph(worker_attrs, task_attrs, now)


SIZES = [(400, 500), (1200, 1500)]
ENUMERATORS = {"dense": dense_graph, "grid": grid_graph}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", sorted(ENUMERATORS))
def test_candidate_enumeration(benchmark, size, kind):
    workers, tasks = make_world(*size, radius=10.0)
    graph = benchmark.pedantic(
        lambda: ENUMERATORS[kind](workers, tasks, 0.0),
        rounds=1, iterations=1,
    )
    assert graph.num_pairs


@pytest.mark.parametrize("radius", [5.0, 25.0])
def test_index_agreement(benchmark, radius):
    """Both enumeration paths agree pair for pair, distances included."""
    workers, tasks = make_world(300, 375, radius=radius, seed=3)

    def run_all():
        return {
            kind: enumerate_pairs(workers, tasks, 0.0)
            for kind, enumerate_pairs in ENUMERATORS.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for got, want in zip(results["grid"], results["dense"]):
        np.testing.assert_array_equal(got, want)
    print(f"\nradius={radius} km -> {results['dense'].num_pairs} feasible pairs")
