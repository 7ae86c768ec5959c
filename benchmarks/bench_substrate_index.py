"""Substrate bench: feasible-pair enumeration — dense scan vs grid index.

Design-choice ablation: the dense ``|W| x |S|`` feasibility product is the
right layout for the flow solvers at paper scale, but the grid candidate
generator is output-sensitive and wins once instances grow or the
reachable radius shrinks.  Both produce the identical pair set (asserted
here and property-tested in the unit suite).
"""

import numpy as np
import pytest

from repro.assignment import candidate_pairs
from repro.assignment.candidates import _dense_pairs
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


SIZES = [(400, 500), (1200, 1500)]
ENUMERATORS = {"dense": _dense_pairs, "grid": candidate_pairs}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", sorted(ENUMERATORS))
def test_candidate_enumeration(benchmark, size, kind):
    workers, tasks = make_world(*size, radius=10.0)
    pairs = benchmark.pedantic(
        lambda: ENUMERATORS[kind](workers, tasks, 0.0),
        rounds=1, iterations=1,
    )
    assert pairs


@pytest.mark.parametrize("radius", [5.0, 25.0])
def test_index_agreement(benchmark, radius):
    """Both enumeration paths agree pair-for-pair."""
    workers, tasks = make_world(300, 375, radius=radius, seed=3)

    def run_all():
        return {
            kind: enumerate_pairs(workers, tasks, 0.0)
            for kind, enumerate_pairs in ENUMERATORS.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    key = lambda pairs: [(p.worker_index, p.task_index) for p in pairs]
    assert key(results["grid"]) == key(results["dense"])
    print(f"\nradius={radius} km -> {len(results['dense'])} feasible pairs")
