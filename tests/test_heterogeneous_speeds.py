"""End-to-end tests for per-worker travel speeds.

The paper assumes a common 5 km/h speed "for the sake of simplicity" but
notes the algorithms also address workers moving at different speeds; these
tests exercise that claim through feasibility, candidates, assignment and
the online simulator.
"""

import numpy as np
import pytest

from repro.assignment import (
    MTAAssigner,
    PreparedInstance,
    compute_feasible,
    entity_columns,
    pair_graph,
)
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.framework import OnlineSimulator, WorkerArrival
from repro.geo import Point


def worker(worker_id, x, y, speed, radius=100.0):
    return Worker(
        worker_id=worker_id,
        location=Point(x, y),
        reachable_km=radius,
        speed_kmh=speed,
    )


def task(task_id, x, y, phi):
    return Task(
        task_id=task_id, location=Point(x, y), publication_time=0.0, valid_hours=phi
    )


def instance_of(workers, tasks, t=0.0):
    return SCInstance(
        name="speed-test",
        current_time=t,
        tasks=tasks,
        workers=workers,
        histories={},
        social_edges=[],
        all_worker_ids=tuple(w.worker_id for w in workers),
    )


class TestFeasibilityWithSpeeds:
    def test_fast_worker_feasible_slow_worker_not(self):
        # 20 km away, 2-hour validity: needs >= 10 km/h.
        workers = [worker(0, 0, 0, speed=5.0), worker(1, 0, 0, speed=25.0)]
        tasks = [task(0, 20.0, 0.0, phi=2.0)]
        feasible = compute_feasible(workers, tasks, current_time=0.0)
        assert not feasible.mask[0, 0]
        assert feasible.mask[1, 0]

    def test_candidates_respect_speed(self):
        workers = [worker(0, 0, 0, speed=5.0), worker(1, 0, 0, speed=25.0)]
        tasks = [task(0, 20.0, 0.0, phi=2.0)]
        graph = pair_graph(
            entity_columns("worker", workers, {}).attrs,
            entity_columns("task", tasks, {}).attrs,
            0.0,
        )
        assert list(zip(graph.rows().tolist(), graph.columns.tolist())) == [(1, 0)]
        assert graph.indptr.tolist() == compute_feasible(workers, tasks, 0.0).graph.indptr.tolist()

    def test_speed_validation(self):
        with pytest.raises(ValueError):
            worker(0, 0, 0, speed=0.0)
        with pytest.raises(ValueError):
            worker(0, 0, 0, speed=-3.0)

    def test_travel_hours_scale_inversely_with_speed(self):
        slow = worker(0, 0, 0, speed=5.0)
        fast = worker(1, 0, 0, speed=10.0)
        target = Point(10.0, 0.0)
        assert slow.travel_hours_to(target) == pytest.approx(2.0)
        assert fast.travel_hours_to(target) == pytest.approx(1.0)


class TestAssignmentWithSpeeds:
    def test_only_fast_worker_matched_to_tight_task(self):
        workers = [worker(0, 0, 0, speed=5.0), worker(1, 5, 5, speed=30.0)]
        tasks = [task(0, 20.0, 0.0, phi=1.5)]
        prepared = PreparedInstance(instance_of(workers, tasks))
        assignment = MTAAssigner().assign(prepared)
        assert len(assignment) == 1
        assert assignment.pairs[0].worker.worker_id == 1

    def test_mixed_speeds_maximize_cardinality(self):
        # The slow worker can only make the near task; lexicographic
        # max-cardinality must give the far task to the fast worker.
        workers = [worker(0, 0, 0, speed=5.0), worker(1, 0, 0, speed=50.0)]
        tasks = [task(0, 4.0, 0.0, phi=1.0), task(1, 40.0, 0.0, phi=1.0)]
        prepared = PreparedInstance(instance_of(workers, tasks))
        assignment = MTAAssigner().assign(prepared)
        pairs = {(p.worker.worker_id, p.task.task_id) for p in assignment}
        assert pairs == {(0, 0), (1, 1)}


class TestOnlineWithSpeeds:
    def test_fast_arrival_beats_deadline(self):
        base = instance_of([], [task(0, 10.0, 0.0, phi=3.0)])
        arrivals = [
            WorkerArrival(worker=worker(0, 0, 0, speed=4.0), arrival_time=1.0),
            WorkerArrival(worker=worker(1, 0, 0, speed=40.0), arrival_time=2.0),
        ]
        result = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0).run(
            base, arrivals
        )
        # At t=1 the slow worker cannot make it (10 km in 2 h needs 5 km/h);
        # at t=2 the fast worker can.
        assert result.total_assigned == 1
        assert result.assignment.pairs[0].worker.worker_id == 1

    def test_random_population_mixed_speeds_runs(self):
        rng = np.random.default_rng(0)
        workers = [
            worker(i, *rng.uniform(0, 30, 2), speed=float(rng.uniform(3, 30)))
            for i in range(25)
        ]
        tasks = [task(i, *rng.uniform(0, 30, 2), phi=2.0) for i in range(25)]
        prepared = PreparedInstance(instance_of(workers, tasks))
        assignment = MTAAssigner().assign(prepared)
        # Every matched pair must individually satisfy the speed condition.
        for pair in assignment:
            travel = pair.worker.travel_hours_to(pair.task.location)
            assert travel <= pair.task.expiry_time + 1e-9
