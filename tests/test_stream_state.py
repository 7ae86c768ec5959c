"""Tests for repro.stream.state — live pools and the spatial task index."""

import pytest

from repro.assignment import NearestNeighborAssigner
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.geo import Point
from repro.stream import (
    ShardExecutor,
    ShardLayout,
    StreamState,
    TaskCancelEvent,
    TaskExpiryEvent,
    TaskPublishEvent,
    WorkerArrivalEvent,
    WorkerChurnEvent,
)


def make_instance():
    return SCInstance(
        name="state-test", current_time=0.0, tasks=[], workers=[], histories={},
        social_edges=[], all_worker_ids=tuple(range(50)),
    )


def make_worker(worker_id, x=0.0, y=0.0, radius=10.0):
    return Worker(worker_id=worker_id, location=Point(x, y), reachable_km=radius)


def make_task(task_id, x=1.0, y=0.0, published=0.0, phi=5.0):
    return Task(
        task_id=task_id, location=Point(x, y), publication_time=published,
        valid_hours=phi,
    )


@pytest.fixture()
def state():
    return StreamState(make_instance())


@pytest.fixture()
def executor():
    """The unsharded runtime's round path: one bin, serial backend."""
    return ShardExecutor(
        ShardLayout(cell_km=25.0, num_shards=1, max_radius_km=float("inf"))
    )


def run_round(executor, state, assigner, now):
    execution = executor.run_round(state, assigner, now)
    return execution.assignment, execution.waits


class RecordingAssigner(NearestNeighborAssigner):
    """Keeps the prepared instance each round hands the solver."""

    def assign(self, prepared):
        self.prepared = prepared
        return super().assign(prepared)


class TestEventApplication:
    def test_arrival_and_publish_fill_pools(self, state):
        state.apply(WorkerArrivalEvent(time=1.0, worker=make_worker(3)))
        state.apply(TaskPublishEvent(time=2.0, task=make_task(7)))
        assert state.num_online_workers == 1
        assert state.num_open_tasks == 1
        assert state.arrived_at[3] == pytest.approx(1.0)
        assert state.published_at[7] == pytest.approx(2.0)
        assert len(state.task_index) == 1

    def test_rearrival_replaces_worker(self, state):
        state.apply(WorkerArrivalEvent(time=1.0, worker=make_worker(3, x=0.0)))
        state.apply(WorkerArrivalEvent(time=4.0, worker=make_worker(3, x=9.0)))
        assert state.num_online_workers == 1
        assert state.workers[3].location.x == pytest.approx(9.0)
        assert state.arrived_at[3] == pytest.approx(4.0)

    def test_republish_replaces_task_and_index_entry(self, state):
        state.apply(TaskPublishEvent(time=0.0, task=make_task(7, x=1.0)))
        state.apply(TaskPublishEvent(time=1.0, task=make_task(7, x=30.0)))
        assert state.num_open_tasks == 1
        assert len(state.task_index) == 1
        near = list(state.tasks_near(Point(30.0, 0.0), 1.0))
        assert [t.task_id for t in near] == [7]

    def test_cancel_and_expiry_remove_tasks(self, state):
        state.apply(TaskPublishEvent(time=0.0, task=make_task(1)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(2, x=5.0)))
        state.apply(TaskCancelEvent(time=1.0, task_id=1))
        state.apply(TaskExpiryEvent(time=5.0, task_id=2))
        assert state.num_open_tasks == 0
        assert len(state.task_index) == 0

    def test_cancel_unknown_task_is_noop(self, state):
        state.apply(TaskCancelEvent(time=1.0, task_id=99))
        state.apply(TaskExpiryEvent(time=1.0, task_id=98))
        assert state.num_open_tasks == 0

    def test_churn_removes_worker(self, state):
        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(3)))
        state.apply(WorkerChurnEvent(time=2.0, worker_id=3))
        state.apply(WorkerChurnEvent(time=2.0, worker_id=44))  # unknown: no-op
        assert state.num_online_workers == 0

    def test_apply_reports_actual_retirements(self, state):
        assert state.apply(TaskPublishEvent(time=0.0, task=make_task(1))) == (False, False)
        assert state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(2))) == (False, False)
        assert state.apply(TaskExpiryEvent(time=1.0, task_id=1)) == (True, False)
        assert state.apply(TaskCancelEvent(time=1.0, task_id=9)) == (False, False)
        assert state.apply(WorkerChurnEvent(time=1.0, worker_id=2)) == (False, True)
        assert state.apply(WorkerChurnEvent(time=1.0, worker_id=2)) == (False, False)


class TestSweeps:
    def test_expire_tasks_is_strict(self, state):
        state.apply(TaskPublishEvent(time=0.0, task=make_task(1, published=0.0, phi=2.0)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(2, x=5.0, published=0.0, phi=4.0)))
        assert state.expire_tasks(2.0) == []  # deadline == now: still open
        expired = state.expire_tasks(2.5)
        assert [t.task_id for t in expired] == [1]
        assert state.num_open_tasks == 1
        assert len(state.task_index) == 1

    def test_churn_workers_strict_patience(self, state):
        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(1)))
        state.apply(WorkerArrivalEvent(time=3.0, worker=make_worker(2)))
        assert state.churn_workers(2.0, None) == []
        assert state.churn_workers(2.0, 2.0) == []  # == patience: stays
        assert state.churn_workers(2.5, 2.0) == [1]
        assert state.num_online_workers == 1


class TestQueriesAndRounds:
    def test_tasks_near_uses_live_index(self, state):
        state.apply(TaskPublishEvent(time=0.0, task=make_task(1, x=1.0)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(2, x=100.0)))
        near = sorted(t.task_id for t in state.tasks_near(Point(0.0, 0.0), 5.0))
        assert near == [1]

    def test_round_instance_sorted_and_timed(self, state, executor):
        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(5)))
        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(2)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(9)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(4, x=2.0)))
        assigner = RecordingAssigner()
        executor.run_round(state, assigner, 3.5)
        instance = assigner.prepared.instance
        assert [w.worker_id for w in instance.workers] == [2, 5]
        assert [t.task_id for t in instance.tasks] == [4, 9]
        assert instance.current_time == pytest.approx(3.5)

    def test_run_assignment_retires_matched_pairs(self, state, executor):
        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(1, x=0.0)))
        state.apply(TaskPublishEvent(time=0.5, task=make_task(7, x=1.0)))
        assignment, waits = run_round(
            executor, state, NearestNeighborAssigner(), 2.0
        )
        assert len(assignment) == 1
        assert waits == [(pytest.approx(1.5), pytest.approx(2.0))]
        assert state.num_online_workers == 0
        assert state.num_open_tasks == 0
        assert len(state.task_index) == 0
        assert state.arrived_at == {} and state.published_at == {}

    def test_timestamp_maps_track_pools_on_every_retirement(self, state):
        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(1)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(3)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(4, x=5.0, phi=1.0)))
        state.apply(TaskCancelEvent(time=1.0, task_id=3))
        state.expire_tasks(2.0)
        state.churn_workers(5.0, 2.0)
        assert state.published_at == {}
        assert state.arrived_at == {}
        state.apply(WorkerArrivalEvent(time=6.0, worker=make_worker(2)))
        state.apply(WorkerChurnEvent(time=7.0, worker_id=2))
        assert state.arrived_at == {}

    def test_non_incremental_preparation(self, executor):
        state = StreamState(make_instance(), incremental=False)
        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(1)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(7)))
        assigner = RecordingAssigner()
        executor.run_round(state, assigner, 0.0)
        assert assigner.prepared.feasible.num_feasible == 1
        assert executor.round_states == {}  # no persistent cache was built


class TestRelocation:
    def test_relocates_live_worker_keeping_arrival_time(self, state):
        from repro.stream import WorkerRelocateEvent

        state.apply(WorkerArrivalEvent(time=1.0, worker=make_worker(3)))
        state.apply(WorkerRelocateEvent(time=4.0, worker_id=3,
                                        location=Point(9.0, 9.0)))
        assert state.num_online_workers == 1
        assert state.workers[3].location == Point(9.0, 9.0)
        assert state.workers[3].reachable_km == 10.0  # attributes preserved
        assert state.arrived_at[3] == pytest.approx(1.0)  # wait keeps accruing

    def test_relocation_of_absent_worker_is_noop(self, state):
        from repro.stream import WorkerRelocateEvent

        removed = state.apply(WorkerRelocateEvent(time=1.0, worker_id=8,
                                                  location=Point(1.0, 1.0)))
        assert removed == (False, False)
        assert state.num_online_workers == 0

    def test_relocation_after_assignment_is_noop(self, state, executor):
        from repro.stream import WorkerRelocateEvent

        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(3)))
        state.apply(TaskPublishEvent(time=0.0, task=make_task(7)))
        assignment, _ = run_round(executor, state, NearestNeighborAssigner(), 1.0)
        assert len(assignment) == 1
        state.apply(WorkerRelocateEvent(time=2.0, worker_id=3,
                                        location=Point(5.0, 5.0)))
        assert state.num_online_workers == 0

    def test_relocation_feeds_next_round_feasibility(self, state, executor):
        """After relocating, a previously unreachable task becomes the
        worker's match — the RoundState caches must not serve stale rows."""
        from repro.stream import WorkerRelocateEvent

        state.apply(WorkerArrivalEvent(time=0.0, worker=make_worker(1, radius=4.0)))
        far = make_task(2, x=30.0, phi=50.0)
        state.apply(TaskPublishEvent(time=0.0, task=far))
        assignment, _ = run_round(executor, state, NearestNeighborAssigner(), 1.0)
        assert len(assignment) == 0
        state.apply(WorkerRelocateEvent(time=2.0, worker_id=1,
                                        location=Point(29.0, 0.0)))
        assignment, waits = run_round(
            executor, state, NearestNeighborAssigner(), 3.0
        )
        assert [(p.worker.worker_id, p.task.task_id) for p in assignment] == [(1, 2)]
        # Task waited 3h from publication; worker 3h from *arrival* (t=0).
        assert waits == [(3.0, 3.0)]

    def test_columnar_slice_counts_applied_relocations_only(self, state):
        import numpy as np

        from repro.stream.events import EventLog, KIND_RELOCATE

        from repro.stream import WorkerArrivalEvent as Arrive
        from repro.stream import WorkerChurnEvent as Churn
        from repro.stream import WorkerRelocateEvent as Move

        log = EventLog([
            Arrive(time=0.0, worker=make_worker(1)),
            Arrive(time=0.0, worker=make_worker(2)),
            Churn(time=1.0, worker_id=2),
            Move(time=2.0, worker_id=1, location=Point(3.0, 3.0)),   # applies
            Move(time=2.5, worker_id=2, location=Point(4.0, 4.0)),   # no-op
        ])
        expired, churned, cancelled, relocated = state.apply_log_slice(
            log, 0, len(log)
        )
        assert (expired, churned, cancelled, relocated) == (0, 1, 0, 1)
        assert state.workers[1].location == Point(3.0, 3.0)
        assert 2 not in state.workers
        assert int((log.kinds == KIND_RELOCATE).sum()) == 2
