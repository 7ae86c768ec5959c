"""Tests for repro.stream.state — the live worker and task pools."""

import pytest

from repro.assignment import NearestNeighborAssigner
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.geo import Point
from repro.stream import (
    EventLog,
    ShardExecutor,
    ShardLayout,
    StreamState,
    TaskPublishEvent,
    WorkerArrivalEvent,
    WorkerRelocateEvent,
)
from repro.stream.events import (
    KIND_ARRIVAL,
    KIND_CANCEL,
    KIND_CHURN,
    KIND_EXPIRY,
    KIND_PUBLISH,
    KIND_RELOCATE,
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


def arrive(state, time, worker, event=0):
    return state.apply_kind(KIND_ARRIVAL, time, worker.worker_id, event, worker=worker)


def publish(state, time, task, event=0):
    return state.apply_kind(KIND_PUBLISH, time, task.task_id, event, task=task)


def cancel(state, time, task_id, event=0):
    return state.apply_kind(KIND_CANCEL, time, task_id, event)


def expire(state, time, task_id, event=0):
    return state.apply_kind(KIND_EXPIRY, time, task_id, event)


def churn(state, time, worker_id, event=0):
    return state.apply_kind(KIND_CHURN, time, worker_id, event)


def relocate(state, time, worker_id, location, event=0):
    """A relocation row's payload is the pooled worker moved to
    ``location`` (what the event log synthesizes for the row)."""
    pooled = state.workers.get(worker_id)
    moved = pooled.moved_to(location) if pooled is not None else None
    return state.apply_kind(KIND_RELOCATE, time, worker_id, event, worker=moved)


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
        arrive(state, 1.0, make_worker(3))
        publish(state, 2.0, make_task(7))
        assert state.num_online_workers == 1
        assert state.num_open_tasks == 1
        assert state.arrived_at[3] == pytest.approx(1.0)
        assert state.published_at[7] == pytest.approx(2.0)

    def test_rearrival_replaces_worker(self, state):
        arrive(state, 1.0, make_worker(3, x=0.0))
        arrive(state, 4.0, make_worker(3, x=9.0))
        assert state.num_online_workers == 1
        assert state.workers[3].location.x == pytest.approx(9.0)
        assert state.arrived_at[3] == pytest.approx(4.0)

    def test_republish_replaces_task_and_index_entry(self, state):
        publish(state, 0.0, make_task(7, x=1.0))
        publish(state, 1.0, make_task(7, x=30.0))
        assert state.num_open_tasks == 1
        assert state.tasks[7].location.x == pytest.approx(30.0)

    def test_cancel_and_expiry_remove_tasks(self, state):
        publish(state, 0.0, make_task(1))
        publish(state, 0.0, make_task(2, x=5.0))
        cancel(state, 1.0, 1)
        expire(state, 5.0, 2)
        assert state.num_open_tasks == 0

    def test_cancel_unknown_task_is_noop(self, state):
        cancel(state, 1.0, 99)
        expire(state, 1.0, 98)
        assert state.num_open_tasks == 0

    def test_churn_removes_worker(self, state):
        arrive(state, 0.0, make_worker(3))
        churn(state, 2.0, 3)
        churn(state, 2.0, 44)  # unknown: no-op
        assert state.num_online_workers == 0

    def test_apply_reports_actual_retirements(self, state):
        assert publish(state, 0.0, make_task(1)) == (False, False)
        assert arrive(state, 0.0, make_worker(2)) == (False, False)
        assert expire(state, 1.0, 1) == (True, False)
        assert cancel(state, 1.0, 9) == (False, False)
        assert churn(state, 1.0, 2) == (False, True)
        assert churn(state, 1.0, 2) == (False, False)


class TestSweeps:
    def test_expire_tasks_is_strict(self, state):
        publish(state, 0.0, make_task(1, published=0.0, phi=2.0))
        publish(state, 0.0, make_task(2, x=5.0, published=0.0, phi=4.0))
        assert state.expire_tasks(2.0) == []  # deadline == now: still open
        expired = state.expire_tasks(2.5)
        assert [t.task_id for t in expired] == [1]
        assert state.num_open_tasks == 1

    def test_churn_workers_strict_patience(self, state):
        arrive(state, 0.0, make_worker(1))
        arrive(state, 3.0, make_worker(2))
        assert state.churn_workers(2.0, None) == []
        assert state.churn_workers(2.0, 2.0) == []  # == patience: stays
        assert state.churn_workers(2.5, 2.0) == [1]
        assert state.num_online_workers == 1


class TestQueriesAndRounds:
    def test_round_instance_sorted_and_timed(self, state, executor):
        arrive(state, 0.0, make_worker(5))
        arrive(state, 0.0, make_worker(2))
        publish(state, 0.0, make_task(9))
        publish(state, 0.0, make_task(4, x=2.0))
        assigner = RecordingAssigner()
        executor.run_round(state, assigner, 3.5)
        instance = assigner.prepared.instance
        assert [w.worker_id for w in instance.workers] == [2, 5]
        assert [t.task_id for t in instance.tasks] == [4, 9]
        assert instance.current_time == pytest.approx(3.5)

    def test_run_assignment_retires_matched_pairs(self, state, executor):
        arrive(state, 0.0, make_worker(1, x=0.0))
        publish(state, 0.5, make_task(7, x=1.0))
        assignment, waits = run_round(
            executor, state, NearestNeighborAssigner(), 2.0
        )
        assert len(assignment) == 1
        assert waits == [(pytest.approx(1.5), pytest.approx(2.0))]
        assert state.num_online_workers == 0
        assert state.num_open_tasks == 0
        assert state.arrived_at == {} and state.published_at == {}

    def test_timestamp_maps_track_pools_on_every_retirement(self, state):
        arrive(state, 0.0, make_worker(1))
        publish(state, 0.0, make_task(3))
        publish(state, 0.0, make_task(4, x=5.0, phi=1.0))
        cancel(state, 1.0, 3)
        state.expire_tasks(2.0)
        state.churn_workers(5.0, 2.0)
        assert state.published_at == {}
        assert state.arrived_at == {}
        arrive(state, 6.0, make_worker(2))
        churn(state, 7.0, 2)
        assert state.arrived_at == {}

    def test_non_incremental_preparation(self, executor):
        state = StreamState(make_instance(), incremental=False)
        arrive(state, 0.0, make_worker(1))
        publish(state, 0.0, make_task(7))
        assigner = RecordingAssigner()
        executor.run_round(state, assigner, 0.0)
        assert assigner.prepared.feasible.num_feasible == 1
        assert executor.round_states == {}  # no persistent cache was built


class TestRelocation:
    def test_relocates_live_worker_keeping_arrival_time(self, state):
        arrive(state, 1.0, make_worker(3))
        relocate(state, 4.0, 3, Point(9.0, 9.0))
        assert state.num_online_workers == 1
        assert state.workers[3].location == Point(9.0, 9.0)
        assert state.workers[3].reachable_km == 10.0  # attributes preserved
        assert state.arrived_at[3] == pytest.approx(1.0)  # wait keeps accruing

    def test_relocation_of_absent_worker_is_noop(self, state):
        removed = relocate(state, 1.0, 8, Point(1.0, 1.0))
        assert removed == (False, False)
        assert state.num_online_workers == 0

    def test_relocation_after_assignment_is_noop(self, state, executor):
        arrive(state, 0.0, make_worker(3))
        publish(state, 0.0, make_task(7))
        assignment, _ = run_round(executor, state, NearestNeighborAssigner(), 1.0)
        assert len(assignment) == 1
        relocate(state, 2.0, 3, Point(5.0, 5.0))
        assert state.num_online_workers == 0

    def test_relocation_feeds_next_round_feasibility(self, state, executor):
        """After relocating, a previously unreachable task becomes the
        worker's match — the RoundState caches must not serve stale rows."""
        arrive(state, 0.0, make_worker(1, radius=4.0))
        far = make_task(2, x=30.0, phi=50.0)
        publish(state, 0.0, far)
        assignment, _ = run_round(executor, state, NearestNeighborAssigner(), 1.0)
        assert len(assignment) == 0
        relocate(state, 2.0, 1, Point(29.0, 0.0))
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


class TestEventIndices:
    """Each pooled entity carries the log row that set its current state."""

    def test_slice_records_global_rows_of_arrivals_publishes_and_moves(self, state):
        log = EventLog([
            WorkerArrivalEvent(time=0.0, worker=make_worker(1)),
            WorkerArrivalEvent(time=0.0, worker=make_worker(2)),
            TaskPublishEvent(time=0.5, task=make_task(7)),
            WorkerRelocateEvent(time=1.0, worker_id=1, location=Point(3.0, 3.0)),
        ])
        state.apply_log_slice(log, 0, len(log), offset=100)
        assert state.worker_events == {1: 103, 2: 101}
        assert state.task_events == {7: 102}
        # The recorded row rebuilds exactly the pooled payload.
        assert log.worker_at(state.worker_events[1] - 100) == state.workers[1]
        assert log.task_at(state.task_events[7] - 100) == state.tasks[7]

    def test_rearrival_and_republish_overwrite_the_row(self, state):
        arrive(state, 0.0, make_worker(3), event=4)
        arrive(state, 1.0, make_worker(3, x=9.0), event=9)
        publish(state, 0.0, make_task(7), event=5)
        publish(state, 1.0, make_task(7, x=30.0), event=11)
        assert state.worker_events == {3: 9}
        assert state.task_events == {7: 11}

    def test_unapplied_relocation_records_nothing(self, state):
        relocate(state, 1.0, 8, Point(1.0, 1.0), event=3)
        assert state.worker_events == {}

    def test_maps_keep_the_pools_keys_on_every_retirement(self, state, executor):
        def same_keys():
            return (
                state.worker_events.keys() == state.workers.keys()
                and state.task_events.keys() == state.tasks.keys()
            )

        arrive(state, 0.0, make_worker(1), event=0)
        arrive(state, 0.0, make_worker(2, x=50.0), event=1)
        arrive(state, 0.0, make_worker(3, x=90.0), event=2)
        publish(state, 0.0, make_task(3), event=3)
        publish(state, 0.0, make_task(4, x=5.0, phi=1.0), event=4)
        publish(state, 0.0, make_task(5, x=50.0, phi=9.0), event=5)
        publish(state, 0.0, make_task(6, x=200.0, phi=9.0), event=6)
        assert same_keys()
        cancel(state, 1.0, 3, event=7)
        assert same_keys()
        state.expire_tasks(2.0)  # task 4
        assert same_keys()
        churn(state, 2.0, 3, event=8)
        assert same_keys()
        execution = executor.run_round(state, NearestNeighborAssigner(), 2.5)
        assert [(p.worker.worker_id, p.task.task_id) for p in execution.assignment] == [
            (2, 5)
        ]
        assert execution.events == [(1, 5)]
        assert same_keys()
        state.churn_workers(5.0, 2.0)  # worker 1
        expire(state, 9.0, 6, event=9)
        assert same_keys()
        assert state.workers == {} and state.tasks == {}
