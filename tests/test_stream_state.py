"""Tests for repro.stream.state — the live worker and task pools."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.assignment import NearestNeighborAssigner
from repro.data.instance import SCInstance
from repro.entities import AssignedPair, Assignment, Task, Worker
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
    """The unsharded runtime's round path: one bin."""
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
    return execution.assignment, [tuple(wait) for wait in execution.waits.tolist()]


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
        assert state.workers.by_id("since")[3] == pytest.approx(1.0)
        assert state.tasks.by_id("since")[7] == pytest.approx(2.0)

    def test_rearrival_replaces_worker(self, state):
        arrive(state, 1.0, make_worker(3, x=0.0))
        arrive(state, 4.0, make_worker(3, x=9.0))
        assert state.num_online_workers == 1
        assert state.workers[3].location.x == pytest.approx(9.0)
        assert state.workers.by_id("since")[3] == pytest.approx(4.0)

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
        assert state.workers.by_id("since") == {} and state.tasks.by_id("since") == {}

    def test_timestamp_maps_track_pools_on_every_retirement(self, state):
        arrive(state, 0.0, make_worker(1))
        publish(state, 0.0, make_task(3))
        publish(state, 0.0, make_task(4, x=5.0, phi=1.0))
        cancel(state, 1.0, 3)
        state.expire_tasks(2.0)
        state.churn_workers(5.0, 2.0)
        assert state.tasks.by_id("since") == {}
        assert state.workers.by_id("since") == {}
        arrive(state, 6.0, make_worker(2))
        churn(state, 7.0, 2)
        assert state.workers.by_id("since") == {}

    def test_pairs_a_layout_splits_are_not_solved(self, state):
        """A feasible pair that a hand-made layout splits between shards is
        dropped from the round's one enumeration, as a per-shard prepare
        would never have seen it; each shard still solves its own pair."""
        layout = ShardLayout(
            cell_km=1.0, num_shards=2, max_radius_km=1.0,
            cells={(0, 0): 0, (0, -1): 0, (1, 0): 1, (1, -1): 1},
        )
        executor = ShardExecutor(layout)
        arrive(state, 0.0, make_worker(1, x=0.9, y=0.5))
        arrive(state, 0.0, make_worker(2, x=1.1, y=-0.5))
        publish(state, 0.0, make_task(3, x=1.1, y=0.5))
        publish(state, 0.0, make_task(4, x=0.9, y=-0.5))
        assignment, _ = run_round(executor, state, NearestNeighborAssigner(), 1.0)
        assert sorted((p.worker.worker_id, p.task.task_id) for p in assignment) == [
            (1, 4), (2, 3)
        ]

    def test_non_incremental_preparation(self, executor):
        state = StreamState(make_instance(), incremental=False)
        arrive(state, 0.0, make_worker(1))
        publish(state, 0.0, make_task(7))
        assigner = RecordingAssigner()
        executor.run_round(state, assigner, 0.0)
        assert assigner.prepared.feasible.num_feasible == 1
        assert vars(executor.round_state) == {"influence": None}


class TestRelocation:
    def test_relocates_live_worker_keeping_arrival_time(self, state):
        arrive(state, 1.0, make_worker(3))
        relocate(state, 4.0, 3, Point(9.0, 9.0))
        assert state.num_online_workers == 1
        assert state.workers[3].location == Point(9.0, 9.0)
        assert state.workers[3].reachable_km == 10.0  # attributes preserved
        assert state.workers.by_id("since")[3] == pytest.approx(1.0)  # wait keeps accruing

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
        assert state.workers.by_id("events") == {1: 103, 2: 101}
        assert state.tasks.by_id("events") == {7: 102}
        # The recorded row rebuilds exactly the pooled payload.
        assert log.worker_at(state.workers.by_id("events")[1] - 100) == state.workers[1]
        assert log.task_at(state.tasks.by_id("events")[7] - 100) == state.tasks[7]

    def test_rearrival_and_republish_overwrite_the_row(self, state):
        arrive(state, 0.0, make_worker(3), event=4)
        arrive(state, 1.0, make_worker(3, x=9.0), event=9)
        publish(state, 0.0, make_task(7), event=5)
        publish(state, 1.0, make_task(7, x=30.0), event=11)
        assert state.workers.by_id("events") == {3: 9}
        assert state.tasks.by_id("events") == {7: 11}

    def test_unapplied_relocation_records_nothing(self, state):
        relocate(state, 1.0, 8, Point(1.0, 1.0), event=3)
        assert state.workers.by_id("events") == {}

    def test_maps_keep_the_pools_keys_on_every_retirement(self, state, executor):
        def same_keys():
            return (
                state.workers.by_id("events").keys() == state.workers.keys()
                and state.tasks.by_id("events").keys() == state.tasks.keys()
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
        assert execution.events.tolist() == [[1, 5]]
        assert same_keys()
        state.churn_workers(5.0, 2.0)  # worker 1
        expire(state, 9.0, 6, event=9)
        assert same_keys()
        assert state.workers == {} and state.tasks == {}


class DictPools:
    """The reference model: the id-keyed dict pools that the columnar
    :class:`StreamState` replaced, with the same strict sweeps."""

    def __init__(self):
        self.workers, self.tasks = {}, {}
        self.arrived_at, self.published_at = {}, {}
        self.worker_events, self.task_events = {}, {}

    def apply(self, kind, time, entity_id, event, worker=None, task=None):
        if kind == KIND_ARRIVAL:
            self.workers[entity_id] = worker
            self.arrived_at[entity_id] = time
            self.worker_events[entity_id] = event
        elif kind == KIND_PUBLISH:
            self.tasks[entity_id] = task
            self.published_at[entity_id] = time
            self.task_events[entity_id] = event
        elif kind in (KIND_CANCEL, KIND_EXPIRY):
            if entity_id in self.tasks:
                self._drop_task(entity_id)
                return True, False
        elif kind == KIND_CHURN:
            if entity_id in self.workers:
                self._drop_worker(entity_id)
                return False, True
        elif kind == KIND_RELOCATE and entity_id in self.workers:
            self.workers[entity_id] = worker
            self.worker_events[entity_id] = event
        return False, False

    def expire(self, now):
        expired = sorted(i for i, task in self.tasks.items() if task.expiry_time < now)
        tasks = [self.tasks[i] for i in expired]
        for task_id in expired:
            self._drop_task(task_id)
        return tasks

    def churn(self, now, patience):
        if patience is None:
            return []
        churned = sorted(i for i, since in self.arrived_at.items() if now - since > patience)
        for worker_id in churned:
            self._drop_worker(worker_id)
        return churned

    def retire(self, pairs, now):
        waits, events = [], []
        for worker_id, task_id in pairs:
            waits.append([now - self.published_at[task_id], now - self.arrived_at[worker_id]])
            events.append([self.worker_events[worker_id], self.task_events[task_id]])
            self._drop_worker(worker_id)
            self._drop_task(task_id)
        return waits, events

    def _drop_worker(self, worker_id):
        del self.workers[worker_id], self.arrived_at[worker_id], self.worker_events[worker_id]

    def _drop_task(self, task_id):
        del self.tasks[task_id], self.published_at[task_id], self.task_events[task_id]


class PayloadLog:
    """What a checkpoint restore reads of the log: payloads by row."""

    def __init__(self):
        self.rows = {}

    def worker_at(self, index):
        return self.rows[index]

    def task_at(self, index):
        return self.rows[index]


#: Times, locations, validities and patiences on a half-hour grid, so
#: deadlines and patience limits often fall exactly on a sweep time.
HALVES = st.integers(0, 6).map(lambda k: k * 0.5)
POOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.integers(0, 19), HALVES),
        st.tuples(st.just("publish"), st.integers(0, 19), HALVES),
        st.tuples(st.just("cancel"), st.integers(0, 19)),
        st.tuples(st.just("expire"), st.integers(0, 19)),
        st.tuples(st.just("churn"), st.integers(0, 19)),
        st.tuples(st.just("relocate"), st.integers(0, 19), HALVES),
        st.tuples(st.just("sweep"), st.sampled_from([None, 0.0, 0.5, 1.0, 2.0])),
        st.tuples(st.just("retire"), st.integers(0, 4)),
        st.tuples(st.just("advance"), HALVES),
        st.tuples(st.just("checkpoint")),
    ),
    max_size=60,
)


def assert_pools_match(state, model, peaks):
    """``peaks`` carries each pool's largest size so far."""
    from repro.assignment.base import task_attributes, worker_attributes
    from repro.influence import VenueEntropy

    for index, (pool, payloads, since, events, attributes) in enumerate((
        (state.workers, model.workers, model.arrived_at, model.worker_events,
         worker_attributes),
        (state.tasks, model.tasks, model.published_at, model.task_events,
         task_attributes),
    )):
        assert len(pool) == len(payloads)
        assert list(pool) == sorted(payloads)
        assert dict(pool) == payloads
        assert pool.by_id("since") == since
        assert pool.by_id("events") == events
        slots = pool.slots_by_id()
        assert pool.ids[slots].tolist() == sorted(payloads)
        entropy = VenueEntropy({})
        expected = [attributes(pool.payloads[slot], entropy) for slot in slots.tolist()]
        assert pool.attrs[slots].tolist() == [list(row) for row in expected]
        # Freed slots are reused: the arrays never outgrow twice the
        # largest pool (or the first 16 slots).
        peaks[index] = max(peaks[index], len(pool))
        assert pool.live.size <= max(16, 2 * peaks[index])


class TestColumnarPoolsAgainstDictModel:
    """Random event sequences leave the columnar pools equal to the dict
    model: contents, times, recorded rows, sweep results (ties at
    ``expiry_time == now`` and ``now - since == patience`` stay pooled),
    retired pairs' waits and rows, slot reuse and checkpoint round trips."""

    @settings(max_examples=150, deadline=None)
    @given(ops=POOL_OPS)
    @example(ops=[
        ("publish", 1, 1.0), ("arrive", 2, 0.5), ("advance", 1.0),
        ("sweep", 1.0),  # deadline == now and now - since == patience
        ("advance", 0.5), ("sweep", 1.0),
    ])
    @example(ops=[
        ("arrive", 1, 0.0), ("publish", 1, 3.0), ("retire", 1),
        ("arrive", 2, 1.0), ("publish", 3, 3.0), ("checkpoint",),
        ("relocate", 2, 2.5), ("arrive", 2, 0.5), ("retire", 1),
    ])
    @example(ops=[
        # A re-arrival after a relocation restarts the wait; a relocation
        # keeps it; a churned worker's slot goes to its next arrival.
        ("arrive", 1, 0.0), ("advance", 1.0), ("relocate", 1, 2.0),
        ("arrive", 1, 0.5), ("advance", 1.0), ("churn", 1), ("arrive", 1, 1.5),
        ("relocate", 1, 3.0),
    ])
    def test_random_event_sequences(self, ops):
        instance = make_instance()
        state, model, log = StreamState(instance), DictPools(), PayloadLog()
        clock, peaks = 0.0, [0, 0]
        for event, (name, *args) in enumerate(ops):
            if name in ("arrive", "publish", "relocate"):
                entity_id, value = args
                if name == "publish":
                    kind = KIND_PUBLISH
                    payload = make_task(entity_id, x=value, published=clock, phi=value)
                    applied = state.apply_kind(kind, clock, entity_id, event, task=payload)
                    expected = model.apply(kind, clock, entity_id, event, task=payload)
                else:
                    kind = KIND_ARRIVAL if name == "arrive" else KIND_RELOCATE
                    pooled = model.workers.get(entity_id)
                    payload = (
                        pooled.moved_to(Point(value, 1.0))
                        if name == "relocate" and pooled is not None
                        else make_worker(entity_id, x=value, radius=value + 1.0)
                    )
                    applied = state.apply_kind(kind, clock, entity_id, event, worker=payload)
                    expected = model.apply(kind, clock, entity_id, event, worker=payload)
                log.rows[event] = payload
                assert applied == expected
            elif name in ("cancel", "expire", "churn"):
                kind = {"cancel": KIND_CANCEL, "expire": KIND_EXPIRY, "churn": KIND_CHURN}[name]
                assert state.apply_kind(kind, clock, args[0], event) == model.apply(
                    kind, clock, args[0], event
                )
            elif name == "sweep":
                assert state.expire_tasks(clock) == model.expire(clock)
                assert state.churn_workers(clock, args[0]) == model.churn(clock, args[0])
            elif name == "retire":
                pairs = list(zip(sorted(model.workers), sorted(model.tasks)))[: args[0]]
                assignment = Assignment([
                    AssignedPair(task=model.tasks[t], worker=model.workers[w]) for w, t in pairs
                ])
                waits, events = state.retire_pairs(assignment, clock)
                expected_waits, expected_events = model.retire(pairs, clock)
                assert waits.shape == events.shape == (len(pairs), 2)
                assert waits.tolist() == expected_waits
                assert events.tolist() == expected_events
            elif name == "advance":
                clock += args[0]
            elif name == "checkpoint":
                restored = StreamState(instance)
                restored.load_pool_arrays(state.pool_arrays(), log)
                state = restored
            assert_pools_match(state, model, peaks)

    def test_retired_slots_are_reused(self, state):
        for worker_id in range(3):
            arrive(state, 0.0, make_worker(worker_id), event=worker_id)
        slots = state.workers.slots_of([0, 1, 2]).tolist()
        churn(state, 1.0, 1)
        state.churn_workers(2.0, 5.0)  # flushes; nobody is due
        arrive(state, 2.0, make_worker(7), event=9)
        assert state.workers.slots_of([7]).tolist() == [slots[1]]
        assert state.workers.by_id("events") == {0: 0, 2: 2, 7: 9}
        assert state.workers.live.sum() == 3
