"""Tests for repro.stream.events — typed events and the EventLog."""

import pytest
from hypothesis import given, settings

from repro.entities import Task, Worker
from repro.geo import Point  # noqa: F401 - used in payload fingerprint tests
from repro.stream import (
    EventLog,
    TaskCancelEvent,
    TaskExpiryEvent,
    TaskPublishEvent,
    WorkerArrivalEvent,
    WorkerChurnEvent,
    WorkerRelocateEvent,
    day_stream,
    expiry_events,
    log_from_arrivals,
    synthetic_stream,
)
from repro.stream.events import PHASE_ARRIVAL, PHASE_EXPIRY, PHASE_PUBLISH

from tests.strategies import event_logs, stream_worlds


def make_worker(worker_id, x=0.0, y=0.0):
    return Worker(worker_id=worker_id, location=Point(x, y), reachable_km=10.0)


def make_task(task_id, published=0.0, phi=5.0, x=1.0, y=0.0):
    return Task(
        task_id=task_id, location=Point(x, y), publication_time=published,
        valid_hours=phi,
    )


class TestEventTypes:
    def test_entity_ids(self):
        assert WorkerArrivalEvent(time=1.0, worker=make_worker(7)).entity_id == 7
        assert TaskPublishEvent(time=1.0, task=make_task(3)).entity_id == 3
        assert TaskCancelEvent(time=1.0, task_id=4).entity_id == 4
        assert TaskExpiryEvent(time=1.0, task_id=5).entity_id == 5
        assert WorkerChurnEvent(time=1.0, worker_id=6).entity_id == 6

    def test_admission_phases_precede_deferred(self):
        assert PHASE_ARRIVAL < PHASE_EXPIRY
        assert PHASE_PUBLISH < PHASE_EXPIRY

    def test_expiry_events_use_deadlines(self):
        events = expiry_events([make_task(0, published=2.0, phi=3.0)])
        assert events[0].time == pytest.approx(5.0)
        assert events[0].task_id == 0


class TestEventLogOrdering:
    def test_sorted_by_time_then_phase_then_entity(self):
        log = EventLog(
            [
                TaskExpiryEvent(time=1.0, task_id=0),
                WorkerArrivalEvent(time=1.0, worker=make_worker(2)),
                TaskPublishEvent(time=1.0, task=make_task(1, published=1.0)),
                WorkerArrivalEvent(time=0.5, worker=make_worker(9)),
            ]
        )
        kinds = [(e.time, e.phase, e.entity_id) for e in log]
        assert kinds == sorted(kinds)
        assert log[0].entity_id == 9  # earliest time first
        assert log[1].phase == PHASE_ARRIVAL  # arrival before publish at t=1

    def test_simultaneous_events_deterministic_across_source_orders(self):
        """The same event set yields the same log order however the sources
        were interleaved (tie-break = time, phase, entity id)."""
        events = [
            WorkerArrivalEvent(time=2.0, worker=make_worker(5)),
            WorkerArrivalEvent(time=2.0, worker=make_worker(1)),
            TaskPublishEvent(time=2.0, task=make_task(8, published=2.0)),
            TaskExpiryEvent(time=2.0, task_id=3),
        ]
        forward = EventLog(events)
        backward = EventLog(reversed(events))
        assert forward.events == backward.events
        assert [e.entity_id for e in forward] == [1, 5, 8, 3]

    def test_merged_combines_sources(self):
        arrivals = [
            WorkerArrivalEvent(time=t, worker=make_worker(i))
            for i, t in enumerate((0.0, 2.0, 4.0))
        ]
        publishes = [
            TaskPublishEvent(time=t, task=make_task(i, published=t))
            for i, t in enumerate((3.0, 1.0))  # unsorted source is fine
        ]
        log = EventLog.merged(arrivals, publishes)
        assert [e.time for e in log] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_len_getitem_iter(self):
        log = EventLog([WorkerArrivalEvent(time=0.0, worker=make_worker(1))])
        assert len(log) == 1
        assert log[0].entity_id == 1
        assert list(log) == [log[0]]


class TestEventLogProperties:
    def test_start_time_ignores_deferred_events(self):
        log = EventLog(
            [
                TaskExpiryEvent(time=0.5, task_id=0),
                TaskPublishEvent(time=2.0, task=make_task(0, published=2.0)),
            ]
        )
        assert log.start_time() == pytest.approx(2.0)

    def test_start_time_none_without_admissions(self):
        assert EventLog([TaskExpiryEvent(time=1.0, task_id=0)]).start_time() is None
        assert EventLog([]).start_time() is None

    def test_has_arrivals(self):
        assert not EventLog([]).has_arrivals()
        assert EventLog(
            [WorkerArrivalEvent(time=0.0, worker=make_worker(1))]
        ).has_arrivals()

    def test_last_deadline(self):
        tasks = [make_task(0, published=0.0, phi=2.0), make_task(1, published=1.0, phi=5.0)]
        log = log_from_arrivals([], tasks)
        assert log.last_deadline() == pytest.approx(6.0)
        assert EventLog([]).last_deadline() is None

    def test_fingerprint_sensitive_to_content(self):
        log_a = EventLog([WorkerArrivalEvent(time=0.0, worker=make_worker(1))])
        log_b = EventLog([WorkerArrivalEvent(time=0.0, worker=make_worker(2))])
        assert log_a.fingerprint() == EventLog(log_a.events).fingerprint()
        assert log_a.fingerprint() != log_b.fingerprint()

    def test_fingerprint_sensitive_to_payload_attributes(self):
        """Identical (time, id) but different worker/task attributes must
        change the fingerprint — resuming a checkpoint against the same day
        rebuilt with another radius or validity must fail fast."""
        wide = EventLog(
            [WorkerArrivalEvent(
                time=1.0,
                worker=Worker(worker_id=3, location=Point(0, 0), reachable_km=25.0),
            )]
        )
        narrow = EventLog(
            [WorkerArrivalEvent(
                time=1.0,
                worker=Worker(worker_id=3, location=Point(0, 0), reachable_km=10.0),
            )]
        )
        assert wide.fingerprint() != narrow.fingerprint()
        short = EventLog(
            [TaskPublishEvent(time=1.0, task=make_task(3, phi=2.0))]
        )
        long = EventLog(
            [TaskPublishEvent(time=1.0, task=make_task(3, phi=8.0))]
        )
        assert short.fingerprint() != long.fingerprint()
        plain = EventLog(
            [TaskPublishEvent(time=1.0, task=make_task(3))]
        )
        tagged_task = Task(
            task_id=3, location=Point(1.0, 0.0), publication_time=0.0,
            valid_hours=5.0, categories=("cafe",),
        )
        tagged = EventLog([TaskPublishEvent(time=1.0, task=tagged_task)])
        assert plain.fingerprint() != tagged.fingerprint()


class TestFingerprintPinned:
    """Regression pins for the columnar buffer fingerprint.

    The digests hash the structured-array buffer and the payload attribute
    tables directly; these exact values guard against silent format drift —
    a stale checkpoint must keep failing fast with the same fingerprint it
    was saved with.  If a deliberate format change breaks these, bump
    ``CHECKPOINT_VERSION`` and re-pin.
    """

    def test_empty_log(self):
        assert EventLog([]).fingerprint() == (
            "a4a1965ea4083371a44768f5190c24feb0e3d7a74fa3f3d9bf5336d67ca7a846"
        )

    def test_hand_built_log_all_event_kinds(self):
        log = EventLog([
            WorkerArrivalEvent(
                time=0.25,
                worker=Worker(worker_id=3, location=Point(1.5, -2.0),
                              reachable_km=12.5, speed_kmh=4.0),
            ),
            TaskPublishEvent(
                time=0.5,
                task=Task(task_id=7, location=Point(0.0, 3.25),
                          publication_time=0.5, valid_hours=2.0,
                          categories=("cafe", "bar"), venue_id=11),
            ),
            TaskCancelEvent(time=1.0, task_id=7),
            TaskExpiryEvent(time=2.5, task_id=7),
            WorkerChurnEvent(time=3.0, worker_id=3),
        ])
        assert log.fingerprint() == (
            "aba38c1758324362e2a7a08aa52c93fa524bee94a3d5e9c37121466d527c7fa9"
        )

    def test_synthetic_stream_log(self):
        _, log = synthetic_stream(
            num_workers=12, num_tasks=9, duration_hours=6.0,
            churn_fraction=0.25, cancel_fraction=0.25, seed=11,
        )
        assert log.fingerprint() == (
            "5a64966fc8a842e624e535e217fb327f0f2ab7a71c821696dade1bd14dbf71be"
        )

    def test_fingerprint_independent_of_construction_path(self):
        """Array-built and object-built logs of the same events hash alike."""
        _, log = synthetic_stream(
            num_workers=10, num_tasks=8, duration_hours=6.0,
            churn_fraction=0.3, cancel_fraction=0.3, seed=19,
        )
        rebuilt = EventLog(log.events)
        assert rebuilt.fingerprint() == log.fingerprint()
        assert rebuilt.events == log.events


class TestColumnarAccess:
    def test_columns_sorted_and_typed(self):
        _, log = synthetic_stream(num_workers=6, num_tasks=5, seed=2)
        columns = log.columns
        key = list(zip(columns["time"], columns["phase"], columns["entity_id"]))
        assert key == sorted(key)
        assert not columns.flags.writeable

    def test_payload_side_tables(self):
        _, log = synthetic_stream(num_workers=4, num_tasks=3, seed=2)
        import numpy as np

        arrivals = np.flatnonzero(log.kinds == 0)
        for index in arrivals:
            worker = log.worker_at(int(index))
            assert worker.worker_id == int(log.entity_ids[index])
        publishes = np.flatnonzero(log.kinds == 1)
        for index in publishes:
            task = log.task_at(int(index))
            assert task.task_id == int(log.entity_ids[index])
        with pytest.raises(IndexError):
            log.worker_at(int(publishes[0]))
        with pytest.raises(IndexError):
            log.task_at(int(arrivals[0]))

    def test_drain_stop_matches_event_scan(self):
        from repro.stream.events import DEFERRED_PHASE

        _, log = synthetic_stream(
            num_workers=30, num_tasks=25, duration_hours=8.0,
            churn_fraction=0.3, cancel_fraction=0.3, seed=5,
        )
        for fire_time in (0.0, 1.0, 3.7, float(log.times[7]), 100.0):
            expected = 0
            while expected < len(log):
                event = log[expected]
                if event.time > fire_time:
                    break
                if event.time == fire_time and event.phase >= DEFERRED_PHASE:
                    break
                expected += 1
            assert log.drain_stop(0, fire_time) == expected
        assert log.drain_stop(len(log), 0.0) == len(log)  # cursor floor

    def test_next_count_time_matches_event_scan(self):
        _, log = synthetic_stream(
            num_workers=20, num_tasks=20, duration_hours=8.0, seed=6
        )
        for cursor in (0, 5, len(log) - 3):
            for count in (1, 4, 50):
                for limit in (2.0, 8.0, 100.0):
                    pending = 0
                    expected = None
                    for position in range(cursor, len(log)):
                        event = log[position]
                        if event.time > limit:
                            break
                        if event.phase in (PHASE_ARRIVAL, PHASE_PUBLISH):
                            pending += 1
                            if pending >= count:
                                expected = event.time
                                break
                    assert log.next_count_time(cursor, count, limit) == expected

    def test_from_columns_matches_object_construction(self):
        import numpy as np

        worker = Worker(worker_id=4, location=Point(1.0, 2.0), reachable_km=9.0)
        task = Task(task_id=6, location=Point(2.0, 1.0), publication_time=0.5,
                    valid_hours=3.0)
        from_objects = EventLog([
            WorkerArrivalEvent(time=1.0, worker=worker),
            TaskPublishEvent(time=0.5, task=task),
            TaskExpiryEvent(time=3.5, task_id=6),
        ])
        from_arrays = EventLog.from_columns(
            np.array([1.0, 0.5, 3.5]),
            np.array([0, 1, 3]),
            np.array([4, 6, 6]),
            workers=[worker],
            tasks=[task],
        )
        assert from_arrays.events == from_objects.events
        assert from_arrays.fingerprint() == from_objects.fingerprint()

    def test_from_columns_rejects_mismatched_column_lengths(self):
        import numpy as np

        from repro.exceptions import DataError

        with pytest.raises(DataError, match="equal length"):
            EventLog.from_columns(np.zeros(2), np.zeros(1, np.int64), np.zeros(2, np.int64))
        with pytest.raises(DataError, match="equal length"):
            EventLog.from_columns(np.zeros(1), np.zeros(1, np.int64), np.zeros(3, np.int64))

    def test_from_columns_rejects_unknown_kind_codes(self):
        import numpy as np

        from repro.exceptions import DataError

        with pytest.raises(DataError, match="unknown event kind"):
            EventLog.from_columns(np.zeros(1), np.array([9]), np.zeros(1, np.int64))
        with pytest.raises(DataError, match="unknown event kind"):
            EventLog.from_columns(np.zeros(1), np.array([-1]), np.zeros(1, np.int64))

    def test_from_columns_rejects_non_finite_times(self):
        import numpy as np

        from repro.exceptions import DataError

        with pytest.raises(DataError, match="non-finite"):
            EventLog.from_columns(
                np.array([np.nan]), np.array([3]), np.array([0])
            )

    def test_from_columns_rejects_nan_coordinates(self):
        import numpy as np

        from repro.exceptions import DataError

        worker = Worker(worker_id=1, location=Point(0.0, 0.0), reachable_km=5.0)
        # A relocation row with NaN target coordinates.
        with pytest.raises(DataError, match="NaN"):
            EventLog.from_columns(
                np.array([0.0, 1.0]), np.array([0, 5]), np.array([1, 1]),
                workers=[worker],
                x=np.array([np.nan, np.nan]), y=np.array([np.nan, 2.0]),
            )
        # An infinite relocation target is rejected the same way.
        with pytest.raises(DataError, match="non-finite"):
            EventLog.from_columns(
                np.array([0.0, 1.0]), np.array([0, 5]), np.array([1, 1]),
                workers=[worker],
                x=np.array([np.nan, np.inf]), y=np.array([np.nan, 2.0]),
            )
        # A payload entity with a NaN location cannot be built at all: the
        # entity rejects it before it can reach a log.
        with pytest.raises(ValueError, match="location must be finite"):
            Task(
                task_id=2, location=Point(float("nan"), 0.0),
                publication_time=0.0, valid_hours=1.0,
            )

    def test_from_columns_rejects_relocation_without_coordinates(self):
        import numpy as np

        from repro.exceptions import DataError

        worker = Worker(worker_id=1, location=Point(0.0, 0.0), reachable_km=5.0)
        with pytest.raises(DataError, match="x and y"):
            EventLog.from_columns(
                np.array([0.0, 1.0]), np.array([0, 5]), np.array([1, 1]),
                workers=[worker],
            )
        with pytest.raises(DataError, match="given together"):
            EventLog.from_columns(
                np.array([0.0]), np.array([0]), np.array([1]),
                workers=[worker], x=np.array([0.0]),
            )
        with pytest.raises(DataError, match="row count"):
            EventLog.from_columns(
                np.array([0.0]), np.array([0]), np.array([1]),
                workers=[worker], x=np.array([0.0]), y=np.array([0.0, 1.0]),
            )

    def test_from_columns_rejects_relocation_of_unknown_worker(self):
        import numpy as np

        from repro.exceptions import DataError

        with pytest.raises(DataError, match="precedes any arrival"):
            EventLog.from_columns(
                np.array([1.0]), np.array([5]), np.array([7]),
                x=np.array([1.0]), y=np.array([2.0]),
            )

    def test_from_columns_rejects_bad_payload_references(self):
        import numpy as np

        from repro.exceptions import DataError

        worker = Worker(worker_id=1, location=Point(0.0, 0.0), reachable_km=5.0)
        with pytest.raises(DataError, match="payload"):
            EventLog.from_columns(  # -1 sentinel on an arrival row
                np.array([1.0]), np.array([0]), np.array([1]),
                payload=np.array([-1]), workers=[worker],
            )
        with pytest.raises(DataError, match="payload"):
            EventLog.from_columns(  # out-of-range side-table index
                np.array([1.0]), np.array([0]), np.array([1]),
                payload=np.array([3]), workers=[worker],
            )
        with pytest.raises(DataError, match="payload"):
            EventLog.from_columns(  # implicit payload, side-table too short
                np.array([1.0, 2.0]), np.array([0, 0]), np.array([1, 2]),
                workers=[worker],
            )
        with pytest.raises(DataError, match="row count"):
            EventLog.from_columns(
                np.array([1.0]), np.array([0]), np.array([1]),
                payload=np.array([0, 0]), workers=[worker],
            )

    def test_from_columns_rejects_entity_id_payload_mismatch(self):
        import numpy as np

        from repro.exceptions import DataError

        # Pools are keyed by entity_id: an arrival row of entity 1 carrying
        # worker 7 would make a later churn of worker 7 a silent no-op.
        worker = make_worker(7)
        moved = make_worker(7, x=3.0)
        task = make_task(6)
        with pytest.raises(DataError, match="row 1: entity_id 1 .* worker_id 7"):
            EventLog.from_columns(  # implicit payload on an arrival row
                np.array([0.0, 1.0]), np.array([1, 0]), np.array([6, 1]),
                workers=[worker], tasks=[task],
            )
        with pytest.raises(DataError, match="row 0: entity_id 5 .* task_id 6"):
            EventLog.from_columns(  # explicit payload on a publish row
                np.array([0.0]), np.array([1]), np.array([5]),
                payload=np.array([0]), tasks=[task],
            )
        with pytest.raises(DataError, match="row 1: entity_id 8 .* worker_id 7"):
            EventLog.from_columns(  # self-contained relocation row
                np.array([0.0, 1.0]), np.array([0, 5]), np.array([7, 8]),
                payload=np.array([0, 1]), workers=[worker, moved],
            )
        # Relocations with payload -1 copy their own entity's prior worker,
        # so they are consistent by construction.
        log = EventLog.from_columns(
            np.array([0.0, 1.0]), np.array([0, 5]), np.array([7, 7]),
            payload=np.array([0, -1]), workers=[worker],
            x=np.array([np.nan, 3.0]), y=np.array([np.nan, 0.0]),
        )
        assert log.events[1] == WorkerRelocateEvent(
            time=1.0, worker_id=7, location=Point(3.0, 0.0)
        )

    def test_cell_keys_sentinel_and_quantization(self):
        import numpy as np

        from repro.stream.shards import unpack_cell

        _, log = synthetic_stream(num_workers=3, num_tasks=2,
                                  churn_fraction=1.0, seed=8)
        keys = log.cell_keys(5.0)
        located = ~np.isnan(log.columns["x"])
        for index in np.flatnonzero(located):
            kx, ky = unpack_cell(int(keys[index]))
            assert kx == int(np.floor(log.columns["x"][index] / 5.0))
            assert ky == int(np.floor(log.columns["y"][index] / 5.0))
        with pytest.raises(ValueError):
            log.cell_keys(0.0)

    def test_cell_keys_rejects_out_of_range_quantization(self):
        import numpy as np

        from repro.exceptions import DataError
        from repro.stream.events import CELL_OFFSET

        def log_at(x):
            worker = Worker(worker_id=1, location=Point(x, 0.0), reachable_km=5.0)
            return EventLog.from_columns(
                np.array([1.0]), np.array([0]), np.array([1]), workers=[worker],
            )

        # The last valid cell index on either side of zero passes …
        log_at(float(CELL_OFFSET - 1)).cell_keys(1.0)
        log_at(-float(CELL_OFFSET - 1)).cell_keys(1.0)
        # … but quantizing to |k| >= CELL_OFFSET must not silently alias.
        with pytest.raises(DataError, match=r"33554432"):
            log_at(float(CELL_OFFSET)).cell_keys(1.0)
        with pytest.raises(DataError, match="cell_km"):
            log_at(-float(CELL_OFFSET)).cell_keys(1.0)
        # A tiny cell size blows the same bound from ordinary coordinates.
        with pytest.raises(DataError, match="cell_km"):
            log_at(50.0).cell_keys(1e-9)

    def test_geo_cell_key_rejects_out_of_range_quantization(self):
        from repro.exceptions import DataError
        from repro.geo import cell_key
        from repro.stream.events import CELL_OFFSET

        assert cell_key(float(CELL_OFFSET - 1), 0.0, 1.0) == (CELL_OFFSET - 1, 0)
        with pytest.raises(DataError, match="cell_km"):
            cell_key(float(CELL_OFFSET), 0.0, 1.0)
        with pytest.raises(DataError, match="cell_km"):
            cell_key(0.0, -float(CELL_OFFSET), 1.0)
        with pytest.raises(DataError, match="cell_km"):
            cell_key(50.0, 0.0, 1e-9)


class TestLogBuilders:
    def test_log_from_arrivals_has_publish_and_expiry_per_task(self):
        from repro.framework import WorkerArrival

        tasks = [make_task(0, published=0.0), make_task(1, published=2.0)]
        arrivals = [WorkerArrival(worker=make_worker(3), arrival_time=1.0)]
        log = log_from_arrivals(arrivals, tasks)
        assert sum(isinstance(e, TaskPublishEvent) for e in log) == 2
        assert sum(isinstance(e, TaskExpiryEvent) for e in log) == 2
        assert sum(isinstance(e, WorkerArrivalEvent) for e in log) == 1

    def test_log_from_arrivals_extra_events(self):
        log = log_from_arrivals(
            [], [make_task(0)], extra=[WorkerChurnEvent(time=1.0, worker_id=4)]
        )
        assert sum(isinstance(e, WorkerChurnEvent) for e in log) == 1

    def test_day_stream_matches_day_arrivals(self, tiny_dataset, tiny_builder):
        from repro.framework import day_arrivals

        instance, log = day_stream(tiny_dataset, 6)
        arrivals = day_arrivals(tiny_dataset, 6)
        log_workers = {
            e.worker.worker_id for e in log if isinstance(e, WorkerArrivalEvent)
        }
        assert log_workers == {a.worker.worker_id for a in arrivals}
        assert sum(isinstance(e, TaskPublishEvent) for e in log) == len(instance.tasks)


class TestSyntheticStream:
    def test_volumes_and_window(self):
        base, log = synthetic_stream(
            num_workers=40, num_tasks=30, duration_hours=12.0, seed=3
        )
        assert sum(isinstance(e, WorkerArrivalEvent) for e in log) == 40
        assert sum(isinstance(e, TaskPublishEvent) for e in log) == 30
        assert sum(isinstance(e, TaskExpiryEvent) for e in log) == 30
        admissions = [e.time for e in log if e.phase in (PHASE_ARRIVAL, PHASE_PUBLISH)]
        assert 0.0 <= min(admissions) and max(admissions) < 12.0
        assert base.all_worker_ids == tuple(range(40))

    def test_churn_and_cancel_fractions(self):
        _, log = synthetic_stream(
            num_workers=200, num_tasks=200, churn_fraction=0.5,
            cancel_fraction=0.5, seed=5,
        )
        churns = sum(isinstance(e, WorkerChurnEvent) for e in log)
        cancels = sum(isinstance(e, TaskCancelEvent) for e in log)
        assert 50 < churns < 150
        assert 50 < cancels < 150

    def test_deterministic_by_seed(self):
        _, log_a = synthetic_stream(num_workers=20, num_tasks=20, seed=11)
        _, log_b = synthetic_stream(num_workers=20, num_tasks=20, seed=11)
        _, log_c = synthetic_stream(num_workers=20, num_tasks=20, seed=12)
        assert log_a.fingerprint() == log_b.fingerprint()
        assert log_a.fingerprint() != log_c.fingerprint()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            synthetic_stream(num_workers=-1, num_tasks=0)
        with pytest.raises(ValueError):
            synthetic_stream(num_workers=1, num_tasks=1, duration_hours=0.0)
        with pytest.raises(ValueError):
            synthetic_stream(num_workers=1, num_tasks=1, clusters=0)
        with pytest.raises(ValueError):
            synthetic_stream(num_workers=1, num_tasks=1, clusters=2,
                             cluster_gap_km=0.0)

    def test_clusters_are_separated_beyond_reachability(self):
        import numpy as np

        reachable = 8.0
        _, log = synthetic_stream(
            num_workers=60, num_tasks=50, area_km=20.0,
            reachable_km=reachable, clusters=4, seed=13,
        )
        xs = log.columns["x"]
        ys = log.columns["y"]
        located = ~np.isnan(xs)
        points = np.column_stack((xs[located], ys[located]))
        # Label each point by its cluster square (pitch = area + gap).
        pitch = 20.0 + 3.0 * reachable
        labels = (points // pitch).astype(int)
        assert len({tuple(row) for row in labels}) == 4
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                if tuple(labels[a]) != tuple(labels[b]):
                    assert np.hypot(*(points[a] - points[b])) > reachable

    def test_single_cluster_is_default_draw_identical(self):
        _, explicit = synthetic_stream(num_workers=15, num_tasks=12, seed=21,
                                       clusters=1)
        _, default = synthetic_stream(num_workers=15, num_tasks=12, seed=21)
        assert explicit.fingerprint() == default.fingerprint()


class TestLogInvariantProperties:
    """Property tests over the shared strategies (tests/strategies.py)."""

    @settings(max_examples=30)
    @given(log=event_logs())
    def test_canonical_order_and_rebuild_identity(self, log):
        """Any event mix sorts canonically, and rebuilding a log from its
        own materialized events reproduces columns and fingerprint."""
        key = list(zip(log.times, log.phases, log.entity_ids))
        assert key == sorted(key)
        rebuilt = EventLog(log.events)
        assert rebuilt.fingerprint() == log.fingerprint()
        assert rebuilt.events == log.events

    @settings(max_examples=30)
    @given(log=event_logs())
    def test_worker_rows_always_carry_payloads(self, log):
        """Every arrival/relocation row resolves to a Worker whose id is
        the row's entity, at the row's coordinates."""
        import numpy as np

        for index in np.flatnonzero(
            (log.kinds == 0) | (log.kinds == 5)
        ):
            worker = log.worker_at(int(index))
            assert worker.worker_id == int(log.entity_ids[index])
            assert worker.location.x == log.columns["x"][index]
            assert worker.location.y == log.columns["y"][index]

    @settings(max_examples=30)
    @given(log=event_logs())
    def test_relocation_payload_composes_latest_prior_state(self, log):
        """A relocation's synthesized payload carries the attributes of the
        worker's nearest preceding arrival/relocation row."""
        import numpy as np

        for index in np.flatnonzero(log.kinds == 5):
            worker_id = int(log.entity_ids[index])
            prior = [
                i for i in np.flatnonzero(
                    ((log.kinds == 0) | (log.kinds == 5))
                    & (log.entity_ids == worker_id)
                )
                if i < index
            ]
            assert prior, "log construction must reject orphan relocations"
            previous = log.worker_at(int(prior[-1]))
            relocated = log.worker_at(int(index))
            assert relocated.reachable_km == previous.reachable_km
            assert relocated.speed_kmh == previous.speed_kmh

    @settings(max_examples=15)
    @given(world=stream_worlds(max_workers=40, max_tasks=40, multi_day=True))
    def test_synthetic_worlds_replay_deterministically(self, world):
        """Generated multi-day worlds are self-consistent: replay through a
        fresh log of the same events is fingerprint-identical."""
        _, log = world
        assert EventLog(log.events).fingerprint() == log.fingerprint()


class TestRelocationOrdering:
    def test_same_instant_arrival_and_relocation_order_arrival_first(self):
        """Kind is the final sort key: an arrival and a relocation of the
        same worker at the same time order deterministically (arrival
        first), whichever way the source rows were interleaved."""
        from repro.geo import Point as P

        arrival = WorkerArrivalEvent(time=2.0, worker=make_worker(4))
        move = WorkerRelocateEvent(time=2.0, worker_id=4, location=P(7.0, 7.0))
        forward = EventLog([arrival, move])
        backward = EventLog([move, arrival])
        assert forward.events == backward.events
        assert forward.fingerprint() == backward.fingerprint()
        assert isinstance(forward[0], WorkerArrivalEvent)
        assert forward.worker_at(1).location == P(7.0, 7.0)
