"""Tests for bounded-memory event-log segments.

The load-bearing property: a :class:`SegmentedEventLog` — any window
partition, any cache budget — replays **bit-identically** to the
materialized log it windows, because the columnar sort key is time-primary
and windows partition events by time, so every global cursor position,
drain boundary and admission count is recoverable from per-segment state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import NearestNeighborAssigner
from repro.entities import Task, Worker
from repro.exceptions import DataError
from repro.geo import Point
from repro.stream import (
    EventLog,
    SegmentedEventLog,
    StreamRuntime,
    TimeWindowTrigger,
    TaskPublishEvent,
    WorkerArrivalEvent,
    synthetic_stream,
)

from tests.strategies import stream_worlds


def multi_day_world(**overrides):
    config = dict(
        num_workers=60, num_tasks=70, duration_hours=8.0, area_km=20.0,
        valid_hours=4.0, reachable_km=6.0, churn_fraction=0.1,
        cancel_fraction=0.05, clusters=3, seed=23, days=3,
        relocate_fraction=0.5, overnight_churn_fraction=0.1,
    )
    config.update(overrides)
    return synthetic_stream(**config)


def sorted_pairs(result):
    return sorted(
        (pair.worker.worker_id, pair.task.task_id)
        for pair in result.assignment.pairs
    )


def round_rows(result):
    return [
        (r.index, r.time, r.online_workers, r.open_tasks, r.drained_events,
         r.assigned, r.expired_tasks, r.churned_workers, r.cancelled_tasks,
         r.relocated_workers)
        for r in result.rounds
    ]


def tiny_log():
    return EventLog([
        WorkerArrivalEvent(
            time=1.0,
            worker=Worker(worker_id=0, location=Point(0.0, 0.0),
                          reachable_km=5.0),
        ),
        TaskPublishEvent(
            time=26.0,
            task=Task(task_id=0, location=Point(1.0, 1.0),
                      publication_time=26.0, valid_hours=3.0),
        ),
    ])


class TestConstruction:
    def test_rejects_empty_builders(self):
        with pytest.raises(DataError, match="at least one segment"):
            SegmentedEventLog([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="builders but"):
            SegmentedEventLog([lambda: EventLog([])], [0.0, 24.0])

    def test_rejects_non_increasing_starts(self):
        builders = [lambda: EventLog([]), lambda: EventLog([])]
        with pytest.raises(DataError, match="strictly increasing"):
            SegmentedEventLog(builders, [24.0, 24.0])
        with pytest.raises(DataError, match="strictly increasing"):
            SegmentedEventLog(builders, [24.0, 0.0])

    def test_rejects_non_finite_starts(self):
        with pytest.raises(DataError, match="finite"):
            SegmentedEventLog([lambda: EventLog([])], [float("nan")])

    def test_rejects_bad_cache_budget(self):
        with pytest.raises(ValueError, match="max_cached"):
            SegmentedEventLog([lambda: EventLog([])], [0.0], max_cached=0)

    def test_rejects_non_eventlog_builder(self):
        with pytest.raises(DataError, match="expected an EventLog"):
            SegmentedEventLog([lambda: "nope"], [0.0])

    def test_rejects_event_outside_its_window(self):
        log = tiny_log()  # events at t=1 and t=26
        with pytest.raises(DataError, match="past the next window start"):
            SegmentedEventLog([lambda: log, lambda: EventLog([])], [0.0, 24.0])
        with pytest.raises(DataError, match="before its window start"):
            SegmentedEventLog([lambda: log], [12.0])

    def test_rejects_non_deterministic_rebuild(self):
        logs = iter([tiny_log(), EventLog([])])
        segmented = SegmentedEventLog([lambda: next(logs)], [0.0])
        segmented._cache.clear()
        with pytest.raises(DataError, match="not deterministic"):
            segmented.segment(0)


class TestCacheLifecycle:
    def test_lru_holds_at_most_the_budget(self):
        _, log = multi_day_world()
        segmented = SegmentedEventLog.from_log(
            log, segment_hours=8.0, max_cached=2
        )
        assert segmented.cached_segments == ()
        for index in range(segmented.segment_count):
            segmented.segment(index)
            assert len(segmented.cached_segments) <= 2
        last = segmented.segment_count - 1
        assert segmented.cached_segments == (last - 1, last)

    def test_unsharded_runtime_construction_builds_no_segment(self):
        """The one-shard layout is built directly, not planned: planning a
        segmented log would synthesize every segment up front."""
        from repro.stream import ShardLayout

        base, log = multi_day_world()
        source = SegmentedEventLog.from_log(log, segment_hours=8.0)
        slabs = [source.segment(i) for i in range(source.segment_count)]
        builds = []

        def builder(index):
            def build():
                builds.append(index)
                return slabs[index]
            return build

        segmented = SegmentedEventLog(
            [builder(i) for i in range(len(slabs))], source.boundaries
        )
        scanned = len(builds)
        StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, segmented,
        )
        assert len(builds) == scanned
        assert segmented.cached_segments == ()
        ShardLayout.plan(segmented, 2)  # the probe sees planning's builds
        assert len(builds) > scanned

    def test_release_before_drops_passed_segments(self):
        _, log = multi_day_world()
        segmented = SegmentedEventLog.from_log(
            log, segment_hours=8.0, max_cached=4
        )
        for index in range(3):
            segmented.segment(index)
        base = int(segmented._bases[2])
        released = segmented.release_before(base)
        assert released == 2
        assert segmented.cached_segments == (2,)
        assert segmented.release_before(base) == 0

    def test_runtime_drain_releases_segments(self):
        base, log = multi_day_world()
        segmented = SegmentedEventLog.from_log(log, segment_hours=8.0)
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, segmented,
        )
        runtime.run()
        # Replay finished: everything behind the end cursor was dropped,
        # so only the final segment (plus LRU lookahead) is alive.
        assert all(
            index >= segmented.segment_count - segmented.max_cached
            for index in segmented.cached_segments
        )


class TestFromLogRoundTrip:
    def test_materialize_is_fingerprint_identical(self):
        _, log = multi_day_world()
        segmented = SegmentedEventLog.from_log(log, segment_hours=24.0)
        assert segmented.segment_count >= 2
        assert len(segmented) == len(log)
        assert segmented.materialize().fingerprint() == log.fingerprint()

    def test_day_boundaries_are_period_aligned(self):
        _, log = multi_day_world()
        segmented = SegmentedEventLog.from_log(log, segment_hours=24.0)
        assert all(start % 24.0 == 0.0 for start in segmented.boundaries)

    def test_explicit_boundaries(self):
        _, log = multi_day_world()
        segmented = SegmentedEventLog.from_log(
            log, boundaries=[0.0, 5.0, 30.0, 50.0]
        )
        assert segmented.boundaries == (0.0, 5.0, 30.0, 50.0)
        assert segmented.materialize().fingerprint() == log.fingerprint()

    def test_rejects_boundaries_missing_the_head(self):
        _, log = multi_day_world()
        with pytest.raises(DataError, match="earliest event"):
            SegmentedEventLog.from_log(log, boundaries=[10.0, 30.0])
        with pytest.raises(DataError, match="at least one"):
            SegmentedEventLog.from_log(log, boundaries=[])

    def test_rejects_non_positive_period(self):
        _, log = multi_day_world()
        with pytest.raises(ValueError, match="segment_hours"):
            SegmentedEventLog.from_log(log, segment_hours=0.0)

    def test_empty_log(self):
        segmented = SegmentedEventLog.from_log(EventLog([]))
        assert len(segmented) == 0
        assert segmented.segment_count == 1
        assert not segmented.has_arrivals()
        assert segmented.start_time() is None
        assert segmented.last_deadline() is None
        assert segmented.max_reachable_km() == 0.0


class TestQueryParity:
    """Every scheduling/payload query matches the materialized log."""

    @pytest.fixture(scope="class")
    def pair(self):
        _, log = multi_day_world()
        return log, SegmentedEventLog.from_log(log, segment_hours=8.0)

    def test_drain_stop(self, pair):
        log, segmented = pair
        times = np.unique(np.concatenate([
            log.times, log.times - 1e-9, log.times + 1e-9, [-1.0, 1e6],
        ]))
        for fire in times:
            cursor = 0
            assert segmented.drain_stop(cursor, float(fire)) == log.drain_stop(
                cursor, float(fire)
            ), fire

    def test_drain_stop_never_moves_backwards(self, pair):
        log, segmented = pair
        mid = len(log) // 2
        assert segmented.drain_stop(mid, -100.0) == mid

    def test_next_count_time(self, pair):
        log, segmented = pair
        limit = float(log.times[-1]) + 10.0
        for cursor in range(0, len(log), 7):
            for count in (1, 5, 50, 10_000):
                assert segmented.next_count_time(
                    cursor, count, limit
                ) == log.next_count_time(cursor, count, limit), (cursor, count)

    def test_next_count_time_respects_limit(self, pair):
        log, segmented = pair
        limit = float(log.times[0])
        assert segmented.next_count_time(0, 10_000, limit) == \
            log.next_count_time(0, 10_000, limit)

    def test_payload_access(self, pair):
        log, segmented = pair
        for index in range(len(log)):
            kind = int(log.kinds[index])
            if kind in (0, 5):  # arrival / relocate
                assert segmented.worker_at(index) == log.worker_at(index)
            elif kind == 1:  # publish
                assert segmented.task_at(index) == log.task_at(index)
        with pytest.raises(IndexError):
            segmented.worker_at(len(log))
        with pytest.raises(IndexError):
            segmented.task_at(-1)

    def test_aggregates(self, pair):
        log, segmented = pair
        assert segmented.start_time() == log.start_time()
        assert segmented.has_arrivals() == log.has_arrivals()
        assert segmented.last_deadline() == log.last_deadline()
        assert segmented.max_reachable_km() == log.max_reachable_km()

    def test_cell_key_counts(self, pair):
        log, segmented = pair
        for cell_km in (2.0, 5.0):
            keys, counts = segmented.cell_key_counts(cell_km)
            expect_keys, expect_counts = log.cell_key_counts(cell_km)
            assert np.array_equal(keys, expect_keys)
            assert np.array_equal(counts, expect_counts)

    def test_slices_cover_exactly(self, pair):
        log, segmented = pair
        covered = 0
        for slab, lo, hi, base in segmented.slices(0, len(log)):
            assert covered == base + lo
            covered = base + hi
            assert np.array_equal(
                slab.times[lo:hi], log.times[base + lo:base + hi]
            )
        assert covered == len(log)
        with pytest.raises(IndexError):
            list(segmented.slices(0, len(log) + 1))


class TestFingerprintChain:
    def test_same_partition_same_chain(self):
        _, log = multi_day_world()
        one = SegmentedEventLog.from_log(log, segment_hours=8.0)
        two = SegmentedEventLog.from_log(log, segment_hours=8.0)
        assert one.fingerprint() == two.fingerprint()
        assert one.segment_fingerprints == two.segment_fingerprints

    def test_partition_changes_the_chain(self):
        _, log = multi_day_world()
        daily = SegmentedEventLog.from_log(log, segment_hours=24.0)
        finer = SegmentedEventLog.from_log(log, segment_hours=8.0)
        assert daily.fingerprint() != finer.fingerprint()
        # And the chain digest is not the materialized hash: the two
        # fingerprint disciplines never collide silently.
        assert daily.fingerprint() != log.fingerprint()

    def test_content_changes_the_chain(self):
        _, log = multi_day_world(seed=23)
        _, other = multi_day_world(seed=24)
        assert SegmentedEventLog.from_log(log).fingerprint() != \
            SegmentedEventLog.from_log(other).fingerprint()


class TestReplayDifferential:
    def test_segmented_replay_is_bit_identical(self):
        base, log = multi_day_world()
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        ).run()
        for segment_hours in (6.0, 8.0, 24.0):
            segmented = SegmentedEventLog.from_log(
                log, segment_hours=segment_hours
            )
            streamed = StreamRuntime(
                NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, segmented,
            ).run()
            assert sorted_pairs(streamed) == sorted_pairs(plain), segment_hours
            assert round_rows(streamed) == round_rows(plain), segment_hours

    def test_minimal_cache_budget_still_exact(self):
        base, log = multi_day_world()
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        ).run()
        segmented = SegmentedEventLog.from_log(
            log, segment_hours=8.0, max_cached=1
        )
        streamed = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, segmented,
        ).run()
        assert sorted_pairs(streamed) == sorted_pairs(plain)
        assert round_rows(streamed) == round_rows(plain)

    @settings(max_examples=10)
    @given(
        world=stream_worlds(max_workers=40, max_tasks=40, multi_day=True),
        segment_hours=st.sampled_from([4.0, 6.0, 8.0, 12.0, 24.0]),
        max_cached=st.integers(1, 3),
    )
    def test_any_partition_replays_identically(
        self, world, segment_hours, max_cached
    ):
        """The property behind the subsystem: *any* time-partition of a log
        — not just day seams — replays bit-identically under any cache
        budget."""
        base, log = world
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        ).run()
        segmented = SegmentedEventLog.from_log(
            log, segment_hours=segment_hours, max_cached=max_cached
        )
        streamed = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, segmented,
        ).run()
        assert sorted_pairs(streamed) == sorted_pairs(plain)
        assert round_rows(streamed) == round_rows(plain)
