"""Tests for the sharded round path: layout planning + executor determinism.

The load-bearing property: a sharded :class:`StreamRuntime` — any shard
count — produces **bit-identical** assignments and
metrics to the unsharded runtime (and hence, under window triggers, to the
batched ``OnlineSimulator``), because the radius-aware layout never splits
a feasible (worker, task) pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import IAAssigner, MTAAssigner, NearestNeighborAssigner
from repro.entities import Task, Worker
from repro.exceptions import DataError
from repro.framework import OnlineSimulator, WorkerArrival
from repro.geo import Point, cell_key
from repro.geo.grid import MAX_CELL_INDEX
from repro.stream import (
    HybridTrigger,
    ShardLayout,
    StreamRuntime,
    TimeWindowTrigger,
    day_stream,
    log_from_arrivals,
    synthetic_stream,
)
from repro.stream.events import KIND_ARRIVAL, KIND_PUBLISH

from tests.strategies import stream_worlds, trigger_factories


def clustered_world(clusters=4, seed=41, num_workers=120, num_tasks=140,
                    reachable_km=8.0):
    return synthetic_stream(
        num_workers=num_workers, num_tasks=num_tasks, duration_hours=24.0,
        area_km=20.0, valid_hours=4.0, reachable_km=reachable_km,
        churn_fraction=0.05, cancel_fraction=0.02, clusters=clusters,
        seed=seed,
    )


def sorted_pairs(result):
    return sorted(
        (pair.worker.worker_id, pair.task.task_id)
        for pair in result.assignment.pairs
    )


def round_rows(result):
    """Per-round records minus the wall-clock timing field."""
    return [
        (r.index, r.time, r.online_workers, r.open_tasks, r.drained_events,
         r.assigned, r.expired_tasks, r.churned_workers, r.cancelled_tasks)
        for r in result.rounds
    ]


class TestShardLayoutPlanning:
    def test_separated_clusters_become_shards(self):
        _, log = clustered_world(clusters=4)
        layout = ShardLayout.plan(log, 4)
        assert layout.num_shards == 4
        assert set(layout.cells.values()) == set(range(4))

    def test_never_splits_a_feasible_pair(self):
        _, log = clustered_world(clusters=5, num_workers=80, num_tasks=80)
        for requested in (2, 3, 5, 9):
            layout = ShardLayout.plan(log, requested)
            workers = [log.worker_at(int(i))
                       for i in np.flatnonzero(log.kinds == KIND_ARRIVAL)]
            tasks = [log.task_at(int(i))
                     for i in np.flatnonzero(log.kinds == KIND_PUBLISH)]
            for worker in workers:
                shard = layout.shard_of(worker.location)
                for task in tasks:
                    if worker.location.distance_to(task.location) <= worker.reachable_km:
                        assert layout.shard_of(task.location) == shard

    def test_dense_single_blob_collapses_to_one_shard(self):
        # Uniform world, radius comparable to the area: everything connects.
        _, log = synthetic_stream(
            num_workers=100, num_tasks=100, area_km=40.0, reachable_km=20.0,
            seed=7,
        )
        layout = ShardLayout.plan(log, 8)
        assert layout.num_shards == 1

    def test_planning_is_deterministic(self):
        _, log = clustered_world()
        assert ShardLayout.plan(log, 4) == ShardLayout.plan(log, 4)

    def test_state_dict_roundtrip(self):
        _, log = clustered_world()
        layout = ShardLayout.plan(log, 4)
        assert ShardLayout.from_state_dict(layout.state_dict()) == layout

    def test_empty_log_plans_one_empty_shard(self):
        from repro.stream import EventLog

        layout = ShardLayout.plan(EventLog([]), 4)
        assert layout.num_shards == 1
        assert layout.cells == {}
        # The hash fallback still answers deterministically.
        point = Point(3.0, 4.0)
        assert layout.shard_of(point) == layout.shard_of(point) == 0

    def test_rejects_bad_parameters(self):
        _, log = clustered_world(num_workers=10, num_tasks=10)
        with pytest.raises(ValueError):
            ShardLayout.plan(log, 0)
        with pytest.raises(ValueError):
            ShardLayout.plan(log, 2, cell_km=0.0)

    def test_unknown_cell_fallback_is_stable(self):
        _, log = clustered_world(num_workers=10, num_tasks=10)
        layout = ShardLayout.plan(log, 3)
        far = Point(1e5, -1e5)
        assert 0 <= layout.shard_of(far) < layout.num_shards
        assert layout.shard_of(far) == layout.shard_of(far)


class TestShardedRoundDeterminism:
    """Sharded == unsharded, bit for bit, across shard counts.  The
    ``thread`` case pins that the deprecated ``executor`` argument changes
    nothing."""

    @pytest.mark.parametrize("assigner_cls", [NearestNeighborAssigner, IAAssigner])
    @pytest.mark.parametrize("shards,backend", [
        (1, "serial"), (2, "serial"), (4, "serial"), (9, "serial"),
        (4, "thread"),
    ])
    def test_synthetic_world(self, assigner_cls, shards, backend):
        base, log = clustered_world()
        plain = StreamRuntime(
            assigner_cls(), None, HybridTrigger(48, 1.0), base, log,
            patience_hours=6.0,
        ).run()
        runtime = StreamRuntime(
            assigner_cls(), None, HybridTrigger(48, 1.0), base, log,
            patience_hours=6.0, shards=shards, executor=backend,
        )
        sharded = runtime.run()
        assert plain.total_assigned > 0
        assert sorted_pairs(sharded) == sorted_pairs(plain)
        assert round_rows(sharded) == round_rows(plain)
        # Engines may record waits in different order, so compare the
        # order-independent histogram state (buckets + exact min/max);
        # ``total`` is excluded — float addition order shifts its last ulp.
        for name in ("task_wait_histogram", "worker_wait_histogram"):
            ours, theirs = getattr(sharded.metrics, name), getattr(plain.metrics, name)
            assert ours.count == theirs.count
            assert ours.counts.tolist() == theirs.counts.tolist()
            assert ours.min_seen == theirs.min_seen
            assert ours.max_seen == theirs.max_seen

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_property_random_worlds(self, seed):
        """Property sweep: random worlds, random-ish shard counts."""
        rng = np.random.default_rng(seed)
        clusters = int(rng.integers(2, 6))
        base, log = clustered_world(
            clusters=clusters, seed=seed,
            num_workers=int(rng.integers(40, 90)),
            num_tasks=int(rng.integers(40, 90)),
        )
        shards = int(rng.integers(1, 8))
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
        ).run()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            shards=shards,
        )
        sharded = runtime.run()
        assert sorted_pairs(sharded) == sorted_pairs(plain)
        assert round_rows(sharded) == round_rows(plain)

    @settings(max_examples=12)
    @given(
        world=stream_worlds(max_workers=50, max_tasks=50, multi_day=True),
        make_trigger=trigger_factories(),
        shards=st.integers(1, 8),
    )
    def test_hypothesis_worlds_and_triggers(self, world, make_trigger, shards):
        """Shared-strategy sweep: any synthetic multi-day world (relocation
        waves included), any trigger policy, any shard count — sharded and
        unsharded rounds stay bit-identical."""
        base, log = world
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, make_trigger(), base, log,
        ).run()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, make_trigger(), base, log,
            shards=shards,
        )
        sharded = runtime.run()
        assert sorted_pairs(sharded) == sorted_pairs(plain)
        assert round_rows(sharded) == round_rows(plain)

    def test_non_incremental_matches_too(self):
        base, log = clustered_world()
        plain = StreamRuntime(
            IAAssigner(), None, TimeWindowTrigger(1.0), base, log,
            incremental=False,
        ).run()
        runtime = StreamRuntime(
            IAAssigner(), None, TimeWindowTrigger(1.0), base, log,
            incremental=False, shards=4,
        )
        sharded = runtime.run()
        assert sorted_pairs(sharded) == sorted_pairs(plain)

    def test_matches_online_simulator_on_clustered_world(self):
        """Transitivity made explicit: sharded == unsharded == batched
        OnlineSimulator under equivalent window boundaries."""
        base, log = clustered_world(seed=23)
        arrivals = [
            WorkerArrival(worker=log.worker_at(int(i)), arrival_time=float(log.times[i]))
            for i in np.flatnonzero(log.kinds == KIND_ARRIVAL)
        ]
        tasks = [log.task_at(int(i)) for i in np.flatnonzero(log.kinds == KIND_PUBLISH)]
        online = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0).run(
            base.with_tasks(tasks), arrivals
        )
        runtime = StreamRuntime(
            MTAAssigner(), None, TimeWindowTrigger(1.0), base,
            log_from_arrivals(arrivals, tasks), shards=4,
        )
        sharded = runtime.run()
        online_pairs = sorted(
            (p.worker.worker_id, p.task.task_id) for p in online.assignment.pairs
        )
        assert sorted_pairs(sharded) == online_pairs
        assert [s.assigned for s in online.steps] == [
            r.assigned for r in sharded.rounds
        ]

    def test_fitted_world(self, tiny_dataset, tiny_instance, fitted_models):
        """Sharding a fitted dataset day (influence model live) stays exact,
        even when the world collapses to few components."""
        _, log = day_stream(tiny_dataset, 6)
        plain = StreamRuntime(
            IAAssigner(), fitted_models.influence_model(), TimeWindowTrigger(4.0),
            tiny_instance, log,
        ).run()
        runtime = StreamRuntime(
            IAAssigner(), fitted_models.influence_model(), TimeWindowTrigger(4.0),
            tiny_instance, log, shards=4, shard_cell_km=5.0,
        )
        sharded = runtime.run()
        assert plain.total_assigned > 0
        assert sorted_pairs(sharded) == sorted_pairs(plain)
        assert round_rows(sharded) == round_rows(plain)


def routing_layouts():
    """Small hand-built layouts: a few planned cells with their shards, at a
    drawn cell size."""
    cell = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    return st.builds(
        lambda cell_km, num_shards, planned: ShardLayout(
            cell_km=cell_km,
            num_shards=num_shards,
            max_radius_km=cell_km,
            cells={key: shard % num_shards for key, shard in planned.items()},
        ),
        st.sampled_from([0.5, 1.0, 2.5, 3.0, 25.0]),
        st.integers(1, 5),
        st.dictionaries(cell, st.integers(0, 9), max_size=12),
    )


def routing_points(layout):
    """Points in planned cells, on exact cell edges and corners, in unplanned
    and negative cells, and far enough out to leave ``|k| < MAX_CELL_INDEX``."""
    cell_km = layout.cell_km
    on_edge = st.integers(-8, 8).map(lambda k: k * cell_km)
    inside = st.tuples(
        st.integers(-8, 8), st.floats(0.0, 1.0, exclude_max=True)
    ).map(lambda kf: (kf[0] + kf[1]) * cell_km)
    near = on_edge | inside | st.floats(-30.0, 30.0)
    far = st.sampled_from([1e9, -1e9, 1e12, -3.4e7 * cell_km, 3.3e7 * cell_km]) | st.sampled_from(
        [-1, 0, 1]
    ).map(lambda step: (MAX_CELL_INDEX - 1 + step) * cell_km * (-1) ** step)
    planned = (
        st.sampled_from(sorted(layout.cells)).flatmap(
            lambda key: st.tuples(
                st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)
            ).map(lambda f: ((key[0] + f[0]) * cell_km, (key[1] + f[1]) * cell_km))
        )
        if layout.cells else st.nothing()
    )
    return st.lists(planned | st.tuples(near, near) | st.tuples(near | far, near | far), max_size=20)


class TestArrayRouting:
    """``shards_of`` is the per-point scalar rule
    (``shard_of_cell(cell_key(...))``), applied to arrays."""

    @settings(max_examples=300)
    @given(st.data(), routing_layouts())
    def test_matches_per_point_rule(self, data, layout):
        points = data.draw(routing_points(layout))
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        try:
            keys = [cell_key(x, y, layout.cell_km) for x, y in points]
        except DataError:
            with pytest.raises(DataError):
                layout.shards_of(xs, ys)
            return
        shards = layout.shards_of(xs, ys)
        assert shards.dtype == np.int64
        assert shards.tolist() == [layout.shard_of_cell(key) for key in keys]
        assert all(0 <= shard < layout.num_shards for shard in shards.tolist())
        for (x, y), shard in zip(points, shards.tolist()):
            assert layout.shard_of(Point(x, y)) == shard

    def test_out_of_range_raises_the_scalar_error(self):
        layout = ShardLayout(cell_km=1.0, num_shards=2, max_radius_km=1.0, cells={(0, 0): 1})
        with pytest.raises(DataError, match=r"coordinate \(0.5, 40000000.0\) quantizes to cell \(0, 40000000\)"):
            layout.shards_of([0.5, 0.5], [0.5, 4e7])
        for edge in (float(MAX_CELL_INDEX), -float(MAX_CELL_INDEX)):
            with pytest.raises(DataError):
                layout.shards_of([edge], [0.5])
            with pytest.raises(DataError):
                layout.shards_of([0.5], [edge])
        inside = float(MAX_CELL_INDEX - 1)
        assert layout.shards_of([inside, -inside], [-inside, 0.5]).shape == (2,)


class TestShardExecutor:
    def test_rejects_unknown_backend(self):
        """The runtime still validates its deprecated ``executor`` name."""
        base, log = clustered_world(num_workers=10, num_tasks=10)
        for executor in ("gpu", "process"):
            with pytest.raises(ValueError, match="choose from serial, thread"):
                StreamRuntime(
                    NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                    base, log, shards=2, executor=executor,
                )

    def test_round_state_holds_only_its_model(self):
        """Every shard prepares through one stateless RoundState: each
        prepare fills its shard's whole rectangle in one call, and after a
        sharded run the state still holds nothing but the model."""

        class ShapeModel:
            def __init__(self):
                self.shapes = []

            def influence_matrix(self, workers, tasks):
                self.shapes.append((len(workers), len(tasks)))
                return np.zeros((len(workers), len(tasks)))

        base, log = clustered_world()
        model = ShapeModel()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), model, TimeWindowTrigger(1.0), base, log,
            shards=4,
        )
        result = runtime.run()
        executor = runtime.shard_executor
        assert executor.layout.num_shards > 1
        assert result.total_assigned > 0
        assert len(model.shapes) > len(result.rounds)  # several shards per round
        assert all(workers and tasks for workers, tasks in model.shapes)
        assert vars(executor.round_state) == {"influence": model}


class TestShardedCheckpoint:
    def _runtime(self, base, log, shards=4):
        return StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            patience_hours=6.0, shards=shards,
        )

    def test_resume_is_bit_identical(self, tmp_path):
        base, log = clustered_world(seed=47)
        uninterrupted = self._runtime(base, log).run()

        interrupted = self._runtime(base, log)
        interrupted.run(max_rounds=5)
        saved = interrupted.checkpoint(tmp_path / "sharded.npz")
        resumed_runtime = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
            base, log, patience_hours=6.0, shards=4,
        )
        resumed = resumed_runtime.run()
        assert sorted_pairs(resumed) == sorted_pairs(uninterrupted)
        assert round_rows(resumed) == round_rows(uninterrupted)

    def test_refuses_shardedness_mismatch(self, tmp_path):
        base, log = clustered_world(seed=47)
        sharded = self._runtime(base, log)
        sharded.run(max_rounds=2)
        saved = sharded.checkpoint(tmp_path / "sharded.npz")
        with pytest.raises(DataError, match="sharded"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, patience_hours=6.0,
            )

        plain = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            patience_hours=6.0,
        )
        plain.run(max_rounds=2)
        saved_plain = plain.checkpoint(tmp_path / "plain.npz")
        with pytest.raises(DataError, match="unsharded"):
            StreamRuntime.resume(
                saved_plain, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, patience_hours=6.0, shards=4,
            )

    def test_refuses_shard_count_mismatch(self, tmp_path):
        base, log = clustered_world(seed=47)
        sharded = self._runtime(base, log)
        sharded.run(max_rounds=2)
        saved = sharded.checkpoint(tmp_path / "sharded.npz")
        with pytest.raises(DataError, match="shards=4"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, patience_hours=6.0, shards=2,
            )
        with pytest.raises(DataError, match="cell_km"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, patience_hours=6.0, shards=4, shard_cell_km=2.0,
            )

    def test_refuses_trigger_kind_mismatch(self, tmp_path):
        base, log = clustered_world(seed=47)
        sharded = self._runtime(base, log)
        sharded.run(max_rounds=2)
        saved = sharded.checkpoint(tmp_path / "sharded.npz")
        with pytest.raises(DataError, match="trigger"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, log, patience_hours=6.0, shards=4,
            )
