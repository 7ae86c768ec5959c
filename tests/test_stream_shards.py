"""Tests for the sharded round path: layout planning + executor determinism.

The load-bearing property: a sharded :class:`StreamRuntime` — any shard
count, any executor backend — produces **bit-identical** assignments and
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
    ShardExecutor,
    ShardLayout,
    ShardRebalancer,
    StreamRuntime,
    TimeWindowTrigger,
    day_stream,
    log_from_arrivals,
    pack_components,
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
        assert layout.component_count() == 4

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
    """Sharded == unsharded, bit for bit, across counts and backends."""

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
        runtime.close()
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
            incremental=False, shards=4, executor="thread",
        )
        sharded = runtime.run()
        runtime.close()
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
    """Small hand-built layouts: a few planned cells with their shards, some
    with a component and some without, at a drawn cell size."""
    cell = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    return st.builds(
        lambda cell_km, num_shards, planned: ShardLayout(
            cell_km=cell_km,
            num_shards=num_shards,
            max_radius_km=cell_km,
            cells={key: shard % num_shards for key, (shard, _) in planned.items()},
            components={
                key: component
                for key, (_, component) in planned.items() if component >= 0
            },
        ),
        st.sampled_from([0.5, 1.0, 2.5, 3.0, 25.0]),
        st.integers(1, 5),
        st.dictionaries(cell, st.tuples(st.integers(0, 9), st.integers(-1, 4)), max_size=12),
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
    """``shards_of``/``components_of`` are the per-point scalar rules
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
            with pytest.raises(DataError):
                layout.components_of(xs, ys)
            return
        shards = layout.shards_of(xs, ys)
        assert shards.dtype == np.int64
        assert shards.tolist() == [layout.shard_of_cell(key) for key in keys]
        assert all(0 <= shard < layout.num_shards for shard in shards.tolist())
        components = layout.components_of(xs, ys)
        assert components.tolist() == [layout.components.get(key, -1) for key in keys]
        for (x, y), shard, component in zip(points, shards.tolist(), components.tolist()):
            assert layout.shard_of(Point(x, y)) == shard
            assert layout.component_of(Point(x, y)) == component

    def test_out_of_range_raises_the_scalar_error(self):
        layout = ShardLayout(cell_km=1.0, num_shards=2, max_radius_km=1.0, cells={(0, 0): 1})
        with pytest.raises(DataError, match=r"coordinate \(0.5, 40000000.0\) quantizes to cell \(0, 40000000\)"):
            layout.shards_of([0.5, 0.5], [0.5, 4e7])
        for edge in (float(MAX_CELL_INDEX), -float(MAX_CELL_INDEX)):
            with pytest.raises(DataError):
                layout.shards_of([edge], [0.5])
            with pytest.raises(DataError):
                layout.components_of([0.5], [edge])
        inside = float(MAX_CELL_INDEX - 1)
        assert layout.shards_of([inside, -inside], [-inside, 0.5]).shape == (2,)


class TestShardExecutor:
    def test_rejects_unknown_backend(self):
        _, log = clustered_world(num_workers=10, num_tasks=10)
        layout = ShardLayout.plan(log, 2)
        with pytest.raises(ValueError):
            ShardExecutor(layout, backend="gpu")
        with pytest.raises(ValueError, match="choose from serial, thread"):
            ShardExecutor(layout, backend="process")
        with pytest.raises(ValueError):
            ShardExecutor(layout, max_workers=0)

    def test_per_shard_round_states_accumulate(self):
        base, log = clustered_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
            shards=4,
        )
        runtime.run()
        executor = runtime.shard_executor
        assert set(executor.round_states) <= set(range(executor.layout.num_shards))
        assert len(executor.round_states) > 1  # several shards saw rounds

    def test_shard_rngs_spawn_from_user_generator(self):
        _, log = clustered_world(num_workers=20, num_tasks=20)
        layout = ShardLayout.plan(log, 3)
        seeded_a = ShardExecutor(layout, rng=np.random.default_rng(7))
        seeded_b = ShardExecutor(layout, rng=np.random.default_rng(7))
        other = ShardExecutor(layout, rng=np.random.default_rng(8))
        default = ShardExecutor(layout)
        for shard in range(layout.num_shards):
            assert (
                seeded_a.rng_for(shard).bit_generator.state
                == seeded_b.rng_for(shard).bit_generator.state
            )
            assert (
                seeded_a.rng_for(shard).bit_generator.state
                != other.rng_for(shard).bit_generator.state
            )
            assert (
                seeded_a.rng_for(shard).bit_generator.state
                != default.rng_for(shard).bit_generator.state
            )

    def test_rng_state_dict_roundtrip(self):
        _, log = clustered_world(num_workers=20, num_tasks=20)
        layout = ShardLayout.plan(log, 3)
        executor = ShardExecutor(layout)
        executor.rngs[0].random(5)  # advance one shard's stream
        snapshot = executor.state_dict()
        fresh = ShardExecutor(ShardLayout.from_state_dict(snapshot["layout"]))
        assert (
            fresh.rngs[0].bit_generator.state != executor.rngs[0].bit_generator.state
        )
        fresh.load_state_dict(snapshot)
        for shard in range(layout.num_shards):
            assert (
                fresh.rngs[shard].bit_generator.state
                == executor.rngs[shard].bit_generator.state
            )


class TestPackComponents:
    def test_greedy_least_loaded(self):
        assignment = pack_components({0: 5.0, 1: 3.0, 2: 3.0, 3: 1.0}, 2)
        assert assignment == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_ties_break_by_component_then_bin_index(self):
        assert pack_components({1: 1.0, 0: 1.0, 2: 1.0}, 3) == {0: 0, 1: 1, 2: 2}

    def test_single_bin_takes_everything(self):
        assert pack_components({0: 2.0, 1: 1.0}, 1) == {0: 0, 1: 0}

    def test_matches_planner_packing(self):
        """plan() and pack_components share one greedy: re-packing the
        planner's own component weights reproduces the planner's bins."""
        _, log = clustered_world(clusters=5, num_workers=80, num_tasks=80)
        layout = ShardLayout.plan(log, 3)
        bins = layout.component_bins()
        # Planner weight proxy: entities per component (cells carry counts
        # at plan time; here equal weights per component reproduce the
        # orderless case, so only assert the packing is a valid cover).
        assert set(bins) == set(layout.components.values())
        assert all(0 <= shard < layout.num_shards for shard in bins.values())


def five_cluster_layout(shards=2):
    _, log = clustered_world(clusters=5, num_workers=80, num_tasks=80)
    layout = ShardLayout.plan(log, shards)
    assert len(set(layout.components.values())) >= 3
    return layout


def loaded_rebalancer(ewma, **kwargs):
    """A rebalancer with injected EWMA state (the checkpoint seam)."""
    rebalancer = ShardRebalancer(**kwargs)
    rebalancer.load_state_dict({
        "ewma": [[component, value] for component, value in sorted(ewma.items())],
        "last_repack": -1,
        "observed_rounds": 1,
    })
    return rebalancer


class TestShardRebalancer:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardRebalancer(interval=0)
        with pytest.raises(ValueError):
            ShardRebalancer(alpha=0.0)
        with pytest.raises(ValueError):
            ShardRebalancer(alpha=1.5)
        with pytest.raises(ValueError):
            ShardRebalancer(hysteresis=-0.1)
        with pytest.raises(ValueError, match="hysteresis.*nan"):
            ShardRebalancer(hysteresis=float("nan"))
        ShardRebalancer(hysteresis=float("inf"))  # never repacks

    def test_observe_seeds_then_smooths(self):
        layout = five_cluster_layout()
        component = min(layout.components.values())
        shard = layout.component_bins()[component]
        rebalancer = ShardRebalancer(alpha=0.5)
        rebalancer.observe(layout, {shard: 2.0}, {component: 10})
        assert rebalancer.ewma[component] == 2.0  # seeded, not decayed
        rebalancer.observe(layout, {shard: 4.0}, {component: 10})
        assert rebalancer.ewma[component] == 3.0  # 2 + 0.5 * (4 - 2)
        assert rebalancer.observed_rounds == 2

    def test_observe_attributes_bin_latency_by_entity_share(self):
        layout = five_cluster_layout()
        bins = layout.component_bins()
        shard = next(iter(bins.values()))
        sharing = [c for c, b in bins.items() if b == shard]
        if len(sharing) < 2:  # pragma: no cover - world-shape guard
            pytest.skip("no co-located components in this layout")
        a, b = sharing[0], sharing[1]
        rebalancer = ShardRebalancer(alpha=1.0)
        rebalancer.observe(layout, {shard: 3.0}, {a: 10, b: 20})
        assert rebalancer.ewma[a] == pytest.approx(1.0)
        assert rebalancer.ewma[b] == pytest.approx(2.0)

    def test_latency_of_overrides_the_sample(self):
        layout = five_cluster_layout()
        component = min(layout.components.values())
        shard = layout.component_bins()[component]
        rebalancer = ShardRebalancer(latency_of=lambda s, n, sec: float(n))
        rebalancer.observe(layout, {shard: 99.0}, {component: 7})
        assert rebalancer.ewma[component] == 7.0

    def _forced_repack_state(self, layout):
        """EWMA weights that demand splitting a co-located heavy pair."""
        bins = layout.component_bins()
        by_bin: dict[int, list[int]] = {}
        for component, shard in bins.items():
            by_bin.setdefault(shard, []).append(component)
        sharing = next(comps for comps in by_bin.values() if len(comps) >= 2)
        heavy_a, heavy_b = sorted(sharing)[:2]
        return {
            component: (10.0 if component == heavy_a
                        else 9.0 if component == heavy_b else 0.1)
            for component in bins
        }, (heavy_a, heavy_b)

    def test_repack_fires_only_at_interval_boundaries(self):
        layout = five_cluster_layout()
        ewma, _ = self._forced_repack_state(layout)
        rebalancer = loaded_rebalancer(ewma, interval=4, hysteresis=0.0)
        assert rebalancer.maybe_repack(0, layout) is None
        assert rebalancer.maybe_repack(3, layout) is None
        assert rebalancer.maybe_repack(4, layout) is not None
        assert rebalancer.last_repack == 4

    def test_repack_splits_the_heavy_pair(self):
        layout = five_cluster_layout()
        ewma, (heavy_a, heavy_b) = self._forced_repack_state(layout)
        rebalancer = loaded_rebalancer(ewma, interval=1, hysteresis=0.0)
        repacked = rebalancer.maybe_repack(1, layout)
        assert repacked is not None
        new_bins = repacked.component_bins()
        assert new_bins[heavy_a] != new_bins[heavy_b]
        # The component partition — the never-split invariant — is intact:
        # every cell keeps its component, components move bins wholesale.
        assert repacked.components == layout.components
        assert set(repacked.cells) == set(layout.cells)
        for key, component in layout.components.items():
            assert repacked.cells[key] == new_bins[component]
        assert repacked.cell_km == layout.cell_km
        assert repacked.num_shards == layout.num_shards

    def test_hysteresis_blocks_near_ties(self):
        layout = five_cluster_layout()
        ewma, _ = self._forced_repack_state(layout)
        eager = loaded_rebalancer(ewma, interval=1, hysteresis=0.0)
        reluctant = loaded_rebalancer(ewma, interval=1, hysteresis=10.0)
        assert eager.maybe_repack(1, layout) is not None
        assert reluctant.maybe_repack(1, layout) is None

    def test_single_shard_and_empty_ewma_never_fire(self):
        layout = five_cluster_layout()
        assert ShardRebalancer(interval=1).maybe_repack(1, layout) is None
        single = five_cluster_layout(shards=1)
        ewma = {component: 1.0 for component in set(single.components.values())}
        rebalancer = loaded_rebalancer(ewma, interval=1, hysteresis=0.0)
        assert rebalancer.maybe_repack(1, single) is None

    def test_repacked_rejects_bad_assignments(self):
        layout = five_cluster_layout()
        with pytest.raises(ValueError):
            layout.repacked({})  # misses every component
        bad = {component: layout.num_shards + 3
               for component in set(layout.components.values())}
        with pytest.raises(ValueError):
            layout.repacked(bad)

    def test_state_dict_roundtrip_through_json(self):
        import json

        layout = five_cluster_layout()
        rebalancer = ShardRebalancer(interval=3, alpha=0.5, hysteresis=0.2)
        component = min(layout.components.values())
        shard = layout.component_bins()[component]
        rebalancer.observe(layout, {shard: 2.5}, {component: 4})
        state = json.loads(json.dumps(rebalancer.state_dict()))
        fresh = ShardRebalancer(interval=3, alpha=0.5, hysteresis=0.2)
        fresh.load_state_dict(state)
        assert fresh.ewma == rebalancer.ewma
        assert fresh.last_repack == rebalancer.last_repack
        assert fresh.observed_rounds == rebalancer.observed_rounds


def entity_count_rebalancer(interval=2):
    """Deterministic signal: latency == live entity count, no wall clock."""
    return ShardRebalancer(
        interval=interval, hysteresis=0.0,
        latency_of=lambda shard, entities, seconds: float(entities),
    )


class TestRebalancedRuntime:
    """Repacking mid-stream never changes output — only the packing."""

    @pytest.mark.parametrize("seed", [3, 29])
    def test_rebalanced_matches_plain(self, seed):
        base, log = clustered_world(clusters=5, seed=seed,
                                    num_workers=80, num_tasks=80)
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
        ).run()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            shards=3, rebalance=entity_count_rebalancer(),
        )
        rebalanced = runtime.run()
        assert sorted_pairs(rebalanced) == sorted_pairs(plain)
        assert round_rows(rebalanced) == round_rows(plain)
        assert rebalanced.metrics.total_repacks == sum(
            r.repacks for r in rebalanced.rounds
        )

    def test_repacks_fire_and_are_recorded(self):
        """At least one boundary must actually repack under an entity-count
        signal on a churned world (live counts drift from plan-time ones)."""
        base, log = clustered_world(clusters=5, num_workers=80, num_tasks=80)
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            shards=3, rebalance=entity_count_rebalancer(interval=1),
        )
        result = runtime.run()
        assert result.metrics.total_repacks > 0
        assert any(r.repacks > 0 for r in result.rounds)

    def test_runs_are_reproducible(self):
        base, log = clustered_world(clusters=5, num_workers=60, num_tasks=60)
        results = [
            StreamRuntime(
                NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, shards=3, rebalance=entity_count_rebalancer(),
            ).run()
            for _ in range(2)
        ]
        assert sorted_pairs(results[0]) == sorted_pairs(results[1])
        assert round_rows(results[0]) == round_rows(results[1])
        assert [r.repacks for r in results[0].rounds] == [
            r.repacks for r in results[1].rounds
        ]

    @settings(max_examples=10, deadline=None)
    @given(
        world=stream_worlds(max_workers=40, max_tasks=40),
        shards=st.integers(2, 6),
        interval=st.integers(1, 3),
    )
    def test_property_repack_is_assignment_equivalent(
        self, world, shards, interval
    ):
        """The ISSUE's property pin: any world, any shard count, any repack
        cadence — a repacking run is bit-identical to a non-repacking one."""
        base, log = world
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            shards=shards,
        ).run()
        rebalanced = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            shards=shards, rebalance=entity_count_rebalancer(interval=interval),
        ).run()
        assert sorted_pairs(rebalanced) == sorted_pairs(plain)
        assert round_rows(rebalanced) == round_rows(plain)

    def test_rebalance_requires_shards(self):
        base, log = clustered_world(num_workers=10, num_tasks=10)
        with pytest.raises(ValueError, match="rebalance requires shards"):
            StreamRuntime(
                NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, log, rebalance=entity_count_rebalancer(),
            )


class TestShardedCheckpoint:
    def _runtime(self, base, log, shards=4, executor="serial"):
        return StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            patience_hours=6.0, shards=shards, executor=executor,
        )

    def test_resume_is_bit_identical(self, tmp_path):
        base, log = clustered_world(seed=47)
        uninterrupted = self._runtime(base, log).run()

        interrupted = self._runtime(base, log)
        interrupted.run(max_rounds=5)
        interrupted.rngs_probe = interrupted.shard_executor.rngs[0].random()
        saved = interrupted.checkpoint(tmp_path / "sharded.npz")
        resumed_runtime = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
            base, log, patience_hours=6.0, shards=4,
        )
        resumed = resumed_runtime.run()
        assert sorted_pairs(resumed) == sorted_pairs(uninterrupted)
        assert round_rows(resumed) == round_rows(uninterrupted)
        # The consumed per-shard RNG stream resumes where it stopped.
        assert (
            resumed_runtime.shard_executor.rngs[0].random()
            == interrupted.shard_executor.rngs[0].random()
        )

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

    def _rebalanced_runtime(self, base, log, **kwargs):
        return StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            patience_hours=6.0, shards=3,
            rebalance=entity_count_rebalancer(**kwargs),
        )

    def test_rebalanced_resume_is_bit_identical(self, tmp_path):
        """Resuming adopts the saved (possibly repacked) layout and EWMA
        state, so replay repacks at the same boundaries and stays exact."""
        base, log = clustered_world(clusters=5, num_workers=80, num_tasks=80)
        uninterrupted = self._rebalanced_runtime(base, log, interval=1).run()
        assert uninterrupted.metrics.total_repacks > 0

        interrupted = self._rebalanced_runtime(base, log, interval=1)
        interrupted.run(max_rounds=6)
        saved = interrupted.checkpoint(tmp_path / "rebalanced.npz")
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
            base, log, patience_hours=6.0, shards=3,
            rebalance=entity_count_rebalancer(interval=1),
        ).run()
        assert sorted_pairs(resumed) == sorted_pairs(uninterrupted)
        assert round_rows(resumed) == round_rows(uninterrupted)
        assert resumed.metrics.total_repacks == uninterrupted.metrics.total_repacks

    def test_refuses_rebalance_presence_mismatch(self, tmp_path):
        base, log = clustered_world(seed=47)
        rebalanced = self._rebalanced_runtime(base, log)
        rebalanced.run(max_rounds=2)
        saved = rebalanced.checkpoint(tmp_path / "rebalanced.npz")
        with pytest.raises(DataError, match="rebalanc"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, patience_hours=6.0, shards=3,
            )

        plain = self._runtime(base, log, shards=3)
        plain.run(max_rounds=2)
        saved_plain = plain.checkpoint(tmp_path / "plain.npz")
        with pytest.raises(DataError, match="rebalanc"):
            StreamRuntime.resume(
                saved_plain, NearestNeighborAssigner(), None,
                HybridTrigger(32, 1.0), base, log, patience_hours=6.0,
                shards=3, rebalance=entity_count_rebalancer(),
            )

    def test_refuses_rebalance_config_mismatch(self, tmp_path):
        base, log = clustered_world(seed=47)
        rebalanced = self._rebalanced_runtime(base, log, interval=2)
        rebalanced.run(max_rounds=2)
        saved = rebalanced.checkpoint(tmp_path / "rebalanced.npz")
        with pytest.raises(DataError, match="interval"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, patience_hours=6.0, shards=3,
                rebalance=entity_count_rebalancer(interval=5),
            )

    def test_refuses_pipeline_mismatch(self, tmp_path):
        base, log = clustered_world(seed=47)
        pipelined = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            patience_hours=6.0, shards=4, executor="thread", pipeline=True,
        )
        pipelined.run(max_rounds=2)
        saved = pipelined.checkpoint(tmp_path / "pipelined.npz")
        pipelined.close()
        with pytest.raises(DataError, match="pipelin"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, patience_hours=6.0, shards=4,
            )
