"""The cross-engine scenario differential matrix.

For every scenario class in :mod:`tests.scenarios.generators` this module
asserts the three equivalences the streaming stack claims, bit for bit:

1. **Cross-engine** — ``StreamRuntime`` under a window trigger reproduces
   the batched ``OnlineSimulator`` on the scenario's simulator view
   (pairs, per-round assigned/expired/churned counts, pool sizes).  The
   rush-hour scenario asserts this *with relocations included* (mapped to
   re-arrivals — see the generator docstring for why that is exact).
2. **Sharded == unsharded** — across shard counts, assigners and
   executor backends, on the full scenario log (relocations, churn,
   cancellations and all).
3. **Pipelined == serial** — the overlapped executor changes wall-clock
   behaviour only: pairs, round records and wait distributions stay
   bit-identical across the same scenario / assigner / backend matrix.
4. **Checkpoint/resume** — a checkpoint taken mid-stream (mid-
   relocation wave where the scenario has one) resumes event-for-event
   identically, admission-control state included.
5. **Observability on == off** — full telemetry (live registry + tracer)
   reads values the runtime already computed and nothing else: pairs,
   round records and wait distributions stay bit-identical across the
   scenario matrix and every executor backend.
6. **Recorded event indices** — the log row each pooled and assigned
   entity records as it is applied rebuilds the same ``Worker``/``Task``
   as the full-history rescan the checkpoint save used to run (kept
   here as the reference), across relocation, admission, segmented and
   sharded runs.

Plus the admission-control contract: disabled (or never-overloaded)
admission control is a provable no-op, and the defer/shed policies behave
as documented under a deterministic cost signal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment import (
    EIAAssigner,
    IAAssigner,
    MIAssigner,
    MTAAssigner,
    NearestNeighborAssigner,
)
from repro.framework import OnlineSimulator
from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    render_prometheus,
    validate_exposition,
    validate_trace_events,
)
from repro.stream import (
    AdmissionController,
    SegmentedEventLog,
    StreamRuntime,
    TimeWindowTrigger,
)
from repro.stream.events import KIND_ARRIVAL, KIND_PUBLISH, KIND_RELOCATE

from tests.scenarios.generators import SCENARIOS, DistanceLexAssigner


def pairs(result):
    return sorted(
        (p.worker.worker_id, p.task.task_id) for p in result.assignment.pairs
    )


def round_rows(result):
    """Per-round records minus the wall-clock timing field."""
    return [
        (r.index, r.time, r.online_workers, r.open_tasks, r.drained_events,
         r.assigned, r.expired_tasks, r.churned_workers, r.cancelled_tasks,
         r.relocated_workers, r.deferred_tasks, r.shed_tasks)
        for r in result.rounds
    ]


def wait_profile(result):
    """Order-independent wait-distribution state for cross-engine compares.

    ``total`` is excluded on purpose: engines retire pairs in different
    orders, and float addition order can shift its last ulp.
    """
    return [
        (hist.count, hist.counts.tolist(), hist.min_seen, hist.max_seen)
        for hist in (
            result.metrics.task_wait_histogram,
            result.metrics.worker_wait_histogram,
        )
    ]


def make_runtime(scenario, assigner, *, log=None, **kwargs):
    return StreamRuntime(
        assigner, None, TimeWindowTrigger(scenario.batch_hours),
        scenario.base, scenario.log if log is None else log,
        patience_hours=scenario.patience_hours, **kwargs,
    )


def run_stream(scenario, assigner, *, log=None, **kwargs):
    runtime = make_runtime(scenario, assigner, log=log, **kwargs)
    try:
        return runtime.run()
    finally:
        runtime.close()


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    return SCENARIOS[request.param]()


@pytest.fixture(scope="module")
def nn_reference(scenario):
    """The unsharded, ungated NearestNeighbor run of the full log."""
    return run_stream(scenario, NearestNeighborAssigner())


class TestCrossEngine:
    """StreamRuntime(TimeWindowTrigger) == OnlineSimulator, per scenario."""

    @pytest.mark.parametrize("assigner_cls", [NearestNeighborAssigner, MTAAssigner])
    def test_matches_online_simulator(self, scenario, assigner_cls):
        online = OnlineSimulator(
            assigner_cls(), None, batch_hours=scenario.batch_hours,
            patience_hours=scenario.patience_hours,
        ).run(scenario.base.with_tasks(scenario.sim_tasks), scenario.sim_arrivals)
        streamed = run_stream(scenario, assigner_cls(), log=scenario.sim_log)

        assert online.total_assigned > 0, "degenerate scenario assigns nothing"
        assert pairs(online) == pairs(streamed)
        assert [s.time for s in online.steps] == [r.time for r in streamed.rounds]
        assert [s.assigned for s in online.steps] == [
            r.assigned for r in streamed.rounds
        ]
        assert [s.expired_tasks for s in online.steps] == [
            r.expired_tasks for r in streamed.rounds
        ]
        assert [s.churned_workers for s in online.steps] == [
            r.churned_workers for r in streamed.rounds
        ]
        assert [s.online_workers for s in online.steps] == [
            r.online_workers for r in streamed.rounds
        ]
        assert [s.open_tasks for s in online.steps] == [
            r.open_tasks for r in streamed.rounds
        ]

    def test_rush_hour_equivalence_includes_relocations(self):
        """The relocation wave itself is covered by the simulator claim."""
        scenario = SCENARIOS["rush_hour_relocation"]()
        assert scenario.sim_log is scenario.log
        assert int((scenario.log.kinds == KIND_RELOCATE).sum()) > 5
        streamed = run_stream(scenario, NearestNeighborAssigner())
        assert streamed.metrics.total_relocated == int(
            (scenario.log.kinds == KIND_RELOCATE).sum()
        )


class TestShardedUnsharded:
    """Sharded == unsharded, bit for bit, on the full scenario logs."""

    def test_across_shard_counts(self, scenario, nn_reference):
        for shards in scenario.shard_counts:
            sharded = run_stream(
                scenario, NearestNeighborAssigner(), shards=shards
            )
            assert pairs(sharded) == pairs(nn_reference), f"shards={shards}"
            assert round_rows(sharded) == round_rows(nn_reference)
            assert wait_profile(sharded) == wait_profile(nn_reference)

    @pytest.mark.parametrize("assigner_cls", [
        IAAssigner, MTAAssigner, EIAAssigner, MIAssigner,
    ])
    def test_all_assigners_on_decomposable_worlds(self, assigner_cls):
        for name in ("multi_city", "mass_relocation"):
            scenario = SCENARIOS[name]()
            plain = run_stream(scenario, assigner_cls())
            sharded = run_stream(
                scenario, assigner_cls(), shards=scenario.shard_counts[-1]
            )
            assert plain.total_assigned > 0
            assert pairs(sharded) == pairs(plain), name
            assert round_rows(sharded) == round_rows(plain), name

    @pytest.mark.parametrize("backend", ["thread"])
    def test_executor_backends(self, backend):
        scenario = SCENARIOS["mass_relocation"]()
        plain = run_stream(scenario, NearestNeighborAssigner())
        sharded = run_stream(
            scenario, NearestNeighborAssigner(), shards=4, executor=backend
        )
        assert pairs(sharded) == pairs(plain)
        assert round_rows(sharded) == round_rows(plain)

    def test_relocated_positions_are_planned_cells(self):
        """The layout refresh rule: relocation targets are planning inputs,
        so every position the pools can ever hold maps to a planned cell."""
        from repro.stream import ShardLayout

        scenario = SCENARIOS["mass_relocation"]()
        layout = ShardLayout.plan(scenario.log, 5)
        assert layout.covers(scenario.log)

    def test_never_splits_feasible_pairs_after_relocation(self):
        """No relocated worker may end up sharded away from a reachable
        task — the never-split invariant judged at *relocated* positions."""
        from repro.stream import ShardLayout

        scenario = SCENARIOS["mass_relocation"]()
        log = scenario.log
        layout = ShardLayout.plan(log, 5)
        tasks = [log.task_at(int(i))
                 for i in np.flatnonzero(log.kinds == KIND_PUBLISH)]
        for index in np.flatnonzero(log.kinds == KIND_RELOCATE):
            worker = log.worker_at(int(index))
            shard = layout.shard_of(worker.location)
            for task in tasks:
                if worker.location.distance_to(task.location) <= worker.reachable_km:
                    assert layout.shard_of(task.location) == shard


class TestPipelinedSerial:
    """Pipelining changes wall clock only — never output."""

    def test_all_scenarios_pipelined_thread(self, scenario, nn_reference):
        shards = scenario.shard_counts[-1]
        pipelined = run_stream(
            scenario, NearestNeighborAssigner(), shards=shards,
            executor="thread", pipeline=True,
        )
        assert pairs(pipelined) == pairs(nn_reference)
        assert round_rows(pipelined) == round_rows(nn_reference)
        assert wait_profile(pipelined) == wait_profile(nn_reference)

    @pytest.mark.parametrize("assigner_cls", [
        IAAssigner, MTAAssigner, EIAAssigner, MIAssigner,
    ])
    def test_all_assigners_pipelined(self, assigner_cls):
        for name in ("multi_city", "mass_relocation"):
            scenario = SCENARIOS[name]()
            shards = scenario.shard_counts[-1]
            serial = run_stream(scenario, assigner_cls(), shards=shards)
            pipelined = run_stream(
                scenario, assigner_cls(), shards=shards,
                executor="thread", pipeline=True,
            )
            assert pairs(pipelined) == pairs(serial), name
            assert round_rows(pipelined) == round_rows(serial), name

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_executor_backends_pipelined(self, backend):
        scenario = SCENARIOS["mass_relocation"]()
        plain = run_stream(scenario, NearestNeighborAssigner())
        pipelined = run_stream(
            scenario, NearestNeighborAssigner(), shards=4,
            executor=backend, pipeline=True,
        )
        assert pairs(pipelined) == pairs(plain)
        assert round_rows(pipelined) == round_rows(plain)

    def test_pipelined_full_stack(self):
        scenario = SCENARIOS["rush_hour_relocation"]()
        plain = run_stream(scenario, NearestNeighborAssigner())
        stacked = run_stream(
            scenario, NearestNeighborAssigner(), shards=scenario.shard_counts[-1],
            executor="thread", pipeline=True,
        )
        assert pairs(stacked) == pairs(plain)
        assert round_rows(stacked) == round_rows(plain)


def full_obs():
    """Every telemetry sink live: a real registry plus a real tracer."""
    return Observability(registry=MetricsRegistry(), tracer=Tracer())


class TestObservabilityDifferential:
    """Telemetry on vs off is bit-identical — obs only reads results."""

    def test_all_scenarios_unsharded(self, scenario, nn_reference):
        obs = full_obs()
        observed = run_stream(scenario, NearestNeighborAssigner(), obs=obs)
        assert pairs(observed) == pairs(nn_reference)
        assert round_rows(observed) == round_rows(nn_reference)
        assert wait_profile(observed) == wait_profile(nn_reference)
        # The sinks were live, not silently disconnected.
        names = {family.name for family in obs.registry.families()}
        assert "repro_stream_rounds_total" in names
        assert any(event["name"] == "round" for event in obs.tracer.events())

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_executor_backends_sharded(self, backend):
        scenario = SCENARIOS["mass_relocation"]()
        plain = run_stream(
            scenario, NearestNeighborAssigner(), shards=4, executor=backend
        )
        obs = full_obs()
        observed = run_stream(
            scenario, NearestNeighborAssigner(), shards=4, executor=backend,
            obs=obs,
        )
        assert pairs(observed) == pairs(plain)
        assert round_rows(observed) == round_rows(plain)
        assert wait_profile(observed) == wait_profile(plain)
        assert any(
            event["name"] == "shard.solve" for event in obs.tracer.events()
        ), backend

    def test_pipelined_full_stack_emits_valid_telemetry(self):
        scenario = SCENARIOS["rush_hour_relocation"]()
        shards = scenario.shard_counts[-1]
        kwargs = dict(
            shards=shards, executor="thread", pipeline=True,
        )
        plain = run_stream(scenario, NearestNeighborAssigner(), **kwargs)
        obs = full_obs()
        observed = run_stream(
            scenario, NearestNeighborAssigner(), obs=obs, **kwargs,
        )
        assert pairs(observed) == pairs(plain)
        assert round_rows(observed) == round_rows(plain)
        # An unsharded run is a one-shard round and traces the same phases.
        unsharded_obs = full_obs()
        run_stream(scenario, NearestNeighborAssigner(), obs=unsharded_obs)
        # And what came out the other end is well-formed: the trace passes
        # the trace-event schema, the registry renders valid exposition.
        for run_obs in (obs, unsharded_obs):
            span_names = {event["name"] for event in run_obs.tracer.events()}
            assert {"round", "round.drain", "shard.prepare", "shard.solve",
                    "round.merge"} <= span_names
            validate_trace_events(run_obs.tracer.to_payload())
            validate_exposition(render_prometheus(run_obs.registry))


class TestDistanceLexDifferential:
    """Sharded lexicographic rounds are pair-identical to unsharded ones.

    The probe assigner prices edges by raw distance, whose continuous
    values make the per-round optimum unique — so these differentials pin
    pair-level bit-identity for the production lexicographic solver, not
    just the objective value.
    """

    def test_all_scenarios_sharded(self, scenario):
        plain = run_stream(scenario, DistanceLexAssigner())
        sharded = run_stream(
            scenario, DistanceLexAssigner(), shards=scenario.shard_counts[-1]
        )
        assert plain.total_assigned > 0
        assert pairs(sharded) == pairs(plain)
        assert round_rows(sharded) == round_rows(plain)
        assert wait_profile(sharded) == wait_profile(plain)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_sharded_backends_through_relocation_waves(self, backend, pipeline):
        """mass_relocation moves entities across shards on every backend."""
        scenario = SCENARIOS["mass_relocation"]()
        assert scenario.has_relocations
        plain = run_stream(scenario, DistanceLexAssigner())
        sharded = run_stream(
            scenario, DistanceLexAssigner(), shards=4,
            executor=backend, pipeline=pipeline,
        )
        assert pairs(sharded) == pairs(plain)
        assert round_rows(sharded) == round_rows(plain)

    def test_pipelined_stack_and_observability(self):
        """The full stack — pipelined shards + live telemetry — stays
        pinned."""
        scenario = SCENARIOS["rush_hour_relocation"]()
        shards = scenario.shard_counts[-1]
        plain = run_stream(scenario, DistanceLexAssigner())
        obs = full_obs()
        stacked = run_stream(
            scenario, DistanceLexAssigner(), shards=shards,
            executor="thread", pipeline=True, obs=obs,
        )
        assert pairs(stacked) == pairs(plain)
        assert round_rows(stacked) == round_rows(plain)
        validate_trace_events(obs.tracer.to_payload())
        validate_exposition(render_prometheus(obs.registry))


def segmented_log(scenario, segment_hours=6.0, **kwargs):
    segmented = SegmentedEventLog.from_log(
        scenario.log, segment_hours=segment_hours, **kwargs
    )
    assert segmented.segment_count >= 2, "scenario too short to segment"
    return segmented


class TestSegmentedMaterialized:
    """Segmented replay == materialized replay, bit for bit.

    The bounded-memory event-log segments claim: windowing the horizon
    changes *when slabs exist in memory*, never what replays — pairs,
    per-round records and wait distributions stay identical across the
    scenario matrix, every assigner and every executor backend.
    """

    def test_all_scenarios_unsharded(self, scenario, nn_reference):
        streamed = run_stream(
            scenario, NearestNeighborAssigner(), log=segmented_log(scenario)
        )
        assert pairs(streamed) == pairs(nn_reference)
        assert round_rows(streamed) == round_rows(nn_reference)
        assert wait_profile(streamed) == wait_profile(nn_reference)

    @pytest.mark.parametrize("assigner_cls", [
        IAAssigner, MTAAssigner, EIAAssigner, MIAssigner,
    ])
    def test_all_assigners_sharded(self, assigner_cls):
        for name in ("multi_city", "mass_relocation"):
            scenario = SCENARIOS[name]()
            plain = run_stream(scenario, assigner_cls())
            streamed = run_stream(
                scenario, assigner_cls(), log=segmented_log(scenario),
                shards=scenario.shard_counts[-1],
            )
            assert pairs(streamed) == pairs(plain), name
            assert round_rows(streamed) == round_rows(plain), name

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_executor_backends(self, backend, pipeline):
        scenario = SCENARIOS["mass_relocation"]()
        plain = run_stream(scenario, NearestNeighborAssigner())
        streamed = run_stream(
            scenario, NearestNeighborAssigner(), log=segmented_log(scenario),
            shards=4, executor=backend, pipeline=pipeline,
        )
        assert pairs(streamed) == pairs(plain)
        assert round_rows(streamed) == round_rows(plain)
        assert wait_profile(streamed) == wait_profile(plain)

    def test_admission_backlog_positions_cross_seams(self):
        """Defer-parked backlog entries carry *global* cursor positions, so
        a storm parked in one segment releases identically after the seam."""
        scenario = SCENARIOS["quiet_then_burst"]()
        controller = lambda: AdmissionController(  # noqa: E731
            10.0, "defer", cost_of=storm_cost
        )
        reference = run_stream(
            scenario, NearestNeighborAssigner(), admission=controller()
        )
        assert reference.metrics.total_deferred > 0
        streamed = run_stream(
            scenario, NearestNeighborAssigner(),
            log=segmented_log(scenario), admission=controller(),
        )
        assert pairs(streamed) == pairs(reference)
        assert round_rows(streamed) == round_rows(reference)

    def test_checkpoint_resume_mid_segment(self, tmp_path):
        """A checkpoint whose cursor sits strictly inside a middle segment
        resumes bit-identically against a *freshly built* segmented log."""
        scenario = SCENARIOS["mass_relocation"]()
        segmented = segmented_log(scenario)
        full = run_stream(
            scenario, NearestNeighborAssigner(), log=segmented, shards=4
        )
        interrupted = make_runtime(
            scenario, NearestNeighborAssigner(), log=segmented, shards=4
        )
        interrupted.run(max_rounds=mid_relocation_round(full, scenario.log))
        segment, offset = segmented.locate(interrupted.cursor)
        assert 0 < segment < segmented.segment_count - 1
        assert offset > 0, "cursor must land strictly inside the segment"
        saved = interrupted.checkpoint(tmp_path / "segmented.npz")
        interrupted.close()
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None,
            TimeWindowTrigger(scenario.batch_hours), scenario.base,
            segmented_log(scenario),
            patience_hours=scenario.patience_hours, shards=4,
        ).run()
        assert pairs(resumed) == pairs(full)
        assert round_rows(resumed) == round_rows(full)

    def test_resume_refuses_the_wrong_mode_or_partition(self, tmp_path):
        from repro.exceptions import DataError

        scenario = SCENARIOS["mass_relocation"]()
        interrupted = make_runtime(
            scenario, NearestNeighborAssigner(), log=segmented_log(scenario)
        )
        interrupted.run(max_rounds=2)
        saved = interrupted.checkpoint(tmp_path / "seg.npz")
        interrupted.close()
        resume_args = (
            saved, NearestNeighborAssigner(), None,
            TimeWindowTrigger(scenario.batch_hours), scenario.base,
        )
        with pytest.raises(DataError, match="materialized"):
            StreamRuntime.resume(
                *resume_args, scenario.log,
                patience_hours=scenario.patience_hours,
            )
        with pytest.raises(DataError, match="segment 0"):
            StreamRuntime.resume(
                *resume_args, segmented_log(scenario, segment_hours=12.0),
                patience_hours=scenario.patience_hours,
            )


def mid_relocation_round(full_result, log) -> int:
    """A round count whose cursor lands inside the relocation window."""
    relocations = log.times[log.kinds == KIND_RELOCATE]
    times = [r.time for r in full_result.rounds]
    if len(relocations):
        first, last = float(relocations.min()), float(relocations.max())
        for index, when in enumerate(times):
            if first <= when < last:
                return index + 1
    return max(1, len(times) // 2)


class TestCheckpointResume:
    """Checkpoints resume event-for-event identically, mid-relocation."""

    def test_resume_matches_uninterrupted(self, scenario, nn_reference, tmp_path):
        stop_after = mid_relocation_round(nn_reference, scenario.log)
        interrupted = make_runtime(scenario, NearestNeighborAssigner())
        interrupted.run(max_rounds=stop_after)
        if scenario.has_relocations:
            consumed = int(
                (scenario.log.kinds[: interrupted.cursor] == KIND_RELOCATE).sum()
            )
            total = int((scenario.log.kinds == KIND_RELOCATE).sum())
            assert 0 < consumed < total, "checkpoint must land mid-relocation"
        saved = interrupted.checkpoint(tmp_path / f"{scenario.name}.npz")
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None,
            TimeWindowTrigger(scenario.batch_hours), scenario.base, scenario.log,
            patience_hours=scenario.patience_hours,
        ).run()
        assert pairs(resumed) == pairs(nn_reference)
        assert round_rows(resumed) == round_rows(nn_reference)

    def test_sharded_resume_with_admission(self, tmp_path):
        """The full stack at once: shards + admission + relocations across a
        checkpoint boundary."""
        scenario = SCENARIOS["mass_relocation"]()
        cost = lambda record: float(record.open_tasks)  # noqa: E731

        def controller():
            return AdmissionController(
                budget_seconds=12.0, policy="defer", cost_of=cost
            )

        full = run_stream(
            scenario, NearestNeighborAssigner(), shards=4,
            admission=controller(),
        )
        interrupted = make_runtime(
            scenario, NearestNeighborAssigner(), shards=4,
            admission=controller(),
        )
        interrupted.run(max_rounds=mid_relocation_round(full, scenario.log))
        saved = interrupted.checkpoint(tmp_path / "stack.npz")
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None,
            TimeWindowTrigger(scenario.batch_hours), scenario.base, scenario.log,
            patience_hours=scenario.patience_hours, shards=4,
            admission=controller(),
        ).run()
        assert pairs(resumed) == pairs(full)
        assert round_rows(resumed) == round_rows(full)

    def test_pipelined_resume(self, tmp_path):
        """A checkpoint taken mid-pipeline — overlapped executor live —
        resumes event-for-event identically."""
        scenario = SCENARIOS["mass_relocation"]()
        kwargs = dict(shards=4, executor="thread", pipeline=True)
        full = run_stream(scenario, NearestNeighborAssigner(), **kwargs)
        interrupted = make_runtime(scenario, NearestNeighborAssigner(), **kwargs)
        try:
            interrupted.run(max_rounds=mid_relocation_round(full, scenario.log))
            saved = interrupted.checkpoint(tmp_path / "pipelined.npz")
        finally:
            interrupted.close()
        with StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None,
            TimeWindowTrigger(scenario.batch_hours), scenario.base, scenario.log,
            patience_hours=scenario.patience_hours, **kwargs,
        ) as runtime:
            resumed = runtime.run()
        assert pairs(resumed) == pairs(full)
        assert round_rows(resumed) == round_rows(full)


class TestAdmissionControl:
    """Off by default and a no-op when disabled; defer/shed as documented."""

    def test_disabled_admission_is_noop(self, scenario, nn_reference):
        """A controller that never overloads produces bit-identical output
        to a runtime with no controller at all (the default)."""
        never = AdmissionController(
            budget_seconds=1e9, cost_of=lambda record: float(record.open_tasks)
        )
        gated = run_stream(scenario, NearestNeighborAssigner(), admission=never)
        assert pairs(gated) == pairs(nn_reference)
        assert round_rows(gated) == round_rows(nn_reference)
        assert gated.metrics.total_deferred == 0
        assert gated.metrics.total_shed == 0

    def test_defer_parks_then_recovers(self):
        scenario = SCENARIOS["quiet_then_burst"]()
        cost = lambda record: float(record.open_tasks)  # noqa: E731
        controller = AdmissionController(10.0, "defer", cost_of=cost)
        runtime = make_runtime(
            scenario, NearestNeighborAssigner(), admission=controller
        )
        deferred = runtime.run()
        assert deferred.metrics.total_deferred > 0
        assert deferred.metrics.total_shed == 0
        assert any(r.deferred_tasks > 0 for r in deferred.rounds)
        # Defer never drops work: the backlog is empty once the stream ends
        # (the final flush force-releases it) and every publish is either
        # assigned, expired, cancelled, or still open in the pool — exactly
        # the ungated accounting.
        assert controller.backlog_size == 0
        publishes = int((scenario.log.kinds == KIND_PUBLISH).sum())
        accounted = (
            deferred.total_assigned + deferred.total_expired
            + deferred.total_cancelled + runtime.state.num_open_tasks
        )
        assert accounted == publishes

    def test_shed_drops_and_records(self):
        scenario = SCENARIOS["quiet_then_burst"]()
        cost = lambda record: float(record.open_tasks)  # noqa: E731
        runtime = make_runtime(
            scenario, NearestNeighborAssigner(),
            admission=AdmissionController(10.0, "shed", cost_of=cost),
        )
        shed = runtime.run()
        assert shed.metrics.total_shed > 0
        assert shed.metrics.total_deferred == 0
        assert any(r.shed_tasks > 0 for r in shed.rounds)
        assert shed.summary().shed_rate > 0.0
        # Shed work is gone for good; everything else follows the ungated
        # accounting (assigned, expired, cancelled, or still open).
        publishes = int((scenario.log.kinds == KIND_PUBLISH).sum())
        accounted = (
            shed.total_assigned + shed.total_expired + shed.total_cancelled
            + shed.metrics.total_shed + runtime.state.num_open_tasks
        )
        assert accounted == publishes

    def test_defer_beats_shed_on_served_volume(self):
        scenario = SCENARIOS["quiet_then_burst"]()
        cost = lambda record: float(record.open_tasks)  # noqa: E731
        deferred = run_stream(
            scenario, NearestNeighborAssigner(),
            admission=AdmissionController(10.0, "defer", cost_of=cost),
        )
        shed = run_stream(
            scenario, NearestNeighborAssigner(),
            admission=AdmissionController(10.0, "shed", cost_of=cost),
        )
        assert deferred.total_assigned >= shed.total_assigned

    def test_deterministic_under_fixed_cost_signal(self):
        scenario = SCENARIOS["quiet_then_burst"]()
        cost = lambda record: float(record.open_tasks)  # noqa: E731
        runs = [
            run_stream(
                scenario, NearestNeighborAssigner(),
                admission=AdmissionController(10.0, "defer", cost_of=cost),
            )
            for _ in range(2)
        ]
        assert pairs(runs[0]) == pairs(runs[1])
        assert round_rows(runs[0]) == round_rows(runs[1])

    def test_protected_tasks_bypass_the_gate(self):
        scenario = SCENARIOS["quiet_then_burst"]()
        cost = lambda record: float(record.open_tasks)  # noqa: E731
        protected = run_stream(
            scenario, NearestNeighborAssigner(),
            admission=AdmissionController(
                10.0, "shed", cost_of=cost,
                value_of=lambda task: float(task.task_id),
                protect_value=0.0,  # every task's value >= 0 -> all protected
            ),
        )
        assert protected.metrics.total_shed == 0


class RecordingController(AdmissionController):
    """Records which parked tasks were discarded by an expiry/cancel drain."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.discarded: list[int] = []

    def discard(self, task_id):
        was_parked = super().discard(task_id)
        if was_parked:
            self.discarded.append(task_id)
        return was_parked


def storm_cost(record):
    """Deterministic overload covering the quiet_then_burst publish burst.

    The burst publishes inside 10h-12h with 3h validity, so parking the
    whole burst until 14h guarantees part of the backlog out-lives its
    deadline *inside* the backlog (expiry events drain at 13h-14h while
    the tasks are still parked) and the rest is released with deadlines
    imminent or just passed.
    """
    return 20.0 if 10.0 <= record.time < 14.0 else 0.0


class TestDeferredExpiryInBacklog:
    """Defer-parked tasks whose lifetime ends in the backlog stay dead."""

    BUDGET = 10.0

    def _controller(self, cls=AdmissionController):
        return cls(self.BUDGET, "defer", cost_of=storm_cost)

    def test_no_expired_task_resurrected(self):
        scenario = SCENARIOS["quiet_then_burst"]()
        controller = self._controller(RecordingController)
        runtime = make_runtime(
            scenario, NearestNeighborAssigner(), admission=controller
        )
        result = runtime.run()

        assert result.metrics.total_deferred > 0, "storm parked nothing"
        assert controller.discarded, "no parked task expired in the backlog"
        # The load-bearing claim: a task that died while parked is never
        # assigned afterwards — not by the release path, not by the final
        # flush.
        assigned_ids = {p.task.task_id for p in result.assignment.pairs}
        assert not assigned_ids & set(controller.discarded)
        # And it is not dropped either: defer conserves every publish.
        publishes = int((scenario.log.kinds == KIND_PUBLISH).sum())
        accounted = (
            result.total_assigned + result.total_expired
            + result.total_cancelled + runtime.state.num_open_tasks
        )
        assert accounted == publishes
        assert controller.backlog_size == 0

    def test_released_tasks_never_solved_past_deadline(self):
        """A parked task released at or after its deadline expires in the
        same round's sweep — the solver never even sees it."""

        class AuditingAssigner(NearestNeighborAssigner):
            def __init__(self):
                super().__init__()
                self.solved: list[tuple[float, int]] = []

            def assign(self, prepared):
                assignment = super().assign(prepared)
                now = prepared.instance.current_time
                self.solved.extend(
                    (now, pair.task.task_id) for pair in assignment.pairs
                )
                return assignment

        scenario = SCENARIOS["quiet_then_burst"]()
        assigner = AuditingAssigner()
        runtime = make_runtime(
            scenario, assigner, admission=self._controller(RecordingController)
        )
        result = runtime.run()
        assert result.metrics.total_deferred > 0
        assert assigner.solved
        deadline_of = {
            task.task_id: task.publication_time + task.valid_hours
            for task in scenario.sim_tasks
        }
        for solve_time, task_id in assigner.solved:
            assert solve_time <= deadline_of[task_id], (
                f"task {task_id} assigned at t={solve_time} after its "
                f"deadline {deadline_of[task_id]}"
            )

    def test_cross_engine_identical_under_backlog_expiry(self):
        """The differential: unsharded == sharded on every backend, with
        the backlog-expiry storm active — no engine resurrects a task."""
        scenario = SCENARIOS["quiet_then_burst"]()
        reference = run_stream(
            scenario, NearestNeighborAssigner(), admission=self._controller()
        )
        assert reference.metrics.total_deferred > 0
        for backend in ("serial", "thread"):
            sharded = run_stream(
                scenario, NearestNeighborAssigner(),
                admission=self._controller(), shards=2, executor=backend,
            )
            assert pairs(sharded) == pairs(reference), backend
            assert round_rows(sharded) == round_rows(reference), backend


def scanned_event_indices(log, cursor):
    """Reference oracle: each worker/task payload in rows ``[0, cursor)``
    mapped to the *last* row carrying it — the full-history rescan the
    checkpoint save ran before entities recorded their own rows."""
    workers: dict = {}
    tasks: dict = {}
    for slab, local_start, local_stop, base in log.slices(0, cursor):
        kinds = slab.kinds
        for position in range(local_start, local_stop):
            kind = int(kinds[position])
            if kind == KIND_ARRIVAL or kind == KIND_RELOCATE:
                workers[slab.worker_at(position)] = base + position
            elif kind == KIND_PUBLISH:
                tasks[slab.task_at(position)] = base + position
    return workers, tasks


def assert_recorded_indices_rebuild(runtime) -> int:
    """Every pooled and assigned entity rebuilds an equal payload from its
    recorded row and from the scan's row; returns how many recorded rows
    differ from the scan's (equal payloads re-arriving later)."""
    log, state, result = runtime.log, runtime.state, runtime.result
    worker_events = state.workers.by_id("events")
    task_events = state.tasks.by_id("events")
    assert worker_events.keys() == state.workers.keys()
    assert task_events.keys() == state.tasks.keys()
    assert len(result.worker_events) == len(result.assignment)
    assert len(result.task_events) == len(result.assignment)
    scanned_workers, scanned_tasks = scanned_event_indices(log, runtime.cursor)
    workers = [(worker_events[i], w) for i, w in state.workers.items()]
    workers += zip(result.worker_events, (p.worker for p in result.assignment))
    tasks = [(task_events[i], t) for i, t in state.tasks.items()]
    tasks += zip(result.task_events, (p.task for p in result.assignment))
    moved = 0
    for recorded, worker in workers:
        scanned = scanned_workers[worker]
        assert recorded <= scanned < runtime.cursor
        assert log.worker_at(recorded) == worker == log.worker_at(scanned)
        moved += recorded != scanned
    for recorded, task in tasks:
        scanned = scanned_tasks[task]
        assert recorded <= scanned < runtime.cursor
        assert log.task_at(recorded) == task == log.task_at(scanned)
        moved += recorded != scanned
    return moved


def run_checking_indices(runtime, every=3):
    """Play ``runtime`` to the end, checking the indices every few rounds."""
    with runtime:
        while not runtime.done:
            runtime.run(max_rounds=every)
            assert_recorded_indices_rebuild(runtime)
    assert len(runtime.result.assignment) > 0
    return runtime.result


class TestRecordedEventIndices:
    """The checkpoint save reads recorded rows; they rebuild what the scan
    would have, on every engine configuration."""

    def test_all_scenarios_unsharded(self, scenario, nn_reference):
        result = run_checking_indices(
            make_runtime(scenario, NearestNeighborAssigner())
        )
        assert pairs(result) == pairs(nn_reference)

    @pytest.mark.parametrize("policy", ["defer", "shed"])
    def test_admission(self, policy):
        scenario = SCENARIOS["quiet_then_burst"]()
        controller = AdmissionController(10.0, policy, cost_of=storm_cost)
        result = run_checking_indices(
            make_runtime(
                scenario, NearestNeighborAssigner(), admission=controller
            ),
            every=1,
        )
        diverted = result.metrics.total_deferred + result.metrics.total_shed
        assert diverted > 0

    @pytest.mark.parametrize("name", ["rush_hour_relocation", "mass_relocation"])
    def test_segmented(self, name):
        scenario = SCENARIOS[name]()
        run_checking_indices(
            make_runtime(
                scenario, NearestNeighborAssigner(),
                log=segmented_log(scenario, max_cached=1),
            )
        )

    @pytest.mark.parametrize("backend", ["thread"])
    def test_sharded(self, backend):
        scenario = SCENARIOS["mass_relocation"]()
        run_checking_indices(
            make_runtime(
                scenario, NearestNeighborAssigner(), log=segmented_log(scenario),
                shards=4, executor=backend, pipeline=True,
            )
        )
