"""Tests for repro.stream.runtime — golden cross-checks and edge cases."""

import threading
import warnings

import pytest

from repro import DITAPipeline
from repro.assignment import IAAssigner, MTAAssigner, NearestNeighborAssigner
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.framework import OnlineSimulator, WorkerArrival, day_arrivals
from repro.geo import Point
from repro.stream import (
    AdaptiveTrigger,
    CountTrigger,
    EventLog,
    HybridTrigger,
    StreamRuntime,
    TaskCancelEvent,
    TaskPublishEvent,
    TimeWindowTrigger,
    WorkerArrivalEvent,
    WorkerChurnEvent,
    day_stream,
    log_from_arrivals,
    multi_day_stream,
)


def make_instance(tasks=(), current_time=0.0):
    return SCInstance(
        name="stream-test", current_time=current_time, tasks=list(tasks),
        workers=[], histories={}, social_edges=[],
        all_worker_ids=tuple(range(100)),
    )


def make_task(task_id, x, y=0.0, published=0.0, phi=5.0):
    return Task(
        task_id=task_id, location=Point(x, y), publication_time=published,
        valid_hours=phi,
    )


def make_arrival(worker_id, x, y, at, radius=10.0):
    return WorkerArrival(
        worker=Worker(
            worker_id=worker_id, location=Point(x, y), reachable_km=radius,
            speed_kmh=5.0,
        ),
        arrival_time=at,
    )


def pairs(result):
    return sorted(
        (p.worker.worker_id, p.task.task_id) for p in result.assignment.pairs
    )


class TestOnlineSimulatorEquivalence:
    """The golden cross-check: window trigger == batched simulator."""

    def _cross_check(self, tasks, arrivals, batch_hours, assigner_cls=MTAAssigner,
                     patience_hours=None):
        online = OnlineSimulator(
            assigner_cls(), None, batch_hours=batch_hours,
            patience_hours=patience_hours,
        ).run(make_instance(tasks), arrivals)
        runtime = StreamRuntime(
            assigner_cls(), None, TimeWindowTrigger(batch_hours),
            make_instance(tasks), log_from_arrivals(arrivals, tasks),
            patience_hours=patience_hours,
        )
        streamed = runtime.run()
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
        return online, streamed

    @pytest.mark.parametrize("batch_hours", [0.5, 1.0, 4.0])
    def test_synthetic_day(self, batch_hours):
        tasks = [
            make_task(i, float(i % 4), 0.3 * i, published=float(i % 3), phi=6.0)
            for i in range(10)
        ]
        arrivals = [make_arrival(i, 0.4 * i, 1.0, at=0.5 * i) for i in range(8)]
        online, _ = self._cross_check(tasks, arrivals, batch_hours)
        assert online.total_assigned > 0

    def test_with_patience_churn(self):
        tasks = [make_task(0, 500.0, published=0.0, phi=9.0),
                 make_task(1, 1.0, published=4.0, phi=4.0)]
        arrivals = [make_arrival(i, 0.2 * i, 0.0, at=0.5 * i) for i in range(4)]
        online, streamed = self._cross_check(
            tasks, arrivals, 1.0, patience_hours=2.0
        )
        assert streamed.total_churned == online.total_churned > 0

    def test_deadline_on_boundary_still_assignable(self):
        # Task expires exactly at t=2; the round at t=2 may still assign it
        # (zero travel time keeps the arrival-before-deadline check tight).
        tasks = [make_task(0, 0.0, published=0.0, phi=2.0)]
        arrivals = [make_arrival(1, 0.0, 0.0, at=1.5)]
        online, streamed = self._cross_check(tasks, arrivals, 2.0)
        assert streamed.total_assigned == 1

    def test_fitted_world(self, tiny_dataset, tiny_instance, fitted_models):
        arrivals = day_arrivals(tiny_dataset, 6)
        online = OnlineSimulator(
            IAAssigner(), fitted_models.influence_model(), batch_hours=4.0
        ).run(tiny_instance, arrivals)
        instance, log = day_stream(tiny_dataset, 6)
        streamed = StreamRuntime(
            IAAssigner(), fitted_models.influence_model(), TimeWindowTrigger(4.0),
            tiny_instance, log,
        ).run()
        assert streamed.total_assigned > 0
        assert pairs(online) == pairs(streamed)
        assert [s.assigned for s in online.steps] == [
            r.assigned for r in streamed.rounds
        ]

    def test_incremental_matches_full_recompute(self, tiny_dataset, tiny_instance,
                                                fitted_models):
        _, log = day_stream(tiny_dataset, 6)
        incremental = StreamRuntime(
            IAAssigner(), fitted_models.influence_model(), TimeWindowTrigger(4.0),
            tiny_instance, log,
        ).run()
        full = StreamRuntime(
            IAAssigner(), fitted_models.influence_model(), TimeWindowTrigger(4.0),
            tiny_instance, log, incremental=False,
        ).run()
        assert pairs(incremental) == pairs(full)


class TestTriggerBehaviour:
    def test_count_trigger_fires_at_nth_admission(self):
        tasks = [make_task(i, 0.5 * i, published=float(i)) for i in range(4)]
        arrivals = [make_arrival(i, 0.5 * i, 0.0, at=float(i)) for i in range(4)]
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, CountTrigger(4),
            make_instance(tasks), log_from_arrivals(arrivals, tasks),
        )
        result = runtime.run()
        # 8 admissions -> rounds at the 4th and 8th admission times, plus the
        # final flush at the end time.
        assert [r.time for r in result.rounds][:2] == [1.0, 3.0]
        assert result.rounds[0].drained_events == 4

    def test_count_trigger_flush_round_drains_leftovers(self):
        tasks = [make_task(0, 0.0, published=0.0, phi=3.0)]
        arrivals = [make_arrival(1, 0.0, 0.0, at=0.0)]
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, CountTrigger(50),
            make_instance(tasks), log_from_arrivals(arrivals, tasks),
        )
        result = runtime.run()
        # Never reaches 50 admissions: a single flush round at the end time.
        assert len(result.rounds) == 1
        assert result.rounds[0].time == pytest.approx(3.0)
        assert result.total_assigned == 1

    def test_hybrid_fires_on_earlier_mechanism(self):
        tasks = [make_task(i, 0.5 * i, published=0.1 * i, phi=8.0) for i in range(6)]
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(3, 4.0),
            make_instance(tasks), log_from_arrivals([], tasks),
        )
        result = runtime.run()
        # Hybrid is time-based: a start round at t=0 (draining the t=0
        # publish), then the count mechanism (3 publishes) beats the 4 h
        # window and fires at the third remaining publish.
        assert result.rounds[0].time == pytest.approx(0.0)
        assert result.rounds[1].time == pytest.approx(0.3)

    def test_adaptive_trigger_deterministic_cost(self):
        tasks = [make_task(i, 0.5 * i, published=0.5 * i, phi=6.0) for i in range(8)]
        arrivals = [make_arrival(i, 0.5 * i, 0.2, at=0.5 * i) for i in range(8)]
        trigger = AdaptiveTrigger(
            target_seconds=4.0, initial_window_hours=1.0,
            min_window_hours=0.25, max_window_hours=2.0,
            cost_of=lambda record: float(record.open_tasks),
        )
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, trigger,
            make_instance(tasks), log_from_arrivals(arrivals, tasks),
        )
        result = runtime.run()
        assert result.total_assigned > 0
        assert trigger.window_hours <= 2.0


class TestEdgeCases:
    def test_empty_log_runs_one_empty_round(self):
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(current_time=3.0), EventLog([]),
        )
        result = runtime.run()
        assert len(result.rounds) == 1
        assert result.rounds[0].time == pytest.approx(3.0)
        assert result.total_assigned == 0
        assert runtime.done

    def test_empty_batches_recorded_as_empty_rounds(self):
        # One task early, one arrival late: the rounds between drain nothing.
        tasks = [make_task(0, 1.0, published=0.0, phi=8.0)]
        arrivals = [make_arrival(1, 0.0, 0.0, at=6.0)]
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), log_from_arrivals(arrivals, tasks),
        )
        result = runtime.run()
        empty = [r for r in result.rounds if r.drained_events == 0]
        assert empty and all(r.assigned == 0 for r in empty)
        assert result.total_assigned == 1

    def test_all_tasks_expire_before_first_round(self):
        # Count trigger waits for 3 admissions; both tasks die before any
        # round fires, so the flush round sees empty pools.
        tasks = [
            make_task(0, 1.0, published=0.0, phi=1.0),
            make_task(1, 2.0, published=0.5, phi=1.0),
        ]
        arrivals = [make_arrival(7, 0.0, 0.0, at=8.0)]
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, CountTrigger(3),
            make_instance(tasks), log_from_arrivals(arrivals, tasks),
            end_time=9.0,
        )
        result = runtime.run()
        assert result.total_assigned == 0
        assert result.total_expired == 2
        assert result.rounds[-1].online_workers == 1
        assert result.rounds[-1].open_tasks == 0

    def test_simultaneous_events_deterministic(self):
        # Everything lands at t=1.0; two runs over logs built from different
        # source orders must produce identical rounds and assignments.
        tasks = [make_task(i, 0.5 + i, published=1.0, phi=5.0) for i in range(3)]
        arrivals = [make_arrival(i, 0.1 * i, 0.0, at=1.0) for i in range(3)]
        events = [
            WorkerArrivalEvent(time=a.arrival_time, worker=a.worker)
            for a in arrivals
        ] + [TaskPublishEvent(time=t.publication_time, task=t) for t in tasks]
        forward = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), EventLog(events), end_time=6.0,
        ).run()
        backward = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), EventLog(reversed(events)), end_time=6.0,
        ).run()
        assert pairs(forward) == pairs(backward)
        assert [r.time for r in forward.rounds] == [r.time for r in backward.rounds]

    def test_cancellation_removes_open_task(self):
        tasks = [make_task(0, 1.0, published=0.0, phi=8.0)]
        log = log_from_arrivals(
            [make_arrival(1, 0.0, 0.0, at=3.0)], tasks,
            extra=[TaskCancelEvent(time=1.0, task_id=0)],
        )
        result = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), log,
        ).run()
        assert result.total_cancelled == 1
        assert result.total_assigned == 0
        assert result.total_expired == 0

    def test_explicit_churn_event(self):
        tasks = [make_task(0, 1.0, published=4.0, phi=2.0)]
        log = log_from_arrivals(
            [make_arrival(1, 0.0, 0.0, at=0.0)], tasks,
            extra=[WorkerChurnEvent(time=2.0, worker_id=1)],
        )
        result = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), log,
        ).run()
        assert result.total_churned == 1
        assert result.total_assigned == 0

    def test_churn_event_after_assignment_is_noop(self):
        tasks = [make_task(0, 1.0, published=0.0, phi=8.0)]
        log = log_from_arrivals(
            [make_arrival(1, 0.0, 0.0, at=0.0)], tasks,
            extra=[WorkerChurnEvent(time=3.0, worker_id=1)],
        )
        result = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), log,
        ).run()
        assert result.total_assigned == 1
        assert result.total_churned == 0

    def test_rejects_negative_patience_and_max_rounds(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="patience_hours"):
                StreamRuntime(
                    NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                    make_instance(), EventLog([]), patience_hours=bad,
                )
        StreamRuntime(  # inf: nobody ever churns on patience
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(), EventLog([]), patience_hours=float("inf"),
        )
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(), EventLog([]),
        )
        with pytest.raises(ValueError):
            runtime.run(max_rounds=-1)

    def test_run_is_resumable_and_idempotent_when_done(self):
        tasks = [make_task(i, 0.5 * i, published=float(i), phi=4.0) for i in range(4)]
        arrivals = [make_arrival(i, 0.5 * i, 0.2, at=float(i)) for i in range(4)]
        log = log_from_arrivals(arrivals, tasks)
        whole = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), log,
        ).run()
        stepped = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), log,
        )
        stepped.run(max_rounds=2)
        assert not stepped.done
        result = stepped.run()  # continue to completion
        assert stepped.done
        assert pairs(result) == pairs(whole)
        assert result.summary().rounds == whole.summary().rounds
        again = stepped.run()  # already done: unchanged
        assert again.summary().rounds == whole.summary().rounds

    def test_end_time_resolves_on_start(self):
        tasks = [make_task(0, 0.0, published=0.0, phi=3.0)]
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(tasks), log_from_arrivals([], tasks),
        )
        assert runtime.end_time is None  # not started yet
        runtime.run(max_rounds=1)
        assert runtime.end_time == pytest.approx(3.0)  # latest deadline
        assert runtime.clock == pytest.approx(0.0)

    def test_wait_metrics_recorded(self):
        tasks = [make_task(0, 1.0, published=0.0, phi=8.0)]
        arrivals = [make_arrival(1, 0.0, 0.0, at=0.0)]
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(2.0),
            make_instance(tasks), log_from_arrivals(arrivals, tasks),
        )
        result = runtime.run()
        assert result.metrics.task_wait_histogram.count == 1
        assert result.metrics.task_wait_histogram.max_seen == pytest.approx(0.0)
        assert result.metrics.worker_wait_histogram.count == 1
        assert result.metrics.worker_wait_histogram.max_seen == pytest.approx(0.0)
        summary = result.summary()
        assert summary.assigned == 1
        assert summary.rounds == len(result.rounds)


class TestAdmissionControllerValidation:
    def test_rejects_bad_parameters(self):
        from repro.stream import AdmissionController

        with pytest.raises(ValueError, match="budget_seconds"):
            AdmissionController(budget_seconds=0.0)
        with pytest.raises(ValueError, match="budget_seconds.*nan"):
            AdmissionController(budget_seconds=float("nan"))
        AdmissionController(budget_seconds=float("inf"))  # never overloads
        with pytest.raises(ValueError, match="policy"):
            AdmissionController(budget_seconds=1.0, policy="drop")
        with pytest.raises(ValueError, match="resume_fraction"):
            AdmissionController(budget_seconds=1.0, resume_fraction=0.0)

    def test_hysteresis(self):
        from repro.stream import AdmissionController
        from repro.stream.metrics import RoundRecord

        def record(cost):
            return RoundRecord(
                index=0, time=0.0, online_workers=0, open_tasks=0,
                drained_events=0, assigned=0, expired_tasks=0,
                churned_workers=0, cancelled_tasks=0, round_seconds=cost,
            )

        controller = AdmissionController(budget_seconds=1.0)
        assert not controller.overloaded
        controller.on_round(record(1.5))
        assert controller.overloaded
        controller.on_round(record(0.8))  # within hysteresis band: stays
        assert controller.overloaded
        controller.on_round(record(0.4))  # below half budget: recovers
        assert not controller.overloaded


class TestAdmissionFinalFlush:
    def test_backlog_force_released_when_stream_ends_overloaded(self):
        """A run that ends while still over budget must not strand parked
        tasks: the final flush releases the backlog and admits directly."""
        from repro.stream import AdmissionController

        workers = [
            WorkerArrivalEvent(
                time=0.0,
                worker=Worker(worker_id=i, location=Point(float(i), 0.0),
                              reachable_km=20.0),
            )
            for i in range(4)
        ]
        tasks = [make_task(i, float(i), published=1.0, phi=6.0) for i in range(4)]
        log = EventLog([
            *workers,
            *(TaskPublishEvent(time=1.0, task=t) for t in tasks),
        ])
        controller = AdmissionController(
            budget_seconds=0.5, policy="defer",
            cost_of=lambda record: 1.0,  # permanently over budget
        )
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            make_instance(current_time=0.0), log, end_time=3.0,
            admission=controller,
        )
        result = runtime.run()
        assert controller.overloaded  # never recovered...
        assert controller.backlog_size == 0  # ...yet nothing is stranded
        assert result.metrics.total_deferred == 4
        # The final round assigned the force-released tasks.
        assert result.total_assigned == 4


def clustered(num_workers=60, num_tasks=70, seed=41):
    from repro.stream import synthetic_stream

    return synthetic_stream(
        num_workers=num_workers, num_tasks=num_tasks, duration_hours=24.0,
        area_km=20.0, valid_hours=4.0, reachable_km=8.0,
        churn_fraction=0.05, cancel_fraction=0.02, clusters=4, seed=seed,
    )


def round_rows(result):
    return [
        (r.index, r.time, r.online_workers, r.open_tasks, r.drained_events,
         r.assigned, r.expired_tasks, r.churned_workers, r.cancelled_tasks)
        for r in result.rounds
    ]


class TestPipelinedRuntime:
    """Round phases, the deprecated ``executor``/``pipeline`` arguments and
    the context-manager surface."""

    def test_pipeline_requires_shards(self):
        base, log = clustered(num_workers=10, num_tasks=10)
        with pytest.raises(ValueError, match="pipeline=True requires shards"):
            StreamRuntime(
                NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, log, pipeline=True,
            )

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_pipelined_matches_serial(self, backend):
        """``pipeline=True``, under either executor name, is a deprecated
        no-op: it warns, and the rounds equal plain serial ones."""
        base, log = clustered()
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
        ).run()
        with pytest.warns(DeprecationWarning, match="calling thread"):
            runtime = StreamRuntime(
                NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, shards=4, executor=backend, pipeline=True,
            )
        with runtime:
            pipelined = runtime.run()
        assert pairs(pipelined) == pairs(plain)
        assert round_rows(pipelined) == round_rows(plain)

    def test_deprecated_executor_argument_warns_and_changes_nothing(self):
        base, log = clustered()
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            shards=4,
        ).run()
        with pytest.warns(DeprecationWarning, match="calling thread"):
            runtime = StreamRuntime(
                NearestNeighborAssigner(), None, HybridTrigger(32, 1.0),
                base, log, shards=4, executor="thread",
            )
        assert pairs(runtime.run()) == pairs(plain)
        assert round_rows(runtime.result) == round_rows(plain)

    def test_default_arguments_do_not_warn(self):
        base, log = clustered(num_workers=10, num_tasks=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            StreamRuntime(
                NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, log, shards=2, executor="serial", pipeline=False,
            )

    def test_every_phase_runs_in_the_calling_thread(
        self, tiny_dataset, fast_config, monkeypatch
    ):
        """Influence fills and IA solves all run in the thread that runs the
        rounds, so no lock guards the model's caches."""
        base, log = multi_day_stream(tiny_dataset, [6, 7], reachable_km=3.0)
        model = DITAPipeline(fast_config).fit(base).influence_model()
        threads = []
        influence_matrix = model.influence_matrix
        solve = IAAssigner.assign

        def fill_spy(workers, tasks):
            threads.append(threading.current_thread())
            return influence_matrix(workers, tasks)

        def solve_spy(assigner, prepared):
            threads.append(threading.current_thread())
            return solve(assigner, prepared)

        monkeypatch.setattr(model, "influence_matrix", fill_spy)
        monkeypatch.setattr(IAAssigner, "assign", solve_spy)
        runtime = StreamRuntime(
            IAAssigner(), model, TimeWindowTrigger(1.0), base, log, shards=4,
        )
        assert runtime.shard_executor.layout.num_shards > 1
        result = runtime.run()
        assert result.total_assigned > 0
        assert threads and set(threads) == {threading.current_thread()}

    def test_phase_timings_recorded(self):
        base, log = clustered()
        result = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
            shards=4,
        ).run()
        busy = [r for r in result.rounds if r.assigned > 0]
        assert busy, "world must assign something"
        for record in busy:
            assert record.prepare_seconds > 0.0
            assert record.solve_seconds > 0.0
            assert record.merge_seconds >= 0.0
            assert record.drain_seconds >= 0.0
        totals = result.metrics.phase_totals()
        assert set(totals) == {"drain", "prepare", "solve", "merge"}
        assert totals["prepare"] == sum(r.prepare_seconds for r in result.rounds)

    def test_unsharded_rounds_report_phases_too(self):
        base, log = clustered()
        result = StreamRuntime(
            NearestNeighborAssigner(), None, HybridTrigger(32, 1.0), base, log,
        ).run()
        busy = [r for r in result.rounds if r.assigned > 0]
        assert busy and all(r.prepare_seconds > 0.0 for r in busy)

    def test_close_is_idempotent_and_reusable_as_context_manager(self):
        base, log = clustered(num_workers=20, num_tasks=20)
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(2.0), base, log,
            shards=2,
        )
        runtime.run()
        runtime.close()
        runtime.close()  # second close must be a no-op, not an error

        with StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(2.0), base, log,
            shards=2,
        ) as managed:
            managed.run(max_rounds=2)
        managed.close()  # close after __exit__ is also a no-op
        assert not managed.done
        managed.run()  # and the runtime keeps running after close
        assert managed.done

    def test_context_manager_returns_runtime(self):
        base, log = clustered(num_workers=10, num_tasks=10)
        with StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(4.0), base, log,
        ) as runtime:
            assert isinstance(runtime, StreamRuntime)
