"""Scenario generators for the cross-engine differential matrix.

Each scenario class models a workload shape the streaming runtime must
serve — dense single-city load, multi-city clusters, a rush-hour burst
preceded by a relocation wave, mass multi-day migration, and churn-heavy
days — as a :class:`Scenario`: the event log to stream plus the
*simulator view*, the :class:`~repro.framework.online.OnlineSimulator`
expression of the same workload.

Equivalence contracts
---------------------
Every scenario claims, and ``test_differential.py`` asserts:

* ``StreamRuntime(TimeWindowTrigger(batch_hours))`` on ``sim_log`` is
  **bit-identical** to ``OnlineSimulator(batch_hours)`` on
  ``sim_arrivals``/``sim_tasks`` — pairs, per-round assigned counts and
  pool sizes;
* sharded == unsharded on the full ``log``, for every assigner
  exercised;
* a v3 checkpoint taken mid-stream (mid-relocation where the scenario has
  relocations) resumes event-for-event identically;
* admission control disabled (or configured but never overloaded) is a
  no-op.

For scenarios whose full log is simulator-expressible, ``sim_log is
log``.  The rush-hour scenario goes further: its relocations all happen
**before the first task publication**, when every arrived worker is
provably still pooled (rounds assign nothing without open tasks and
patience is off), so a relocation is observationally a re-arrival — the
simulator view maps each relocation to a ``WorkerArrival`` of the moved
worker and the equivalence holds *with relocations included*.  The
mass-relocation and churn-event scenarios claim the simulator equivalence
on their arrival/publish/expiry projection (the other event kinds are
outside the simulator's model); their relocation/churn behaviour is
pinned by the stream-side differentials instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.framework.online import WorkerArrival
from repro.geo import Point
from repro.stream import (
    EventLog,
    TaskPublishEvent,
    WorkerArrivalEvent,
    WorkerRelocateEvent,
    expiry_events,
    log_from_arrivals,
    synthetic_stream,
)
from repro.assignment.base import PreparedInstance
from repro.assignment.lexico import LexicographicCostAssigner
from repro.stream.events import KIND_ARRIVAL, KIND_PUBLISH, KIND_RELOCATE


class DistanceLexAssigner(LexicographicCostAssigner):
    """Lexicographic matching over raw distances — tie-free by construction.

    The influence-based assigners can price many edges identically (IA with
    no social graph costs every edge 1.0), which makes *which* optimal
    matching the solver returns degenerate.  Continuous pairwise distances
    from the synthetic generators are distinct almost surely, so this
    assigner has a unique optimum per round — the right probe for sharded-
    vs-unsharded differentials that assert pair-level (not just
    objective-level) bit-identity across the scenario matrix.
    """

    name = "DistLex"

    def edge_costs(self, prepared: PreparedInstance) -> np.ndarray:
        return prepared.feasible.distance_km


@dataclass
class Scenario:
    """One workload shape plus its cross-engine equivalence mapping."""

    name: str
    base: SCInstance
    log: EventLog
    batch_hours: float
    sim_log: EventLog
    sim_arrivals: list[WorkerArrival]
    sim_tasks: list[Task]
    patience_hours: float | None = None
    shard_counts: tuple[int, ...] = (2, 4)
    has_relocations: bool = field(init=False)

    def __post_init__(self) -> None:
        self.has_relocations = bool(
            (self.log.kinds == KIND_RELOCATE).sum()
        )


def _arrivals_of(log: EventLog) -> list[WorkerArrival]:
    return [
        WorkerArrival(worker=log.worker_at(int(i)), arrival_time=float(log.times[i]))
        for i in np.flatnonzero(log.kinds == KIND_ARRIVAL)
    ]


def _tasks_of(log: EventLog) -> list[Task]:
    return [log.task_at(int(i)) for i in np.flatnonzero(log.kinds == KIND_PUBLISH)]


def _projected(scenario_log: EventLog) -> tuple[EventLog, list, list]:
    """The arrival/publish/expiry projection of a log (simulator view)."""
    arrivals = _arrivals_of(scenario_log)
    tasks = _tasks_of(scenario_log)
    return log_from_arrivals(arrivals, tasks), arrivals, tasks


def dense_blob() -> Scenario:
    """One dense city: everything reachable, rounds never decompose."""
    base, log = synthetic_stream(
        num_workers=45, num_tasks=50, duration_hours=24.0, area_km=30.0,
        valid_hours=4.0, reachable_km=20.0, seed=101,
    )
    return Scenario(
        name="dense_blob", base=base, log=log, batch_hours=1.0,
        sim_log=log, sim_arrivals=_arrivals_of(log), sim_tasks=_tasks_of(log),
        shard_counts=(1, 4),
    )


def multi_city() -> Scenario:
    """Four separated cities — the decomposable world sharding exploits."""
    base, log = synthetic_stream(
        num_workers=60, num_tasks=70, duration_hours=24.0, area_km=15.0,
        valid_hours=4.0, reachable_km=6.0, clusters=4, seed=103,
    )
    return Scenario(
        name="multi_city", base=base, log=log, batch_hours=1.0,
        sim_log=log, sim_arrivals=_arrivals_of(log), sim_tasks=_tasks_of(log),
        shard_counts=(2, 4, 7),
    )


def rush_hour_relocation() -> Scenario:
    """Overnight arrivals, a morning relocation wave, then a task burst.

    All relocations land in ``[2, 4)`` while the first task publishes at
    ``t >= 4``: no round before the burst has open tasks, so no worker can
    have been assigned when it relocates — every relocation applies to a
    pooled worker and is observationally a re-arrival.  The simulator view
    therefore keeps the relocations, mapped to ``WorkerArrival`` entries
    of the moved workers, and the cross-engine equivalence is claimed for
    the *full* scenario.
    """
    rng = np.random.default_rng(105)
    count = 40
    events = []
    sim_arrivals = []
    workers = []
    for worker_id in range(count):
        home = Point(float(rng.uniform(0, 25)), float(rng.uniform(0, 25)))
        worker = Worker(worker_id=worker_id, location=home, reachable_km=8.0)
        workers.append(worker)
        arrival = float(rng.uniform(0.0, 2.0))
        events.append(WorkerArrivalEvent(time=arrival, worker=worker))
        sim_arrivals.append(WorkerArrival(worker=worker, arrival_time=arrival))
    # The morning wave: 60% of workers converge on the city centre.
    for worker_id in range(count):
        if rng.random() < 0.6:
            target = Point(float(rng.uniform(8, 17)), float(rng.uniform(8, 17)))
            when = float(rng.uniform(2.0, 4.0))
            events.append(WorkerRelocateEvent(
                time=when, worker_id=worker_id, location=target,
            ))
            sim_arrivals.append(WorkerArrival(
                worker=workers[worker_id].moved_to(target), arrival_time=when,
            ))
    tasks = []
    for task_id in range(50):
        tasks.append(Task(
            task_id=task_id,
            location=Point(float(rng.uniform(5, 20)), float(rng.uniform(5, 20))),
            publication_time=float(rng.uniform(4.0, 6.0)),
            valid_hours=3.0,
        ))
    events.extend(TaskPublishEvent(time=t.publication_time, task=t) for t in tasks)
    events.extend(expiry_events(tasks))
    log = EventLog(events)
    base = SCInstance(
        name="rush-hour", current_time=0.0, tasks=[], workers=[],
        histories={}, social_edges=[], all_worker_ids=tuple(range(count)),
    )
    return Scenario(
        name="rush_hour_relocation", base=base, log=log, batch_hours=0.5,
        sim_log=log, sim_arrivals=sim_arrivals, sim_tasks=tasks,
        shard_counts=(1, 3),
    )


def mass_relocation() -> Scenario:
    """Three 8-hour days; 60% of live workers migrate across cities at
    every day boundary (``relocate_span="world"``), 15% churn overnight.
    Mid-stream relocations can target already-assigned workers (no-ops),
    so the simulator view is the arrival/publish/expiry projection."""
    base, log = synthetic_stream(
        num_workers=55, num_tasks=65, duration_hours=8.0, days=3,
        area_km=12.0, valid_hours=3.0, reachable_km=5.0, clusters=3,
        relocate_fraction=0.6, overnight_churn_fraction=0.15,
        relocate_span="world", seed=107,
    )
    sim_log, sim_arrivals, sim_tasks = _projected(log)
    return Scenario(
        name="mass_relocation", base=base, log=log, batch_hours=1.0,
        sim_log=sim_log, sim_arrivals=sim_arrivals, sim_tasks=sim_tasks,
        shard_counts=(2, 5),
    )


def churn_heavy() -> Scenario:
    """Aggressive worker churn and task cancellation.

    Patience-based churn is simulator-expressible, so the simulator view
    keeps the full arrival/publish/expiry stream and both engines run with
    the same ``patience_hours``; the explicit churn/cancel events are
    exercised by the stream-side differentials.
    """
    base, log = synthetic_stream(
        num_workers=50, num_tasks=60, duration_hours=24.0, area_km=20.0,
        valid_hours=4.0, reachable_km=8.0, clusters=2,
        churn_fraction=0.35, cancel_fraction=0.2, seed=109,
    )
    sim_log, sim_arrivals, sim_tasks = _projected(log)
    return Scenario(
        name="churn_heavy", base=base, log=log, batch_hours=1.0,
        sim_log=sim_log, sim_arrivals=sim_arrivals, sim_tasks=sim_tasks,
        patience_hours=3.0, shard_counts=(2, 4),
    )


def quiet_then_burst() -> Scenario:
    """A near-idle morning, then everything publishes inside two hours —
    the admission-control stress shape (rounds suddenly 10x the load)."""
    rng = np.random.default_rng(111)
    count = 45
    events = []
    sim_arrivals = []
    for worker_id in range(count):
        worker = Worker(
            worker_id=worker_id,
            location=Point(float(rng.uniform(0, 18)), float(rng.uniform(0, 18))),
            reachable_km=10.0,
        )
        arrival = float(rng.uniform(0.0, 10.0))
        events.append(WorkerArrivalEvent(time=arrival, worker=worker))
        sim_arrivals.append(WorkerArrival(worker=worker, arrival_time=arrival))
    tasks = []
    for task_id in range(55):
        burst = rng.random() < 0.85
        tasks.append(Task(
            task_id=task_id,
            location=Point(float(rng.uniform(0, 18)), float(rng.uniform(0, 18))),
            publication_time=float(
                rng.uniform(10.0, 12.0) if burst else rng.uniform(0.0, 10.0)
            ),
            valid_hours=3.0,
        ))
    events.extend(TaskPublishEvent(time=t.publication_time, task=t) for t in tasks)
    events.extend(expiry_events(tasks))
    log = EventLog(events)
    base = SCInstance(
        name="quiet-burst", current_time=0.0, tasks=[], workers=[],
        histories={}, social_edges=[], all_worker_ids=tuple(range(count)),
    )
    return Scenario(
        name="quiet_then_burst", base=base, log=log, batch_hours=0.5,
        sim_log=log, sim_arrivals=sim_arrivals, sim_tasks=tasks,
        shard_counts=(1, 2),
    )


#: The scenario matrix, by name (≥ 5 classes — the acceptance floor).
SCENARIOS = {
    factory.__name__: factory
    for factory in (
        dense_blob,
        multi_city,
        rush_hour_relocation,
        mass_relocation,
        churn_heavy,
        quiet_then_burst,
    )
}
