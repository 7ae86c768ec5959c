"""Online (batched-arrival) task assignment over one day (extension).

The paper's protocol states that "a worker is online until the worker is
assigned a task" and that tasks become available at their publication time;
the day-granularity :class:`~repro.framework.simulator.Simulator` collapses
this into one assignment round per day.  This module plays the day out in
time order: arrivals enter the pools batch by batch, each batch triggers one
assignment round, assigned workers leave, unassigned tasks persist until
they expire, and unassigned workers optionally churn out after a patience
window.

The influence components are fitted once from history (they do not depend
on the intra-day arrival order), so the online loop reuses one
:class:`~repro.influence.InfluenceModel` across rounds.  Each round is
prepared from the pools at round time alone: a
:class:`~repro.assignment.RoundState` reads the round's entities as
attribute columns, enumerates its feasible pairs on the grid and fills
its influence matrix in one call.

.. note::
   The event-driven :class:`~repro.stream.StreamRuntime` is a strict
   superset of this simulator: configured with a
   :class:`~repro.stream.TimeWindowTrigger` over a
   :func:`~repro.stream.log_from_arrivals` event log it reproduces
   :meth:`OnlineSimulator.run` bit-identically (a regression-tested golden
   cross-check), and adds count/hybrid/latency-adaptive micro-batching,
   churn/cancellation/relocation events, multi-day replay, latency-budget
   admission control, wait/latency metrics, and
   checkpoint/replay.  This module remains the compact reference
   implementation the streaming runtime is pinned against — the scenario
   differential matrix in ``tests/scenarios/`` cross-checks every
   scenario class against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.assignment.base import Assigner, PreparedInstance, RoundState
from repro.data.dataset import CheckInDataset
from repro.data.instance import InstanceBuilder, SCInstance
from repro.entities import Assignment, Task, Worker
from repro.exceptions import DataError
from repro.influence import InfluenceModel


@dataclass(frozen=True)
class WorkerArrival:
    """A worker together with the hour they come online."""

    worker: Worker
    arrival_time: float


@dataclass(frozen=True)
class OnlineStep:
    """Outcome of one batch round.

    Attributes
    ----------
    time:
        The round's assignment time (hours since dataset epoch).
    online_workers / open_tasks:
        Pool sizes *before* the round's assignment.
    assigned:
        Pairs matched in this round.
    expired_tasks:
        Tasks that reached their deadline unassigned during this batch.
    churned_workers:
        Workers who exceeded the patience window and left unassigned.
    cpu_seconds:
        Wall-clock cost of this round's assignment computation.
    """

    time: float
    online_workers: int
    open_tasks: int
    assigned: int
    expired_tasks: int
    churned_workers: int
    cpu_seconds: float


@dataclass
class OnlineResult:
    """Aggregate outcome of an online run."""

    steps: list[OnlineStep] = field(default_factory=list)
    assignment: Assignment = field(default_factory=Assignment)

    @property
    def total_assigned(self) -> int:
        """Tasks assigned over the whole run."""
        return len(self.assignment)

    @property
    def total_expired(self) -> int:
        """Tasks that expired unassigned."""
        return sum(step.expired_tasks for step in self.steps)

    @property
    def total_churned(self) -> int:
        """Workers that left unassigned (patience exceeded)."""
        return sum(step.churned_workers for step in self.steps)

    @property
    def total_cpu_seconds(self) -> float:
        """Summed assignment CPU time across rounds."""
        return sum(step.cpu_seconds for step in self.steps)


def day_arrivals(
    dataset: CheckInDataset,
    day: int,
    reachable_km: float = 25.0,
    speed_kmh: float = 5.0,
    builder: InstanceBuilder | None = None,
) -> list[WorkerArrival]:
    """Worker arrivals for a day: each active user comes online at their
    first check-in of the day, located as the day-instance builder locates
    them (most recent prior check-in, else that first check-in).

    ``builder`` reuses a caller's :class:`InstanceBuilder` (and with it the
    searchsorted day index, which is expensive to rebuild); it must have
    been constructed with the same ``reachable_km``/``speed_kmh``.
    Multi-day callers pass one builder for the whole horizon.
    """
    day_checkins = dataset.checkins_on_day(day)
    if not day_checkins:
        raise DataError(f"day {day} has no check-ins in {dataset.name!r}")
    day_start = 24.0 * day
    first_seen: dict[int, tuple[float, Worker]] = {}
    if builder is None:
        builder = InstanceBuilder(
            dataset, reachable_km=reachable_km, speed_kmh=speed_kmh
        )
    for checkin in day_checkins:
        if checkin.user_id in first_seen:
            continue
        location = builder.worker_location_at(checkin.user_id, day_start) or checkin.location
        first_seen[checkin.user_id] = (
            checkin.time,
            Worker(
                worker_id=checkin.user_id,
                location=location,
                reachable_km=reachable_km,
                speed_kmh=speed_kmh,
            ),
        )
    return sorted(
        (WorkerArrival(worker=w, arrival_time=t) for t, w in first_seen.values()),
        key=lambda a: (a.arrival_time, a.worker.worker_id),
    )


class OnlineSimulator:
    """Plays one day of arrivals through repeated assignment rounds.

    Parameters
    ----------
    assigner:
        The assignment algorithm run at every batch boundary.
    influence_model:
        The fitted influence model shared by all rounds (fit it from the
        same day's :class:`~repro.data.SCInstance` with the DITA pipeline).
    batch_hours:
        Round spacing; smaller batches approximate instant matching.
    patience_hours:
        If set, an unassigned worker goes offline this many hours after
        arriving; ``None`` reproduces the paper's "online until assigned".
    incremental:
        When True (default) rounds are prepared through
        :class:`~repro.assignment.RoundState`, from attribute columns and
        the grid pair enumeration.  False prepares every round through
        :class:`~repro.assignment.PreparedInstance`'s dense feasibility —
        the reference path the column one is regression-tested against.
    """

    def __init__(
        self,
        assigner: Assigner,
        influence_model: InfluenceModel | None,
        batch_hours: float = 1.0,
        patience_hours: float | None = None,
        incremental: bool = True,
    ) -> None:
        if batch_hours <= 0:
            raise ValueError(f"batch_hours must be positive, got {batch_hours}")
        if patience_hours is not None and patience_hours < 0:
            raise ValueError(f"patience_hours must be non-negative, got {patience_hours}")
        self.assigner = assigner
        self.influence_model = influence_model
        self.batch_hours = batch_hours
        self.patience_hours = patience_hours
        self.incremental = incremental

    def run(
        self,
        base_instance: SCInstance,
        arrivals: list[WorkerArrival],
        end_time: float | None = None,
    ) -> OnlineResult:
        """Run the online loop.

        Parameters
        ----------
        base_instance:
            Supplies the task stream (publication times and deadlines),
            histories, social network and venue visits; its worker list is
            ignored in favour of ``arrivals``.
        arrivals:
            Time-ordered worker arrivals (see :func:`day_arrivals`).
        end_time:
            Last round time; defaults to the latest task deadline.
        """
        tasks = sorted(base_instance.tasks, key=lambda s: s.publication_time)
        if end_time is None:
            deadlines = [s.expiry_time for s in tasks]
            end_time = max(deadlines, default=base_instance.current_time)
        arrivals = sorted(arrivals, key=lambda a: a.arrival_time)

        result = OnlineResult()
        round_state = RoundState(self.influence_model)
        online: dict[int, Worker] = {}
        arrived_at: dict[int, float] = {}
        open_tasks: dict[int, Task] = {}
        next_arrival = 0
        next_task = 0

        current = min(
            (a.arrival_time for a in arrivals),
            default=base_instance.current_time,
        )
        if tasks:
            current = min(current, tasks[0].publication_time)

        while True:
            # Admit arrivals and publications up to the round time.
            while next_arrival < len(arrivals) and arrivals[next_arrival].arrival_time <= current:
                arrival = arrivals[next_arrival]
                online[arrival.worker.worker_id] = arrival.worker
                arrived_at[arrival.worker.worker_id] = arrival.arrival_time
                next_arrival += 1
            while next_task < len(tasks) and tasks[next_task].publication_time <= current:
                open_tasks[tasks[next_task].task_id] = tasks[next_task]
                next_task += 1

            # Expire tasks whose deadline passed before this round.
            expired = [s for s in open_tasks.values() if s.expiry_time < current]
            for task in expired:
                del open_tasks[task.task_id]

            # Churn out workers whose patience ran out.
            churned: list[int] = []
            if self.patience_hours is not None:
                churned = [
                    worker_id
                    for worker_id, since in arrived_at.items()
                    if worker_id in online and current - since > self.patience_hours
                ]
                for worker_id in churned:
                    del online[worker_id]

            pool_workers = len(online)
            pool_tasks = len(open_tasks)
            assigned_count = 0
            elapsed = 0.0
            if online and open_tasks:
                round_instance = base_instance.with_workers(
                    sorted(online.values(), key=lambda w: w.worker_id)
                ).with_tasks(sorted(open_tasks.values(), key=lambda s: s.task_id))
                round_instance.current_time = current
                if self.incremental:
                    prepared = round_state.prepare(round_instance)
                else:
                    prepared = PreparedInstance(round_instance, self.influence_model)
                started = time.perf_counter()
                assignment = self.assigner.assign(prepared)
                elapsed = time.perf_counter() - started
                for pair in assignment:
                    result.assignment.add(pair.task, pair.worker)
                    del online[pair.worker.worker_id]
                    del open_tasks[pair.task.task_id]
                assigned_count = len(assignment)

            result.steps.append(
                OnlineStep(
                    time=current,
                    online_workers=pool_workers,
                    open_tasks=pool_tasks,
                    assigned=assigned_count,
                    expired_tasks=len(expired),
                    churned_workers=len(churned),
                    cpu_seconds=elapsed,
                )
            )

            if current >= end_time:
                break
            current = min(current + self.batch_hours, end_time)

        return result
