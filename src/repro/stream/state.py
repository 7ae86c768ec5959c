"""Live runtime state: worker/task pools with a live spatial index.

:class:`StreamState` is the mutable heart of the streaming runtime.  It
keeps the online worker pool and the open task pool, applies drained events
to them, and maintains a :class:`~repro.geo.GridIndex` over the open tasks,
updated on every publish/assign/expire/cancel, so "which tasks could this
worker reach" is an output-sensitive lookup at any instant
(:meth:`tasks_near`) instead of a pool scan.  Rounds are prepared and
solved by :class:`~repro.stream.runtime.ShardExecutor`, which keeps the
incremental :class:`~repro.assignment.RoundState` caches per shard; the
state layer retires the matched pairs (:meth:`retire_pairs`).

Pool mutation semantics mirror
:class:`~repro.framework.online.OnlineSimulator` exactly (re-arrival
replaces the pooled worker, expiry and churn are strict-inequality sweeps),
which is what makes the runtime's golden cross-check bit-identical.
"""

from __future__ import annotations

from typing import Iterator

from repro.data.instance import SCInstance
from repro.entities import Assignment, Task, Worker
from repro.geo import GridIndex, Point
from repro.stream.events import (
    KIND_ARRIVAL,
    KIND_CANCEL,
    KIND_CHURN,
    KIND_EXPIRY,
    KIND_PUBLISH,
    KIND_RELOCATE,
    EventLog,
    StreamEvent,
    TaskCancelEvent,
    TaskExpiryEvent,
    TaskPublishEvent,
    WorkerArrivalEvent,
    WorkerChurnEvent,
    WorkerRelocateEvent,
)


class StreamState:
    """Mutable pools + incremental indexes between assignment rounds.

    Parameters
    ----------
    base_instance:
        Supplies the immutable context every round instance shares —
        histories, social network, venue visits, ``all_worker_ids``.
    incremental:
        When True, rounds are prepared through persistent
        :class:`~repro.assignment.RoundState` caches; False rebuilds each
        round from scratch (the regression reference, exactly as in the
        online simulator).
    index_cell_km:
        Cell size of the live task index; defaults to the paper's 25 km
        reachable radius so a range query touches O(9) cells.
    """

    def __init__(
        self,
        base_instance: SCInstance,
        incremental: bool = True,
        index_cell_km: float = 25.0,
    ) -> None:
        self.base_instance = base_instance
        self.incremental = incremental
        self.workers: dict[int, Worker] = {}
        self.tasks: dict[int, Task] = {}
        self.arrived_at: dict[int, float] = {}
        self.published_at: dict[int, float] = {}
        self.task_index: GridIndex[int] = GridIndex(index_cell_km)
        self._index_cell_km = index_cell_km

    # -------------------------------------------------------------- pools
    @property
    def num_online_workers(self) -> int:
        """Workers currently online."""
        return len(self.workers)

    @property
    def num_open_tasks(self) -> int:
        """Tasks currently open."""
        return len(self.tasks)

    def _index_remove(self, task: Task) -> None:
        self.task_index.remove(task.location, task.task_id)

    def apply(self, event: StreamEvent) -> tuple[bool, bool]:
        """Apply one drained event to the pools and the live index.

        Returns ``(removed_task, removed_worker)`` — whether the event
        actually retired a pooled entity (expiry/cancel/churn of something
        no longer pooled is a no-op), so callers count outcomes from the
        single dispatch that produced them.
        """
        if isinstance(event, WorkerArrivalEvent):
            return self.apply_kind(
                KIND_ARRIVAL, event.time, event.worker.worker_id, worker=event.worker
            )
        if isinstance(event, TaskPublishEvent):
            return self.apply_kind(
                KIND_PUBLISH, event.time, event.task.task_id, task=event.task
            )
        if isinstance(event, TaskCancelEvent):
            return self.apply_kind(KIND_CANCEL, event.time, event.task_id)
        if isinstance(event, TaskExpiryEvent):
            return self.apply_kind(KIND_EXPIRY, event.time, event.task_id)
        if isinstance(event, WorkerChurnEvent):
            return self.apply_kind(KIND_CHURN, event.time, event.worker_id)
        if isinstance(event, WorkerRelocateEvent):
            pooled = self.workers.get(event.worker_id)
            if pooled is None:
                return False, False
            return self.apply_kind(
                KIND_RELOCATE,
                event.time,
                event.worker_id,
                worker=pooled.moved_to(event.location),
            )
        raise TypeError(f"unsupported stream event {event!r}")

    def apply_kind(
        self,
        kind: int,
        time: float,
        entity_id: int,
        worker: Worker | None = None,
        task: Task | None = None,
    ) -> tuple[bool, bool]:
        """Kind-coded :meth:`apply` — the columnar replay entry point."""
        if kind == KIND_ARRIVAL:
            self.workers[entity_id] = worker
            self.arrived_at[entity_id] = time
        elif kind == KIND_PUBLISH:
            previous = self.tasks.get(entity_id)
            if previous is not None:
                self._index_remove(previous)
            self.tasks[entity_id] = task
            self.published_at[entity_id] = time
            self.task_index.insert(task.location, entity_id)
        elif kind == KIND_CANCEL or kind == KIND_EXPIRY:
            pooled = self.tasks.pop(entity_id, None)
            if pooled is not None:
                self._index_remove(pooled)
                self.published_at.pop(entity_id, None)
                return True, False
        elif kind == KIND_CHURN:
            if self.workers.pop(entity_id, None) is not None:
                self.arrived_at.pop(entity_id, None)
                return False, True
        elif kind == KIND_RELOCATE:
            # A live worker's location update: the pooled worker object is
            # replaced (arrival time unchanged — the wait keeps accruing).
            # The task grid index holds tasks only, so nothing spatial moves
            # here; the RoundState rectangles invalidate themselves because
            # the same id now maps to a different (frozen) Worker.
            if entity_id in self.workers:
                self.workers[entity_id] = worker
        else:  # pragma: no cover - new event kinds must be wired explicitly
            raise TypeError(f"unsupported stream event kind {kind!r}")
        return False, False

    def apply_log_slice(
        self, log: EventLog, start: int, stop: int, admission=None, offset: int = 0
    ) -> tuple[int, int, int, int]:
        """Apply log rows ``[start, stop)`` straight from the columns.

        Returns ``(expired, churned, cancelled, relocated)`` counts; the
        drained-event count is simply ``stop - start``.  Payload objects
        (workers/tasks) come from the log's side-tables — no per-event
        wrappers are materialized.

        ``admission`` is an optional gate (duck-typed —
        :class:`~repro.stream.runtime.AdmissionController`): publish rows
        are offered to it first (``offer(position, task, time)`` returning
        False diverts the task away from the pool), and expiry/cancel rows
        first discard any backlog entry (``discard(task_id)``), counting
        the retirement even though the task never reached the pool.  With
        ``admission=None`` the path is exactly the ungated replay.

        ``offset`` shifts the positions *offered to the gate* (only): when
        the runtime drains a segmented log slab-by-slab, ``start``/``stop``
        are slab-local but backlog entries must carry global cursor
        positions so deferred re-admission and checkpoints stay exact
        across segment seams.
        """
        kinds = log.kinds
        times = log.times
        entities = log.entity_ids
        expired = churned = cancelled = relocated = 0
        for position in range(start, stop):
            kind = int(kinds[position])
            entity_id = int(entities[position])
            worker = task = None
            if kind == KIND_ARRIVAL or kind == KIND_RELOCATE:
                worker = log.worker_at(position)
            elif kind == KIND_PUBLISH:
                task = log.task_at(position)
                if admission is not None and not admission.offer(
                    offset + position, task, float(times[position])
                ):
                    continue
            elif admission is not None and kind in (KIND_EXPIRY, KIND_CANCEL):
                if admission.discard(entity_id):
                    if kind == KIND_EXPIRY:
                        expired += 1
                    else:
                        cancelled += 1
                    continue
            if kind == KIND_RELOCATE and entity_id in self.workers:
                relocated += 1
            removed_task, removed_worker = self.apply_kind(
                kind,
                float(times[position]),
                entity_id,
                worker=worker,
                task=task,
            )
            if removed_task:
                if kind == KIND_EXPIRY:
                    expired += 1
                elif kind == KIND_CANCEL:
                    cancelled += 1
            if removed_worker and kind == KIND_CHURN:
                churned += 1
        return expired, churned, cancelled, relocated

    # -------------------------------------------------------------- sweeps
    def expire_tasks(self, now: float) -> list[Task]:
        """Remove and return open tasks whose deadline strictly passed.

        The safety net behind explicit :class:`TaskExpiryEvent`\\ s: logs
        built by :func:`~repro.stream.events.log_from_arrivals` carry one
        expiry event per task (making this sweep find nothing), but
        hand-built logs without them still expire correctly.
        """
        expired = [task for task in self.tasks.values() if task.expiry_time < now]
        for task in expired:
            del self.tasks[task.task_id]
            self._index_remove(task)
            self.published_at.pop(task.task_id, None)
        return expired

    def churn_workers(self, now: float, patience_hours: float | None) -> list[int]:
        """Remove and return workers whose patience strictly ran out."""
        if patience_hours is None:
            return []
        churned = [
            worker_id
            for worker_id, since in self.arrived_at.items()
            if worker_id in self.workers and now - since > patience_hours
        ]
        for worker_id in churned:
            del self.workers[worker_id]
            self.arrived_at.pop(worker_id, None)
        return churned

    # ------------------------------------------------------------- queries
    def tasks_near(self, center: Point, radius_km: float) -> Iterator[Task]:
        """Open tasks within ``radius_km`` of ``center`` (live index)."""
        for _, task_id in self.task_index.query_radius(center, radius_km):
            yield self.tasks[task_id]

    # -------------------------------------------------------------- rounds
    def retire_pairs(
        self, assignment: Assignment, now: float
    ) -> list[tuple[float, float]]:
        """Retire matched pairs from the pools; returns per-pair waits.

        The waits are each pair's ``(task_wait, worker_wait)`` hours
        (publication/arrival to ``now``), in pair order.  Every retirement
        path (assign, expire, cancel, churn) clears the pools, the live
        index and the timestamp maps in this layer, so they stay
        consistent.
        """
        waits: list[tuple[float, float]] = []
        for pair in assignment:
            del self.workers[pair.worker.worker_id]
            task = self.tasks.pop(pair.task.task_id)
            self._index_remove(task)
            waits.append(
                (
                    now - self.published_at.pop(pair.task.task_id),
                    now - self.arrived_at.pop(pair.worker.worker_id),
                )
            )
        return waits
