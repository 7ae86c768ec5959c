"""Live runtime state: the worker and task pools between rounds.

:class:`StreamState` is the mutable heart of the streaming runtime.  It
keeps the online worker pool and the open task pool and applies drained
events to them.  Rounds are prepared and solved by
:class:`~repro.stream.runtime.ShardExecutor`, which routes the pools to
shards and keeps the incremental :class:`~repro.assignment.RoundState`
caches per shard; the state layer retires the matched pairs
(:meth:`retire_pairs`).

Beside each pooled entity the state records the global index of the log
row that set its current state, which is what checkpoints store (see
:mod:`repro.stream.checkpoint`).

Pool mutation semantics mirror
:class:`~repro.framework.online.OnlineSimulator` exactly (re-arrival
replaces the pooled worker, expiry and churn are strict-inequality sweeps),
which is what makes the runtime's golden cross-check bit-identical.
"""

from __future__ import annotations

from repro.data.instance import SCInstance
from repro.entities import Assignment, Task, Worker
from repro.stream.events import (
    KIND_ARRIVAL,
    KIND_CANCEL,
    KIND_CHURN,
    KIND_EXPIRY,
    KIND_PUBLISH,
    KIND_RELOCATE,
    EventLog,
)


class StreamState:
    """Mutable pools between assignment rounds.

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
    """

    def __init__(self, base_instance: SCInstance, incremental: bool = True) -> None:
        self.base_instance = base_instance
        self.incremental = incremental
        self.workers: dict[int, Worker] = {}
        self.tasks: dict[int, Task] = {}
        self.arrived_at: dict[int, float] = {}
        self.published_at: dict[int, float] = {}
        #: id -> global index of the log row that set the pooled entity's
        #: current state (same keys as :attr:`workers` / :attr:`tasks`).
        self.worker_events: dict[int, int] = {}
        self.task_events: dict[int, int] = {}

    # -------------------------------------------------------------- pools
    @property
    def num_online_workers(self) -> int:
        """Workers currently online."""
        return len(self.workers)

    @property
    def num_open_tasks(self) -> int:
        """Tasks currently open."""
        return len(self.tasks)

    def apply_kind(
        self,
        kind: int,
        time: float,
        entity_id: int,
        event: int,
        worker: Worker | None = None,
        task: Task | None = None,
    ) -> tuple[bool, bool]:
        """Apply one kind-coded event to the pools.

        ``event`` is the row's global log index, recorded for the entity
        whose state the row sets; ``worker``/``task`` is that row's payload.
        Returns ``(removed_task, removed_worker)`` — whether the event
        actually retired a pooled entity (expiry/cancel/churn of something
        no longer pooled is a no-op), so callers count outcomes from the
        single dispatch that produced them.
        """
        if kind == KIND_ARRIVAL:
            self.workers[entity_id] = worker
            self.arrived_at[entity_id] = time
            self.worker_events[entity_id] = event
        elif kind == KIND_PUBLISH:
            self.tasks[entity_id] = task
            self.published_at[entity_id] = time
            self.task_events[entity_id] = event
        elif kind == KIND_CANCEL or kind == KIND_EXPIRY:
            pooled = self.tasks.pop(entity_id, None)
            if pooled is not None:
                del self.published_at[entity_id]
                del self.task_events[entity_id]
                return True, False
        elif kind == KIND_CHURN:
            if self.workers.pop(entity_id, None) is not None:
                del self.arrived_at[entity_id]
                del self.worker_events[entity_id]
                return False, True
        elif kind == KIND_RELOCATE:
            # A live worker's location update: the pooled worker object is
            # replaced (arrival time unchanged — the wait keeps accruing).
            # RoundState recomputes the worker's row because the same id
            # now carries a payload unequal to its cached Worker.
            if entity_id in self.workers:
                self.workers[entity_id] = worker
                self.worker_events[entity_id] = event
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

        ``offset`` maps slab-local positions to global ones: when the
        runtime drains a segmented log slab-by-slab, ``start``/``stop`` are
        slab-local, but backlog entries and recorded event indices must
        carry global cursor positions so deferred re-admission and
        checkpoints stay exact across segment seams.
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
                offset + position,
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
            del self.published_at[task.task_id]
            del self.task_events[task.task_id]
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
            del self.arrived_at[worker_id]
            del self.worker_events[worker_id]
        return churned

    # -------------------------------------------------------------- rounds
    def retire_pairs(
        self, assignment: Assignment, now: float
    ) -> tuple[list[tuple[float, float]], list[tuple[int, int]]]:
        """Retire matched pairs from the pools; returns ``(waits, events)``.

        ``waits`` holds each pair's ``(task_wait, worker_wait)`` hours
        (publication/arrival to ``now``) and ``events`` each pair's
        recorded ``(worker_event, task_event)`` log indices, both in pair
        order.  Every retirement path (assign, expire, cancel, churn)
        clears the pools, the timestamp maps and the
        event-index maps in this layer, so they stay consistent.
        """
        waits: list[tuple[float, float]] = []
        events: list[tuple[int, int]] = []
        for pair in assignment:
            worker_id, task_id = pair.worker.worker_id, pair.task.task_id
            del self.workers[worker_id]
            del self.tasks[task_id]
            waits.append(
                (
                    now - self.published_at.pop(task_id),
                    now - self.arrived_at.pop(worker_id),
                )
            )
            events.append((self.worker_events.pop(worker_id), self.task_events.pop(task_id)))
        return waits, events
