"""Live runtime state: the worker and task pools between rounds.

:class:`StreamState` is the mutable heart of the streaming runtime.  It
keeps the online worker pool and the open task pool and applies drained
events to them.  Rounds are prepared and solved by
:class:`~repro.stream.runtime.ShardExecutor`, which routes the pools to
shards and prepares each shard from the pools' columns; the state layer
retires the matched pairs (:meth:`retire_pairs`).

Both pools are columnar (:class:`EntityPool`): each live entity owns a
slot in arrays of ids, attribute rows (location plus radius/speed or
deadline), arrival/publication times and the global index of the log row
that set its current state, which is what checkpoints store (see
:mod:`repro.stream.checkpoint`).  Slots freed by retirement are reused, so the
arrays are as large as the largest pool seen.  The
:class:`~repro.entities.Worker` / :class:`~repro.entities.Task` payloads
stay in a per-slot list for the API edge.

Pool mutation semantics mirror
:class:`~repro.framework.online.OnlineSimulator` exactly (re-arrival
replaces the pooled worker, expiry and churn are strict-inequality sweeps),
which is what makes the runtime's golden cross-check bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from operator import attrgetter

import numpy as np

from repro.assignment.base import ENTITY_KINDS, EntityColumns, entity_columns
from repro.data.instance import SCInstance
from repro.influence import VenueEntropy
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


class EntityPool(Mapping):
    """Live workers or tasks in slot arrays with a free list.

    Per slot: ``ids``, ``attrs`` (one row of the kind's attribute
    function), ``since`` (arrival or publication time), ``events`` (the
    recorded log index), ``live`` and ``payloads`` (the entity objects,
    an object array).  Dead slots keep stale values, masked by ``live``;
    retired slots are reused, so the arrays stay within twice the largest
    pool.  ``kind`` is ``"worker"`` or ``"task"`` (see
    :data:`~repro.assignment.base.ENTITY_KINDS`); task rows read their
    location entropy from ``venue_visits``, once per venue.

    As a :class:`~collections.abc.Mapping` the pool reads ``entity id ->
    payload`` and iterates in ascending id order.
    """

    def __init__(self, kind: str, venue_visits: Mapping) -> None:
        self.kind = kind
        self._entropy = VenueEntropy(venue_visits)
        _, self._attributes, width = ENTITY_KINDS[kind]
        self.ids = np.zeros(0, dtype=np.int64)
        self.attrs = np.zeros((0, width))
        self.since = np.zeros(0)
        self.events = np.zeros(0, dtype=np.int64)
        self.live = np.zeros(0, dtype=bool)
        self.payloads = np.empty(0, dtype=object)
        self._size = 0  # slots ever handed out
        self._slot_of: dict[int, int] = {}
        self._free: list[int] = []

    # ------------------------------------------------------------- mapping
    def __getitem__(self, entity_id: int):
        return self.payloads[self._slot_of[entity_id]]

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids[self.slots_by_id()].tolist())

    def by_id(self, column: str) -> dict:
        """``{entity id: value}`` of column ``"since"`` or ``"events"``
        over the live slots, by ascending id."""
        slots = self.slots_by_id()
        return dict(zip(self.ids[slots].tolist(), getattr(self, column)[slots].tolist()))

    # ------------------------------------------------------------- columns
    def slots_by_id(self, where: np.ndarray | None = None) -> np.ndarray:
        """The live slots (where ``where`` holds, if given), ordered by
        ascending entity id."""
        slots = np.flatnonzero(self.live if where is None else self.live & where)
        return slots[np.argsort(self.ids[slots], kind="stable")]

    def columns(self, slots: np.ndarray) -> EntityColumns:
        """The round columns of ``slots``."""
        return EntityColumns(self.ids[slots], self.attrs[slots])

    def slots_of(self, entity_ids: Iterable[int]) -> np.ndarray:
        """The slot of each pooled id, in the order given."""
        return np.fromiter(map(self._slot_of.__getitem__, entity_ids), dtype=np.int64)

    # ------------------------------------------------------------ mutation
    def add(self, entity_id: int, payload, since: float | None, event: int) -> None:
        """Pool ``payload`` under ``entity_id``, replacing a pooled one;
        ``since=None`` keeps the pooled entity's time."""
        slot = self._slot_of.get(entity_id)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = self._size
                self._size += 1
                if slot == self.payloads.size:
                    self._grow()
            self._slot_of[entity_id] = slot
            self.ids[slot] = entity_id
            self.live[slot] = True
        if since is not None:
            self.since[slot] = since
        self.attrs[slot] = self._attributes(payload, self._entropy)
        self.events[slot] = event
        self.payloads[slot] = payload

    def remove(self, entity_id: int) -> bool:
        """Retire ``entity_id``; False if it was not pooled."""
        slot = self._slot_of.pop(entity_id, None)
        if slot is None:
            return False
        self.live[slot] = False
        self.payloads[slot] = None
        self._free.append(slot)
        return True

    def remove_slots(self, slots: np.ndarray) -> None:
        """Retire the entities in ``slots`` (distinct live slots)."""
        self.live[slots] = False
        self.payloads[slots] = None
        for entity_id in self.ids[slots].tolist():
            del self._slot_of[entity_id]
        self._free.extend(slots.tolist())

    def load(self, payloads: Sequence, since: np.ndarray, events: np.ndarray) -> None:
        """Fill an empty pool from checkpointed columns: ``payloads[i]``
        (distinct ids) with ``since[i]`` and ``events[i]``, in slot ``i``."""
        columns = entity_columns(self.kind, payloads, self._entropy.venue_visits)
        self.ids, self.attrs = columns.ids, columns.attrs
        self.since = np.array(since, dtype=float)
        self.events = np.array(events, dtype=np.int64)
        self._size = len(payloads)
        self.live = np.ones(self._size, dtype=bool)
        self.payloads = np.fromiter(payloads, dtype=object, count=self._size)
        self._slot_of = dict(zip(self.ids.tolist(), range(self._size)))
        self._free = []

    def _grow(self) -> None:
        capacity = max(16, 2 * self.payloads.size)
        for name in ("ids", "attrs", "since", "events", "live", "payloads"):
            column = getattr(self, name)
            grown = (np.empty if column.dtype == object else np.zeros)(
                (capacity,) + column.shape[1:], dtype=column.dtype
            )
            grown[: column.shape[0]] = column
            setattr(self, name, grown)


class StreamState:
    """Mutable pools between assignment rounds.

    Parameters
    ----------
    base_instance:
        Supplies the immutable context every round instance shares —
        histories, social network, venue visits, ``all_worker_ids``.
    incremental:
        When True, rounds are prepared from the pools' columns through
        :class:`~repro.assignment.RoundState`; False rebuilds each round
        from the entity objects (the regression reference, exactly as in
        the online simulator).

    ``workers`` holds ``(x, y, reachable_km, speed_kmh)`` rows and
    ``since`` = arrival time; ``tasks`` holds ``(x, y, expiry_time,
    location entropy)`` rows and ``since`` = publication time.
    """

    def __init__(self, base_instance: SCInstance, incremental: bool = True) -> None:
        self.base_instance = base_instance
        self.incremental = incremental
        self.workers = EntityPool("worker", base_instance.venue_visits)
        self.tasks = EntityPool("task", base_instance.venue_visits)

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
            self.workers.add(entity_id, worker, time, event)
        elif kind == KIND_PUBLISH:
            self.tasks.add(entity_id, task, time, event)
        elif kind == KIND_CANCEL or kind == KIND_EXPIRY:
            return self.tasks.remove(entity_id), False
        elif kind == KIND_CHURN:
            return False, self.workers.remove(entity_id)
        elif kind == KIND_RELOCATE:
            # A live worker's location update: the pooled worker object is
            # replaced (arrival time unchanged — the wait keeps accruing)
            # and records the relocation row as its event index.
            if entity_id in self.workers:
                self.workers.add(entity_id, worker, None, event)
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
        expired = churned = cancelled = relocated = 0
        for position, kind, entity_id, time in zip(
            range(start, stop),
            log.kinds[start:stop].tolist(),
            log.entity_ids[start:stop].tolist(),
            log.times[start:stop].tolist(),
        ):
            worker = task = None
            if kind == KIND_ARRIVAL or kind == KIND_RELOCATE:
                worker = log.worker_at(position)
            elif kind == KIND_PUBLISH:
                task = log.task_at(position)
                if admission is not None and not admission.offer(
                    offset + position, task, time
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
                time,
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
        """Remove and return open tasks whose deadline strictly passed,
        in ascending id order.

        The safety net behind explicit :class:`TaskExpiryEvent`\\ s: logs
        built by :func:`~repro.stream.events.log_from_arrivals` carry one
        expiry event per task (making this sweep find nothing), but
        hand-built logs without them still expire correctly.
        """
        pool = self.tasks
        slots = pool.slots_by_id(pool.attrs[:, 2] < now)
        expired = pool.payloads[slots].tolist()
        pool.remove_slots(slots)
        return expired

    def churn_workers(self, now: float, patience_hours: float | None) -> list[int]:
        """Remove and return the ids of workers whose patience strictly ran
        out, ascending."""
        if patience_hours is None:
            return []
        pool = self.workers
        slots = pool.slots_by_id(now - pool.since > patience_hours)
        churned = pool.ids[slots].tolist()
        pool.remove_slots(slots)
        return churned

    # --------------------------------------------------------- checkpoints
    def pool_arrays(self) -> dict[str, np.ndarray]:
        """The pools as checkpoints store them: each pooled entity's
        recorded event index and arrival/publication time, by ascending
        id."""
        workers, tasks = self.workers, self.tasks
        worker_slots, task_slots = workers.slots_by_id(), tasks.slots_by_id()
        return {
            "pool_worker_events": workers.events[worker_slots],
            "pool_worker_arrived_at": workers.since[worker_slots],
            "pool_task_events": tasks.events[task_slots],
            "pool_task_published_at": tasks.since[task_slots],
        }

    def load_pool_arrays(self, arrays, log: EventLog) -> None:
        """Refill empty pools from :meth:`pool_arrays` output, rebuilding
        each payload from its recorded row of ``log``."""
        worker_events = np.asarray(arrays["pool_worker_events"])
        self.workers.load(
            [log.worker_at(event) for event in worker_events.tolist()],
            arrays["pool_worker_arrived_at"], worker_events,
        )
        task_events = np.asarray(arrays["pool_task_events"])
        self.tasks.load(
            [log.task_at(event) for event in task_events.tolist()],
            arrays["pool_task_published_at"], task_events,
        )

    # -------------------------------------------------------------- rounds
    def retire_pairs(
        self, assignment: Assignment, now: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Retire matched pairs from the pools; returns ``(waits, events)``.

        ``waits`` is a ``(pairs, 2)`` float array of each pair's
        ``(task_wait, worker_wait)`` hours (publication/arrival to ``now``)
        and ``events`` a ``(pairs, 2)`` int64 array of each pair's recorded
        ``(worker_event, task_event)`` log indices, both in pair order,
        read off the pool columns in bulk.
        """
        pairs = assignment.pairs
        worker_slots = self.workers.slots_of(map(_WORKER_ID, pairs))
        task_slots = self.tasks.slots_of(map(_TASK_ID, pairs))
        waits = np.column_stack((
            now - self.tasks.since[task_slots], now - self.workers.since[worker_slots]
        ))
        events = np.column_stack((
            self.workers.events[worker_slots], self.tasks.events[task_slots]
        ))
        self.workers.remove_slots(worker_slots)
        self.tasks.remove_slots(task_slots)
        return waits, events


_WORKER_ID = attrgetter("worker.worker_id")
_TASK_ID = attrgetter("task.task_id")
