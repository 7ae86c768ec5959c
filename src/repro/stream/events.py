"""Typed stream events and the columnar, time-ordered :class:`EventLog`.

The paper's online protocol is a *stream*: workers come online, tasks are
published and later expire, and (beyond the paper) workers may churn out or
tasks be cancelled.  This module gives each of those occurrences a typed
event and merges arbitrary event sources into one deterministic, replayable
log.

Storage model
-------------
The log is **columnar**: one structured numpy array
(:attr:`EventLog.columns` with fields ``time``, ``phase``, ``kind``,
``entity_id``, ``payload``, ``x``, ``y``) plus object payload *side-tables*
holding the :class:`~repro.entities.Worker` / :class:`~repro.entities.Task`
each arrival/publish row introduces.  Building, cursor replay
(:meth:`EventLog.drain_stop`), count scheduling
(:meth:`EventLog.next_count_time`), shard planning
(:meth:`EventLog.cell_keys`) and fingerprinting are array operations; the
per-event dataclass wrappers are materialized lazily, only where object
access is genuinely wanted (``log[i]``, iteration).

Ordering
--------
Events sort by ``(time, phase, entity_id, kind, seq)``.  The phase encodes
the round semantics of :class:`~repro.framework.online.OnlineSimulator`
exactly:

* *admission* phases (arrival < publish < cancel) apply at a round whose
  time ``T`` satisfies ``event.time <= T`` — a worker arriving exactly at a
  round boundary participates in that round;
* *deferred* phases (expiry, churn) apply only when ``time < T`` —
  a task whose deadline coincides with the boundary is still assignable in
  that round (the simulator's strict ``expiry_time < current`` check).

Because the tie-break runs through entity id and kind, simultaneous events
replay in the same order no matter how the sources were interleaved before
the merge — an arrival and a relocation of the same worker at the same
instant deterministically order arrival-first — provided no two *distinct*
events share all of (time, phase, entity id, kind).  Such a degenerate
pair (e.g. the same worker arriving twice at the same instant with
different locations) keeps source order under the stable sort, so streams
that need that case replayable must disambiguate timestamps themselves.

Construction
------------
:meth:`EventLog.merged` heap-merges already-sorted iterables;
:meth:`EventLog.from_columns` builds straight from arrays (no per-event
wrappers at all — the path the high-rate generators use);
:func:`day_stream` turns a :class:`~repro.data.CheckInDataset` day into the
exact event set the batched :class:`OnlineSimulator` plays;
:func:`multi_day_stream` chains several days into one continuous replay
with overnight relocation and churn between them; and
:func:`synthetic_stream` generates Poisson-style arrival/publication streams
(with optional churn, cancellations, spatially separated *clusters* and
multi-day relocation waves) for load tests far beyond the paper's scale.

Relocation
----------
:class:`WorkerRelocateEvent` (kind 5) shares the arrival phase: a live
worker's location update is an admission-time change.  The log synthesizes
the relocated :class:`~repro.entities.Worker` payload at construction by
composing the worker's most recent prior arrival/relocation with the new
coordinates, so every worker row — original or relocated — carries a full
payload: replay applies it directly, :meth:`EventLog.cell_keys` sees the
relocated position (which is how the shard planner's never-split invariant
extends to relocation for free — the layout is planned from *every*
location the log can ever pool), and checkpoints reference it by row index.
A relocation of a worker who is not pooled (already assigned or churned)
applies as a no-op.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.dataset import CheckInDataset
from repro.data.instance import InstanceBuilder, SCInstance
from repro.entities import Task, Worker
from repro.exceptions import DataError
from repro.geo import Point

#: Admission phases: the event applies at round time ``T`` when ``time <= T``.
PHASE_ARRIVAL = 0
PHASE_PUBLISH = 1
PHASE_CANCEL = 2
#: Deferred phases: the event applies only when ``time < T`` (strict), so a
#: deadline exactly on a round boundary does not bind in that round.
PHASE_EXPIRY = 3
PHASE_CHURN = 4

#: First deferred phase — the drain cutoff used by the runtime.
DEFERRED_PHASE = PHASE_EXPIRY

#: Event kinds (the ``kind`` column).  Kinds are stored separately from
#: phases so event classes can share a phase: relocation (kind 5) orders
#: like an arrival — a live worker's location update is an admission.
KIND_ARRIVAL = 0
KIND_PUBLISH = 1
KIND_CANCEL = 2
KIND_EXPIRY = 3
KIND_CHURN = 4
KIND_RELOCATE = 5

#: ``phase`` of each kind, indexed by kind code.
KIND_PHASE = np.array(
    [
        PHASE_ARRIVAL,
        PHASE_PUBLISH,
        PHASE_CANCEL,
        PHASE_EXPIRY,
        PHASE_CHURN,
        PHASE_ARRIVAL,  # relocation admits like an arrival
    ],
    dtype=np.int64,
)

#: The columnar layout: one row per event.  ``payload`` indexes the worker
#: side-table (arrivals) or the task side-table (publishes), -1 otherwise;
#: ``x``/``y`` are the payload location (NaN for rows without one).
EVENT_DTYPE = np.dtype(
    [
        ("time", "<f8"),
        ("phase", "<i8"),
        ("kind", "<i8"),
        ("entity_id", "<i8"),
        ("payload", "<i8"),
        ("x", "<f8"),
        ("y", "<f8"),
    ]
)

_EMPTY_INT = np.zeros(0, dtype=np.int64)

#: Packing offset of :meth:`EventLog.cell_keys`: cell indices must satisfy
#: ``|k| < CELL_OFFSET`` so ``(kx, ky)`` packs into one int64 without
#: overflow ((2 * CELL_OFFSET)**2 < 2**63).
CELL_OFFSET = 2**25


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """Base event: a timestamp plus the ordering phase."""

    time: float

    phase: int = -1  # overridden per subclass

    @property
    def entity_id(self) -> int:
        """The worker/task id the event concerns (tie-break component)."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class WorkerArrivalEvent(StreamEvent):
    """A worker comes online (re-arrival replaces the pooled worker)."""

    worker: Worker = None  # type: ignore[assignment]
    phase: int = PHASE_ARRIVAL

    @property
    def entity_id(self) -> int:
        return self.worker.worker_id


@dataclass(frozen=True, slots=True)
class TaskPublishEvent(StreamEvent):
    """A task becomes available at its publication time."""

    task: Task = None  # type: ignore[assignment]
    phase: int = PHASE_PUBLISH

    @property
    def entity_id(self) -> int:
        return self.task.task_id


@dataclass(frozen=True, slots=True)
class TaskCancelEvent(StreamEvent):
    """The requester withdraws an open task before its deadline."""

    task_id: int = -1
    phase: int = PHASE_CANCEL

    @property
    def entity_id(self) -> int:
        return self.task_id


@dataclass(frozen=True, slots=True)
class TaskExpiryEvent(StreamEvent):
    """A task's deadline passes; no-op if it was assigned or cancelled."""

    task_id: int = -1
    phase: int = PHASE_EXPIRY

    @property
    def entity_id(self) -> int:
        return self.task_id


@dataclass(frozen=True, slots=True)
class WorkerChurnEvent(StreamEvent):
    """A worker goes offline; no-op if already assigned (or never pooled)."""

    worker_id: int = -1
    phase: int = PHASE_CHURN

    @property
    def entity_id(self) -> int:
        return self.worker_id


@dataclass(frozen=True, slots=True)
class WorkerRelocateEvent(StreamEvent):
    """A live worker moves to a new location (multi-day replay).

    Shares the arrival phase — a location update is an admission-time
    change — but, unlike an arrival, carries no full worker payload and is
    a **no-op when the worker is not pooled** (already assigned or churned).
    The log synthesizes the relocated :class:`~repro.entities.Worker`
    payload at construction time by composing the worker's most recent
    arrival/relocation attributes with the new coordinates, so replay,
    sharding and checkpoints all see ordinary worker payloads.
    """

    worker_id: int = -1
    location: Point = None  # type: ignore[assignment]
    phase: int = PHASE_ARRIVAL

    @property
    def entity_id(self) -> int:
        return self.worker_id


def _event_row(event: StreamEvent) -> tuple[int, int, object]:
    """``(kind, entity_id, payload_or_None)`` of one event object."""
    if isinstance(event, WorkerArrivalEvent):
        return KIND_ARRIVAL, event.worker.worker_id, event.worker
    if isinstance(event, TaskPublishEvent):
        return KIND_PUBLISH, event.task.task_id, event.task
    if isinstance(event, TaskCancelEvent):
        return KIND_CANCEL, event.task_id, None
    if isinstance(event, TaskExpiryEvent):
        return KIND_EXPIRY, event.task_id, None
    if isinstance(event, WorkerChurnEvent):
        return KIND_CHURN, event.worker_id, None
    if isinstance(event, WorkerRelocateEvent):
        return KIND_RELOCATE, event.worker_id, event.location
    raise TypeError(f"unsupported stream event {event!r}")


class EventLog:
    """An immutable, time-ordered, columnar sequence of stream events.

    The log is materialized (not a consuming heap) so that a cursor index is
    a complete description of replay progress — checkpoints store the cursor
    and resumed runs re-read the identical tail.
    """

    #: Whether this log streams in bounded-memory windows.  ``False`` here;
    #: :class:`~repro.stream.segments.SegmentedEventLog` overrides it so the
    #: checkpoint layer can branch without isinstance probes.
    segmented = False

    def __init__(self, events: Iterable[StreamEvent] = ()) -> None:
        staged = list(events)
        count = len(staged)
        time = np.empty(count, dtype=np.float64)
        kind = np.empty(count, dtype=np.int64)
        entity = np.empty(count, dtype=np.int64)
        payload = np.full(count, -1, dtype=np.int64)
        xs = np.full(count, np.nan)
        ys = np.full(count, np.nan)
        workers: list[Worker] = []
        tasks: list[Task] = []
        for position, event in enumerate(staged):
            event_kind, entity_id, body = _event_row(event)
            time[position] = event.time
            kind[position] = event_kind
            entity[position] = entity_id
            if event_kind == KIND_ARRIVAL:
                payload[position] = len(workers)
                workers.append(body)
            elif event_kind == KIND_PUBLISH:
                payload[position] = len(tasks)
                tasks.append(body)
            elif event_kind == KIND_RELOCATE:
                xs[position], ys[position] = body.x, body.y
        self._init_from_arrays(time, kind, entity, payload, workers, tasks, xs, ys)

    # ----------------------------------------------------------- construction
    @classmethod
    def from_columns(
        cls,
        time: np.ndarray,
        kind: np.ndarray,
        entity_id: np.ndarray,
        payload: np.ndarray | None = None,
        workers: Sequence[Worker] = (),
        tasks: Sequence[Task] = (),
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
    ) -> "EventLog":
        """Build a log straight from column arrays (no event objects).

        ``payload`` holds, per row, the index of the row's worker (arrival
        rows, into ``workers``) or task (publish rows, into ``tasks``) and
        -1 elsewhere; when omitted, arrival/publish rows are matched to the
        side-tables in row order.  Relocation rows come in two forms: with
        payload -1 their new coordinates come from the ``x``/``y`` columns
        (required for such rows) and the relocated worker is synthesized
        from the entity's most recent prior arrival/relocation; with an
        explicit payload ``>= 0`` the row references a post-move
        :class:`Worker` in ``workers`` directly — the form segment slabs
        use so a mid-horizon window is self-contained without replaying
        earlier windows.  Rows may be in any order — the constructor
        applies the canonical ``(time, phase, entity_id)`` stable sort
        itself.

        Malformed input — mismatched column lengths, unknown kind codes,
        non-finite times or relocation coordinates, payload references
        outside the side-tables, a payload whose ``worker_id``/``task_id``
        differs from its row's ``entity_id``, or a relocation preceding any
        arrival of its worker — raises :class:`~repro.exceptions.DataError`
        up front instead of surfacing as an index error (or a silently
        unreachable pooled entity) rounds later.  Relocation rows with
        payload -1 copy their own entity's prior worker, so they are
        consistent by construction.
        """
        time = np.ascontiguousarray(time, dtype=np.float64)
        kind = np.ascontiguousarray(kind, dtype=np.int64)
        entity_id = np.ascontiguousarray(entity_id, dtype=np.int64)
        if not (len(time) == len(kind) == len(entity_id)):
            raise DataError(
                "time, kind and entity_id columns must have equal length, got "
                f"{len(time)}/{len(kind)}/{len(entity_id)}"
            )
        if kind.size and (kind.min() < 0 or kind.max() >= len(KIND_PHASE)):
            bad = np.unique(kind[(kind < 0) | (kind >= len(KIND_PHASE))])
            raise DataError(
                f"kind column contains unknown event kind codes {bad.tolist()} "
                f"(known: 0..{len(KIND_PHASE) - 1})"
            )
        if time.size and not np.isfinite(time).all():
            raise DataError("time column contains non-finite values")
        relocating = kind == KIND_RELOCATE
        if payload is None:
            payload = np.full(len(time), -1, dtype=np.int64)
            payload[kind == KIND_ARRIVAL] = np.arange(
                int((kind == KIND_ARRIVAL).sum()), dtype=np.int64
            )
            payload[kind == KIND_PUBLISH] = np.arange(
                int((kind == KIND_PUBLISH).sum()), dtype=np.int64
            )
        else:
            payload = np.ascontiguousarray(payload, dtype=np.int64)
            if len(payload) != len(time):
                raise DataError("payload column must have the row count")
        for kind_code, table, label in (
            (KIND_ARRIVAL, workers, "workers"),
            (KIND_PUBLISH, tasks, "tasks"),
        ):
            refs = payload[kind == kind_code]
            if refs.size and (refs.min() < 0 or refs.max() >= len(table)):
                raise DataError(
                    f"payload indices of kind-{kind_code} rows must lie in "
                    f"[0, {len(table)}) — the {label} side-table"
                )
        refs = payload[relocating]
        if refs.size and (refs.min() < -1 or refs.max() >= len(workers)):
            raise DataError(
                f"payload indices of kind-{KIND_RELOCATE} rows must be -1 "
                f"(synthesize from x/y) or lie in [0, {len(workers)}) — "
                "the workers side-table"
            )
        # Pools are keyed by entity_id, so a payload carrying another id
        # would strand the pooled entity out of reach of its later events.
        for with_payload, table, attribute in (
            ((kind == KIND_ARRIVAL) | (relocating & (payload >= 0)),
             workers, "worker_id"),
            (kind == KIND_PUBLISH, tasks, "task_id"),
        ):
            rows = np.flatnonzero(with_payload)
            if rows.size == 0:
                continue
            ids = np.fromiter(
                (getattr(entity, attribute) for entity in table),
                dtype=np.int64, count=len(table),
            )[payload[rows]]
            bad = np.flatnonzero(ids != entity_id[rows])
            if bad.size:
                row = int(rows[bad[0]])
                raise DataError(
                    f"row {row}: entity_id {int(entity_id[row])} disagrees "
                    f"with its payload's {attribute} {int(ids[bad[0]])}"
                )
        # Relocations without an explicit payload need coordinates to
        # synthesize the moved worker from.
        synthesized = relocating & (payload < 0)
        if synthesized.any():
            if x is None or y is None:
                raise DataError(
                    "relocation rows require the x and y coordinate columns"
                )
        if x is not None or y is not None:
            if x is None or y is None:
                raise DataError("x and y columns must be given together")
            x = np.ascontiguousarray(x, dtype=np.float64)
            y = np.ascontiguousarray(y, dtype=np.float64)
            if not (len(x) == len(y) == len(time)):
                raise DataError("x and y columns must have the row count")
            bad_coords = synthesized & ~(np.isfinite(x) & np.isfinite(y))
            if bad_coords.any():
                raise DataError(
                    "relocation rows "
                    f"{np.flatnonzero(bad_coords).tolist()[:5]} have non-finite "
                    "(NaN or infinite) coordinates"
                )
        log = cls.__new__(cls)
        log._init_from_arrays(
            time, kind, entity_id, payload, list(workers), list(tasks), x, y
        )
        return log

    def _init_from_arrays(
        self,
        time: np.ndarray,
        kind: np.ndarray,
        entity: np.ndarray,
        payload: np.ndarray,
        workers: list[Worker],
        tasks: list[Task],
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
    ) -> None:
        count = len(time)
        phase = KIND_PHASE[kind] if count else _EMPTY_INT
        # Kind joins the sort key as the final tie-break so an arrival and
        # a relocation of the same worker at the same instant (both in the
        # arrival phase) order deterministically — arrival first — no
        # matter how the source rows were interleaved.
        order = np.lexsort((kind, entity, phase, time))
        columns = np.zeros(count, dtype=EVENT_DTYPE)
        columns["time"] = time[order]
        columns["phase"] = phase[order]
        columns["kind"] = kind[order]
        columns["entity_id"] = entity[order]

        # Renumber payloads in sorted-row order so the columnar form (and
        # therefore the fingerprint) is independent of the source order.
        # Relocation rows synthesize their payload here: the entity's most
        # recent prior arrival/relocation payload moved to the row's new
        # coordinates — so downstream consumers (replay, shard planning,
        # checkpoints) see ordinary worker payloads on every worker row.
        source_payload = payload[order]
        sorted_kind = columns["kind"]
        sorted_entity = columns["entity_id"]
        sorted_payload = np.full(count, -1, dtype=np.int64)
        xs = np.full(count, np.nan)
        ys = np.full(count, np.nan)
        arrival_rows = np.flatnonzero(sorted_kind == KIND_ARRIVAL)
        publish_rows = np.flatnonzero(sorted_kind == KIND_PUBLISH)
        if not (kind == KIND_RELOCATE).any():
            # Fast path (no relocations — every single-day builder): only
            # arrival/publish rows carry payloads or locations.
            worker_table = [workers[source_payload[row]] for row in arrival_rows]
            task_table = [tasks[source_payload[row]] for row in publish_rows]
            sorted_payload[arrival_rows] = np.arange(
                len(arrival_rows), dtype=np.int64
            )
            sorted_payload[publish_rows] = np.arange(
                len(publish_rows), dtype=np.int64
            )
            for slot, row in enumerate(arrival_rows):
                location = worker_table[slot].location
                xs[row], ys[row] = location.x, location.y
            for slot, row in enumerate(publish_rows):
                location = task_table[slot].location
                xs[row], ys[row] = location.x, location.y
        else:
            source_x = x[order] if x is not None else None
            source_y = y[order] if y is not None else None
            worker_table = []
            task_table = []
            latest_worker: dict[int, Worker] = {}
            for row in range(count):
                row_kind = sorted_kind[row]
                if row_kind == KIND_ARRIVAL:
                    worker = workers[source_payload[row]]
                    latest_worker[int(sorted_entity[row])] = worker
                elif row_kind == KIND_RELOCATE:
                    if source_payload[row] >= 0:
                        # Self-contained form: the post-move worker ships in
                        # the side-table (segment slabs) — no prior arrival
                        # needs to exist in this log.
                        worker = workers[source_payload[row]]
                    else:
                        previous = latest_worker.get(int(sorted_entity[row]))
                        if previous is None:
                            raise DataError(
                                f"relocation of worker {int(sorted_entity[row])} "
                                f"at t={float(columns['time'][row])} precedes any "
                                "arrival of that worker"
                            )
                        worker = previous.moved_to(
                            Point(float(source_x[row]), float(source_y[row]))
                        )
                    latest_worker[int(sorted_entity[row])] = worker
                elif row_kind == KIND_PUBLISH:
                    task = tasks[source_payload[row]]
                    sorted_payload[row] = len(task_table)
                    task_table.append(task)
                    xs[row], ys[row] = task.location.x, task.location.y
                    continue
                else:
                    continue
                sorted_payload[row] = len(worker_table)
                worker_table.append(worker)
                xs[row], ys[row] = worker.location.x, worker.location.y
        self._workers: tuple[Worker, ...] = tuple(worker_table)
        self._tasks: tuple[Task, ...] = tuple(task_table)
        columns["payload"] = sorted_payload
        columns["x"] = xs
        columns["y"] = ys
        columns.setflags(write=False)
        self.columns: np.ndarray = columns
        # Field views for the per-row payload reads of replay.
        self._kind_column = columns["kind"]
        self._payload_column = columns["payload"]

        self._worker_attrs = np.array(
            [
                (w.location.x, w.location.y, w.reachable_km, w.speed_kmh)
                for w in self._workers
            ],
            dtype=np.float64,
        ).reshape(len(self._workers), 4)
        self._task_attrs = np.array(
            [
                (t.location.x, t.location.y, t.publication_time, t.valid_hours)
                for t in self._tasks
            ],
            dtype=np.float64,
        ).reshape(len(self._tasks), 4)
        self._task_venues = np.array(
            [-1 if t.venue_id is None else t.venue_id for t in self._tasks],
            dtype=np.int64,
        )
        self._admissions = np.flatnonzero(columns["phase"] <= PHASE_PUBLISH)
        self._event_cache: list[StreamEvent | None] = [None] * count
        self._events_tuple: tuple[StreamEvent, ...] | None = None

    @classmethod
    def merged(cls, *sources: Iterable[StreamEvent]) -> "EventLog":
        """Combine several event sources into one deterministic log.

        The constructor's single ordering pass (stable sort on
        ``(time, phase, entity_id)``) subsumes any merge, so sources need
        no internal ordering and contribute no extra per-source cost.
        """
        return cls(chain(*sources))

    # -------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index: int) -> StreamEvent:
        event = self._event_cache[index]
        if event is None:
            event = self._materialize(index)
            self._event_cache[index] = event
        return event

    def __iter__(self) -> Iterator[StreamEvent]:
        for index in range(len(self.columns)):
            yield self[index]

    def _materialize(self, index: int) -> StreamEvent:
        row = self.columns[index]
        kind = int(row["kind"])
        time = float(row["time"])
        if kind == KIND_ARRIVAL:
            return WorkerArrivalEvent(time=time, worker=self._workers[row["payload"]])
        if kind == KIND_PUBLISH:
            return TaskPublishEvent(time=time, task=self._tasks[row["payload"]])
        entity = int(row["entity_id"])
        if kind == KIND_CANCEL:
            return TaskCancelEvent(time=time, task_id=entity)
        if kind == KIND_EXPIRY:
            return TaskExpiryEvent(time=time, task_id=entity)
        if kind == KIND_RELOCATE:
            return WorkerRelocateEvent(
                time=time,
                worker_id=entity,
                location=Point(float(row["x"]), float(row["y"])),
            )
        return WorkerChurnEvent(time=time, worker_id=entity)

    @property
    def events(self) -> tuple[StreamEvent, ...]:
        """The ordered events, materialized once and cached (immutable)."""
        if self._events_tuple is None:
            self._events_tuple = tuple(self[index] for index in range(len(self)))
        return self._events_tuple

    # ------------------------------------------------------------ column API
    @property
    def times(self) -> np.ndarray:
        """The ``time`` column (sorted ascending, read-only)."""
        return self.columns["time"]

    @property
    def phases(self) -> np.ndarray:
        """The ``phase`` column (read-only)."""
        return self.columns["phase"]

    @property
    def kinds(self) -> np.ndarray:
        """The ``kind`` column (read-only)."""
        return self.columns["kind"]

    @property
    def entity_ids(self) -> np.ndarray:
        """The ``entity_id`` column (read-only)."""
        return self.columns["entity_id"]

    def worker_at(self, index: int) -> Worker:
        """The worker payload of the arrival/relocation event at ``index``.

        For relocation rows this is the synthesized relocated worker — the
        most recent prior arrival's attributes at the row's new location.
        """
        slot = int(self._payload_column[index])
        if (
            int(self._kind_column[index]) not in (KIND_ARRIVAL, KIND_RELOCATE)
            or slot < 0
        ):
            raise IndexError(f"event {index} is not a worker arrival/relocation")
        return self._workers[slot]

    def task_at(self, index: int) -> Task:
        """The task payload of the publish event at ``index``."""
        slot = int(self._payload_column[index])
        if int(self._kind_column[index]) != KIND_PUBLISH or slot < 0:
            raise IndexError(f"event {index} is not a task publish")
        return self._tasks[slot]

    def drain_stop(self, cursor: int, fire_time: float) -> int:
        """First undrained index for a round at ``fire_time`` (array op).

        Everything strictly before ``fire_time`` drains; at the boundary
        itself only admission phases do (deferred expiry/churn wait for the
        next round) — exactly the runtime's event-by-event scan, as two
        ``searchsorted`` calls on the sorted ``(time, phase)`` key.
        """
        times = self.columns["time"]
        lo = int(np.searchsorted(times, fire_time, side="left"))
        hi = int(np.searchsorted(times, fire_time, side="right"))
        cut = lo + int(
            np.searchsorted(self.columns["phase"][lo:hi], DEFERRED_PHASE, side="left")
        )
        return max(cursor, cut)

    def slices(
        self, start: int, stop: int
    ) -> Iterator[tuple["EventLog", int, int, int]]:
        """Yield ``(log, local_start, local_stop, base)`` slabs covering
        global rows ``[start, stop)``.

        The uniform cursor-walk API shared with
        :class:`~repro.stream.segments.SegmentedEventLog`: a materialized
        log is a single slab at base 0, a segmented log yields one tuple
        per touched segment.  Consumers index ``log`` with local positions
        and recover the global position as ``base + local``.
        """
        if start < stop:
            yield self, start, stop, 0

    def release_before(self, cursor: int) -> int:
        """Drop cached slabs behind ``cursor``; returns how many went.

        Always 0 here: a materialized log is one slab for the whole run.
        :class:`~repro.stream.segments.SegmentedEventLog` releases the
        segments the cursor has passed.
        """
        return 0

    def cell_key_counts(self, cell_km: float) -> tuple[np.ndarray, np.ndarray]:
        """``(occupied_packed_keys, counts)`` over the located event rows.

        The shard planner's aggregate input, answered without exposing the
        full per-row key column — which lets
        :class:`~repro.stream.segments.SegmentedEventLog` union the same
        occupancy per segment under bounded memory.
        """
        packed = self.cell_keys(cell_km)
        located = ~np.isnan(self.columns["x"])
        return np.unique(packed[located], return_counts=True)

    def next_count_time(
        self, cursor: int, count: int, limit_time: float
    ) -> float | None:
        """When the ``count``-th admission at or after ``cursor`` occurs.

        Returns ``None`` when fewer than ``count`` admissions remain or the
        count-th one lies beyond ``limit_time`` — the count-trigger
        scheduling query, answered from the precomputed admission-position
        index instead of an event scan.
        """
        start = int(np.searchsorted(self._admissions, cursor, side="left"))
        target = start + count - 1
        if target >= len(self._admissions):
            return None
        fire = float(self.columns["time"][self._admissions[target]])
        return fire if fire <= limit_time else None

    def admissions_after(self, cursor: int) -> int:
        """How many admission rows lie at or after ``cursor``.

        The per-segment count :class:`~repro.stream.segments.SegmentedEventLog`
        aggregates to answer :meth:`next_count_time` across seams.
        """
        return int(
            len(self._admissions)
            - np.searchsorted(self._admissions, cursor, side="left")
        )

    def cell_keys(self, cell_km: float) -> np.ndarray:
        """Grid-cell key per event row, quantizing ``x``/``y`` by ``cell_km``.

        Rows without a location (cancel/expiry/churn) get the
        out-of-range sentinel cell ``(CELL_OFFSET, CELL_OFFSET)``.  Keys
        pack ``(kx, ky)`` into one int64 (each offset by ``CELL_OFFSET``,
        valid for ``|k| < CELL_OFFSET`` — tens of millions of cells per
        axis), matching :func:`repro.geo.cell_key` on the payload
        locations — the shard planner's input.

        Raises :class:`DataError` when any located row quantizes outside
        ``|k| < CELL_OFFSET``: such keys would silently alias distinct
        cells (or the unlocated sentinel), which can merge unrelated shard
        components or break the never-split invariant.
        """
        if cell_km <= 0:
            raise ValueError(f"cell_km must be positive, got {cell_km}")
        xs = self.columns["x"]
        ys = self.columns["y"]
        located = ~np.isnan(xs)
        kx = np.full(len(xs), CELL_OFFSET, dtype=np.int64)
        ky = np.full(len(ys), CELL_OFFSET, dtype=np.int64)
        with np.errstate(invalid="ignore"):
            fx = np.floor(xs[located] / cell_km)
            fy = np.floor(ys[located] / cell_km)
        bad = (np.abs(fx) >= CELL_OFFSET) | (np.abs(fy) >= CELL_OFFSET)
        if bad.any():
            row = int(np.flatnonzero(located)[np.flatnonzero(bad)[0]])
            raise DataError(
                f"event row {row} at ({xs[row]}, {ys[row]}) quantizes to cell "
                f"({math.floor(xs[row] / cell_km)}, {math.floor(ys[row] / cell_km)}) "
                f"outside |k| < {CELL_OFFSET} at cell_km={cell_km}"
            )
        kx[located] = fx.astype(np.int64)
        ky[located] = fy.astype(np.int64)
        return (kx + CELL_OFFSET) * (2 * CELL_OFFSET) + (ky + CELL_OFFSET)

    def max_reachable_km(self) -> float:
        """Largest worker radius in the log (0.0 without arrivals)."""
        if not len(self._worker_attrs):
            return 0.0
        return float(self._worker_attrs[:, 2].max())

    # ------------------------------------------------------------ properties
    def start_time(self) -> float | None:
        """Earliest admission-event time (``None`` if no admissions)."""
        if not len(self._admissions):
            return None
        return float(self.columns["time"][self._admissions[0]])

    def has_arrivals(self) -> bool:
        """Whether any worker-arrival event is present."""
        return bool(len(self._workers))

    def last_deadline(self) -> float | None:
        """Latest expiry-event time (the natural default end of a run)."""
        expiries = self.columns["time"][self.columns["kind"] == KIND_EXPIRY]
        return float(expiries.max()) if len(expiries) else None

    def fingerprint(self) -> str:
        """A digest of the columnar buffers, payload attributes included.

        Stored in checkpoints so a resume against a different log fails
        fast instead of silently replaying the wrong stream — including
        logs with identical timing but different worker/task attributes
        (e.g. the same day rebuilt with another reachable radius).  Hashes
        the structured-array buffer and the payload attribute tables
        directly (no per-event serialization); the exact digests are pinned
        by a regression test.
        """
        digest = hashlib.sha256()
        digest.update(b"repro-eventlog-v2")
        digest.update(
            struct.pack("<qqq", len(self), len(self._workers), len(self._tasks))
        )
        digest.update(np.ascontiguousarray(self.columns).tobytes())
        digest.update(np.ascontiguousarray(self._worker_attrs).tobytes())
        digest.update(np.ascontiguousarray(self._task_attrs).tobytes())
        digest.update(np.ascontiguousarray(self._task_venues).tobytes())
        for task in self._tasks:
            for category in task.categories:
                digest.update(category.encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"\x01")
        return digest.hexdigest()


def expiry_events(tasks: Sequence[Task]) -> list[TaskExpiryEvent]:
    """One deadline event per task, at ``publication_time + valid_hours``."""
    return [TaskExpiryEvent(time=task.expiry_time, task_id=task.task_id) for task in tasks]


def log_from_arrivals(
    arrivals: Iterable["object"],
    tasks: Sequence[Task],
    extra: Iterable[StreamEvent] = (),
) -> EventLog:
    """Build the log the batched online simulator implicitly plays.

    ``arrivals`` is a sequence of
    :class:`~repro.framework.online.WorkerArrival` (duck-typed: anything with
    ``worker`` and ``arrival_time``); each task contributes a publish and an
    expiry event.  ``extra`` may add churn/cancellation events.
    """
    events: list[StreamEvent] = [
        WorkerArrivalEvent(time=a.arrival_time, worker=a.worker) for a in arrivals
    ]
    events.extend(
        TaskPublishEvent(time=task.publication_time, task=task) for task in tasks
    )
    events.extend(expiry_events(tasks))
    events.extend(extra)
    return EventLog(events)


def day_stream(
    dataset: CheckInDataset,
    day: int,
    valid_hours: float = 5.0,
    reachable_km: float = 25.0,
    speed_kmh: float = 5.0,
) -> tuple[SCInstance, EventLog]:
    """One dataset day as ``(base_instance, event_log)``.

    The base instance supplies histories, the social network and venue
    visits (its worker list is superseded by the arrival events), exactly as
    :meth:`OnlineSimulator.run` consumes
    :func:`~repro.framework.online.day_arrivals`.
    """
    from repro.framework.online import day_arrivals

    builder = InstanceBuilder(
        dataset, valid_hours=valid_hours, reachable_km=reachable_km, speed_kmh=speed_kmh
    )
    instance = builder.build_day(day)
    arrivals = day_arrivals(
        dataset, day, reachable_km=reachable_km, speed_kmh=speed_kmh
    )
    return instance, log_from_arrivals(arrivals, instance.tasks)


def multi_day_stream(
    dataset: CheckInDataset,
    days: Sequence[int],
    valid_hours: float = 5.0,
    reachable_km: float = 25.0,
    speed_kmh: float = 5.0,
) -> tuple[SCInstance, EventLog]:
    """Several dataset days as one continuous ``(base_instance, event_log)``.

    Multi-day replay follows the paper's "online until assigned" protocol
    over the whole horizon: a worker **arrives** once, at their first
    check-in of their first active day; on each *later* active day they
    **relocate** at that day's first check-in to that day's location (a
    no-op if they were assigned in the meantime — an assigned worker is
    done for the horizon); and they **churn overnight** at the start of
    the next replayed day after their *last* active day (they left the
    platform — relocations never resurrect a churned worker).  Each day
    contributes its task set; task ids are renumbered sequentially across
    the horizon so same-venue tasks on different days stay distinct.

    The base instance is the first day's (histories, social network, venue
    visits are fitted once, exactly as a single-day run fits them).
    """
    from dataclasses import replace

    from repro.framework.online import day_arrivals

    days = list(days)
    if not days:
        raise DataError("multi_day_stream needs at least one day")
    if sorted(set(days)) != days:
        raise DataError(f"days must be strictly increasing, got {days}")

    builder = InstanceBuilder(
        dataset, valid_hours=valid_hours, reachable_km=reachable_km, speed_kmh=speed_kmh
    )
    base = builder.build_day(days[0])

    per_day_arrivals = [
        day_arrivals(
            dataset, day, reachable_km=reachable_km, speed_kmh=speed_kmh,
            builder=builder,
        )
        for day in days
    ]
    last_active: dict[int, int] = {}
    for position, arrivals in enumerate(per_day_arrivals):
        for arrival in arrivals:
            last_active[arrival.worker.worker_id] = position

    events: list[StreamEvent] = []
    all_tasks: list[Task] = []
    next_task_id = 0
    seen: set[int] = set()
    for position, (day, arrivals) in enumerate(zip(days, per_day_arrivals)):
        day_instance = base if position == 0 else builder.build_day(day)
        for task in sorted(day_instance.tasks, key=lambda t: t.task_id):
            all_tasks.append(replace(task, task_id=next_task_id))
            next_task_id += 1

        for arrival in arrivals:
            worker_id = arrival.worker.worker_id
            if worker_id in seen:
                events.append(
                    WorkerRelocateEvent(
                        time=arrival.arrival_time,
                        worker_id=worker_id,
                        location=arrival.worker.location,
                    )
                )
            else:
                seen.add(worker_id)
                events.append(
                    WorkerArrivalEvent(time=arrival.arrival_time, worker=arrival.worker)
                )
        if position + 1 < len(days):
            boundary = 24.0 * days[position + 1]
            events.extend(
                WorkerChurnEvent(time=boundary, worker_id=worker_id)
                for worker_id in sorted(
                    worker_id
                    for worker_id, last in last_active.items()
                    if last == position
                )
            )

    events.extend(
        TaskPublishEvent(time=task.publication_time, task=task) for task in all_tasks
    )
    events.extend(expiry_events(all_tasks))
    return base.with_tasks(all_tasks), EventLog(events)


def synthetic_stream(
    num_workers: int,
    num_tasks: int,
    duration_hours: float = 24.0,
    area_km: float = 50.0,
    valid_hours: float = 5.0,
    reachable_km: float = 25.0,
    speed_kmh: float = 5.0,
    churn_fraction: float = 0.0,
    cancel_fraction: float = 0.0,
    clusters: int = 1,
    cluster_gap_km: float | None = None,
    days: int = 1,
    relocate_fraction: float = 0.0,
    overnight_churn_fraction: float = 0.0,
    relocate_span: str = "cluster",
    seed: int = 0,
) -> tuple[SCInstance, EventLog]:
    """A Poisson-style synthetic stream for load tests.

    Workers arrive and tasks publish uniformly over ``[0, duration_hours)``
    on an ``area_km`` square (a homogeneous Poisson process conditioned on
    the totals).  A ``churn_fraction`` of workers goes offline after an
    exponential online period; a ``cancel_fraction`` of tasks is withdrawn
    halfway to its deadline.  Scaling ``num_workers``/``num_tasks`` with the
    duration fixed raises the arrival *rate* — the bench runs 10-100x the
    paper's per-day volumes this way.

    ``clusters > 1`` models a multi-city world: entities are split across
    ``clusters`` ``area_km`` squares laid out on a grid whose squares are
    separated by ``cluster_gap_km`` (default ``3 * reachable_km``, wide
    enough that the conservative cell-granularity shard planner provably
    separates them), so no feasible (worker, task) pair ever crosses
    clusters — the decomposition the sharded round executor exploits.
    ``clusters=1`` reproduces the historical single-square stream
    draw-for-draw.

    ``days > 1`` turns the stream into a multi-day replay: arrivals and
    publications spread over ``days * duration_hours`` and, at every day
    boundary, each already-arrived worker independently churns overnight
    (probability ``overnight_churn_fraction``) or relocates (probability
    ``relocate_fraction``) — a :class:`WorkerRelocateEvent` at the exact
    boundary time, drawn within the worker's own cluster square
    (``relocate_span="cluster"``) or anywhere in the multi-city world
    (``relocate_span="world"``, the mass-migration shape that stresses the
    shard planner's never-split invariant).  ``days=1`` draws exactly the
    historical single-day stream.
    """
    if num_workers < 0 or num_tasks < 0:
        raise ValueError("num_workers and num_tasks must be non-negative")
    if duration_hours <= 0:
        raise ValueError(f"duration_hours must be positive, got {duration_hours}")
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    if cluster_gap_km is None:
        cluster_gap_km = 3.0 * reachable_km
    elif cluster_gap_km <= 0:
        raise ValueError(f"cluster_gap_km must be positive, got {cluster_gap_km}")
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if not (0.0 <= relocate_fraction <= 1.0):
        raise ValueError(f"relocate_fraction must lie in [0, 1], got {relocate_fraction}")
    if not (0.0 <= overnight_churn_fraction <= 1.0):
        raise ValueError(
            f"overnight_churn_fraction must lie in [0, 1], got {overnight_churn_fraction}"
        )
    if relocate_fraction + overnight_churn_fraction > 1.0:
        raise ValueError(
            "relocate_fraction + overnight_churn_fraction must not exceed 1"
        )
    if relocate_span not in ("cluster", "world"):
        raise ValueError(
            f"relocate_span must be 'cluster' or 'world', got {relocate_span!r}"
        )
    rng = np.random.default_rng(seed)
    horizon_hours = duration_hours * days

    grid_side = int(np.ceil(np.sqrt(clusters)))
    pitch = area_km + cluster_gap_km

    def cluster_origins(assignments: np.ndarray) -> np.ndarray:
        return np.column_stack(
            (assignments % grid_side, assignments // grid_side)
        ) * pitch

    worker_times = np.sort(rng.uniform(0.0, horizon_hours, size=num_workers))
    worker_xy = rng.uniform(0.0, area_km, size=(num_workers, 2))
    worker_clusters = np.zeros(num_workers, dtype=np.int64)
    if clusters > 1:
        worker_clusters = rng.integers(clusters, size=num_workers)
        worker_xy = worker_xy + cluster_origins(worker_clusters)
    workers = [
        Worker(
            worker_id=worker_id,
            location=Point(float(worker_xy[worker_id, 0]), float(worker_xy[worker_id, 1])),
            reachable_km=reachable_km,
            speed_kmh=speed_kmh,
        )
        for worker_id in range(num_workers)
    ]

    task_times = np.sort(rng.uniform(0.0, horizon_hours, size=num_tasks))
    task_xy = rng.uniform(0.0, area_km, size=(num_tasks, 2))
    if clusters > 1:
        task_xy = task_xy + cluster_origins(rng.integers(clusters, size=num_tasks))
    tasks = [
        Task(
            task_id=task_id,
            location=Point(float(task_xy[task_id, 0]), float(task_xy[task_id, 1])),
            publication_time=float(task_times[task_id]),
            valid_hours=valid_hours,
        )
        for task_id in range(num_tasks)
    ]

    # Columns, assembled without per-event wrapper objects: arrivals,
    # publishes, expiries, then optional churn/cancel rows.
    times = [worker_times, task_times, task_times + valid_hours]
    kinds = [
        np.full(num_workers, KIND_ARRIVAL, dtype=np.int64),
        np.full(num_tasks, KIND_PUBLISH, dtype=np.int64),
        np.full(num_tasks, KIND_EXPIRY, dtype=np.int64),
    ]
    entities = [
        np.arange(num_workers, dtype=np.int64),
        np.arange(num_tasks, dtype=np.int64),
        np.arange(num_tasks, dtype=np.int64),
    ]

    if churn_fraction > 0.0 and num_workers:
        churners = np.flatnonzero(rng.random(num_workers) < churn_fraction)
        stays = rng.exponential(scale=2.0, size=len(churners))
        times.append(worker_times[churners] + stays)
        kinds.append(np.full(len(churners), KIND_CHURN, dtype=np.int64))
        entities.append(churners.astype(np.int64))
    if cancel_fraction > 0.0 and num_tasks:
        cancelled = np.flatnonzero(rng.random(num_tasks) < cancel_fraction)
        times.append(task_times[cancelled] + 0.5 * valid_hours)
        kinds.append(np.full(len(cancelled), KIND_CANCEL, dtype=np.int64))
        entities.append(cancelled.astype(np.int64))

    relocation_xy: list[np.ndarray] = []
    if days > 1 and num_workers:
        alive = np.ones(num_workers, dtype=bool)
        for boundary_day in range(1, days):
            boundary = boundary_day * duration_hours
            present = alive & (worker_times < boundary)
            draws = rng.random(num_workers)
            churns = present & (draws < overnight_churn_fraction)
            moves = (
                present
                & ~churns
                & (draws < overnight_churn_fraction + relocate_fraction)
            )
            new_xy = rng.uniform(0.0, area_km, size=(num_workers, 2))
            if clusters > 1:
                span_clusters = (
                    rng.integers(clusters, size=num_workers)
                    if relocate_span == "world"
                    else worker_clusters
                )
                new_xy = new_xy + cluster_origins(span_clusters)
            alive[churns] = False
            if churns.any():
                ids = np.flatnonzero(churns)
                times.append(np.full(len(ids), boundary))
                kinds.append(np.full(len(ids), KIND_CHURN, dtype=np.int64))
                entities.append(ids.astype(np.int64))
                relocation_xy.append(np.full((len(ids), 2), np.nan))
            if moves.any():
                ids = np.flatnonzero(moves)
                times.append(np.full(len(ids), boundary))
                kinds.append(np.full(len(ids), KIND_RELOCATE, dtype=np.int64))
                entities.append(ids.astype(np.int64))
                relocation_xy.append(new_xy[ids])

    all_times = np.concatenate(times)
    coords = None
    if relocation_xy:
        base_rows = len(all_times) - sum(len(block) for block in relocation_xy)
        coords = np.vstack(
            [np.full((base_rows, 2), np.nan), *relocation_xy]
        )
    log = EventLog.from_columns(
        all_times,
        np.concatenate(kinds),
        np.concatenate(entities),
        workers=workers,
        tasks=tasks,
        x=coords[:, 0] if coords is not None else None,
        y=coords[:, 1] if coords is not None else None,
    )
    base = SCInstance(
        name=f"synthetic-stream-{seed}",
        current_time=0.0,
        tasks=[],
        workers=[],
        histories={},
        social_edges=[],
        all_worker_ids=tuple(range(num_workers)),
    )
    return base, log
