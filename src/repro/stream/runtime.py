"""The event-driven streaming runtime and the sharded round executor.

:class:`StreamRuntime` consumes an :class:`~repro.stream.events.EventLog`
through a :class:`~repro.stream.scheduler.Trigger`, maintaining live pools
(:class:`~repro.stream.state.StreamState`) and firing assignment rounds at
the trigger's micro-batch boundaries.  It is a strict superset of the
batched :class:`~repro.framework.online.OnlineSimulator`:

* with a :class:`~repro.stream.scheduler.TimeWindowTrigger` whose window
  equals the simulator's ``batch_hours`` (and a log built by
  :func:`~repro.stream.events.log_from_arrivals` over the same arrivals and
  tasks), the produced assignments are **bit-identical** to
  ``OnlineSimulator.run`` — pinned by a golden cross-check test;
* count/hybrid/adaptive triggers, churn/cancellation/relocation events,
  admission control (:class:`AdmissionController` — defer or shed low-value
  task admissions when round latency blows a budget),
  wait/latency metrics and checkpoint/replay go beyond it.

Every round runs through :class:`ShardExecutor`: it splits the round's
pools along a :class:`~repro.stream.shards.ShardLayout` (planned once per
run, radius-aware, so no feasible pair is ever split), enumerates the
round's feasible-pair graph once
(:func:`~repro.assignment.candidates.pair_graph`) and slices it per shard,
prepares and solves each shard in turn in the calling thread, and merges
per-shard assignments in deterministic sorted-shard order through the
same :func:`~repro.assignment.partitioned.merge_assignments` core the
offline :class:`~repro.assignment.PartitionedAssigner` uses.  Because no
feasible pair crosses shards, the sharded round solves the same problem as
the unsharded one, split into independent sub-problems.  An unsharded
runtime is simply the one-shard case: a fixed single-bin layout, so there
is one round path.  A round is a function of the pools at round time; the
fixed layout is the only state rounds share.  Per-phase timings
(drain/prepare/solve/merge) land on every
:class:`~repro.stream.metrics.RoundRecord`.

The runtime is resumable: ``run(max_rounds=...)`` stops after a bounded
number of rounds with all state intact, :meth:`checkpoint` snapshots that
state to disk (including the shard layout), and
:meth:`resume` reconstructs a runtime that continues the run bit-identically
(regression-tested against an uninterrupted run).
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.assignment.base import Assigner, EntityColumns, PreparedInstance, RoundState
from repro.assignment.candidates import PairGraph, pair_graph
from repro.assignment.partitioned import merge_assignments
from repro.data.instance import SCInstance
from repro.entities import Assignment
from repro.influence import InfluenceModel
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.obs.histo import SECONDS_HISTOGRAM
from repro.obs.trace import Interval, clock_ns
from repro.stream.events import KIND_PUBLISH, EventLog
from repro.stream.metrics import RoundRecord, StreamMetrics, StreamSummary
from repro.stream.scheduler import Trigger
from repro.stream.shards import DEFAULT_CELL_KM, ShardLayout
from repro.stream.state import StreamState


def _split(slots: np.ndarray, shards: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Pool ``slots`` grouped by shard, one array per shard id, each in
    input order (one stable argsort)."""
    order = np.argsort(shards, kind="stable")
    bounds = np.searchsorted(shards[order], np.arange(num_shards + 1)).tolist()
    ordered = slots[order]
    return [ordered[start:stop] for start, stop in zip(bounds, bounds[1:])]


class StreamResult:
    """The accumulating outcome of a streaming run."""

    def __init__(self) -> None:
        self.assignment = Assignment()
        self.metrics = StreamMetrics()
        #: Per pair of :attr:`assignment`, in pair order: the recorded event
        #: indices of its worker and task when matched (checkpoints store them).
        self.worker_events = array("q")
        self.task_events = array("q")

    @property
    def rounds(self) -> list[RoundRecord]:
        """Per-round records, in firing order."""
        return self.metrics.rounds

    @property
    def total_assigned(self) -> int:
        """Tasks assigned so far."""
        return self.metrics.total_assigned

    @property
    def total_expired(self) -> int:
        """Tasks that expired unassigned so far."""
        return self.metrics.total_expired

    @property
    def total_churned(self) -> int:
        """Workers that left unassigned so far."""
        return self.metrics.total_churned

    @property
    def total_cancelled(self) -> int:
        """Tasks withdrawn by cancellation events so far."""
        return self.metrics.total_cancelled

    def summary(self) -> StreamSummary:
        """Aggregate metrics snapshot."""
        return self.metrics.summary()


#: Recognized :class:`AdmissionController` policies.
ADMISSION_POLICIES = ("defer", "shed")


class AdmissionController:
    """Defers or sheds low-value task admissions under latency overload.

    When a round's observed cost exceeds ``budget_seconds`` the controller
    turns *overloaded*; while overloaded, publish events whose value falls
    below ``protect_value`` are diverted away from the pool:

    ``defer``
        The task is parked in a backlog and re-admitted — original
        publication time intact, so its wait keeps accruing — at the first
        round where the controller is healthy again.  A parked task whose
        expiry/cancel event drains meanwhile is discarded and counted as
        expired/cancelled like any pooled task.  The stream's final flush
        round force-releases the backlog and admits publishes directly
        (deferring at the end of the stream would silently drop work), so
        defer conserves every publish: assigned, expired or cancelled.
    ``shed``
        The task is dropped outright and only counted.

    The controller leaves the overloaded state once the observed cost
    falls below ``resume_fraction * budget_seconds`` (hysteresis, like the
    adaptive trigger's half-budget growth rule).  ``budget_seconds=inf``
    never overloads; NaN is rejected.

    ``value_of(task) -> float`` makes the "low-value" notion pluggable:
    tasks valued at or above ``protect_value`` are always admitted, budget
    or not.  The default (``None``) treats every task as sheddable.
    ``cost_of(record) -> float`` selects the feedback signal; the default
    is the measured wall-clock ``round_seconds``, and tests pass a
    deterministic function of the
    :class:`~repro.stream.metrics.RoundRecord` so runs — and therefore
    checkpoint/replay — are reproducible.

    The runtime never consults the controller when it is not configured:
    ``StreamRuntime(admission=None)`` (the default) replays the exact
    ungated code path, so disabled admission control is bit-identical to a
    runtime without the feature.
    """

    def __init__(
        self,
        budget_seconds: float,
        policy: str = "defer",
        value_of=None,
        protect_value: float = float("inf"),
        cost_of=None,
        resume_fraction: float = 0.5,
    ) -> None:
        if not budget_seconds > 0:
            raise ValueError(
                f"budget_seconds must be positive, got {budget_seconds}"
            )
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"choose from {', '.join(ADMISSION_POLICIES)}"
            )
        if not (0.0 < resume_fraction <= 1.0):
            raise ValueError(
                f"resume_fraction must lie in (0, 1], got {resume_fraction}"
            )
        self.budget_seconds = budget_seconds
        self.policy = policy
        self.value_of = value_of
        self.protect_value = protect_value
        self.cost_of = cost_of if cost_of is not None else (
            lambda record: record.round_seconds
        )
        self.resume_fraction = resume_fraction
        self.overloaded = False
        #: task_id -> (publish event position, publication event time).
        self._backlog: dict[int, tuple[int, float]] = {}
        self.total_deferred = 0
        self.total_shed = 0
        self._round_deferred = 0
        self._round_shed = 0

    # ------------------------------------------------------------------ gate
    def offer(self, position: int, task, time: float) -> bool:
        """Gate one publish event; False diverts it away from the pool."""
        if not self.overloaded:
            return True
        if self.value_of is not None and self.value_of(task) >= self.protect_value:
            return True
        if self.policy == "defer":
            self._backlog[task.task_id] = (position, time)
            self._round_deferred += 1
            self.total_deferred += 1
        else:
            self._round_shed += 1
            self.total_shed += 1
        return False

    def discard(self, task_id: int) -> bool:
        """Drop a parked task on expiry/cancel; True if it was parked."""
        return self._backlog.pop(task_id, None) is not None

    def release(self, force: bool = False) -> list[tuple[int, int, float]]:
        """Backlog entries to re-admit now: ``(task_id, position, time)``.

        Empty while overloaded (unless ``force``, the final-flush path);
        otherwise drains the whole backlog in publish-event order
        (deterministic).
        """
        if (self.overloaded and not force) or not self._backlog:
            return []
        released = sorted(
            (position, task_id, time)
            for task_id, (position, time) in self._backlog.items()
        )
        self._backlog.clear()
        return [(task_id, position, time) for position, task_id, time in released]

    @property
    def backlog_size(self) -> int:
        """Tasks currently parked by the defer policy."""
        return len(self._backlog)

    # -------------------------------------------------------------- feedback
    def take_round_counts(self) -> tuple[int, int]:
        """``(deferred, shed)`` since the last call (round bookkeeping)."""
        counts = (self._round_deferred, self._round_shed)
        self._round_deferred = 0
        self._round_shed = 0
        return counts

    def on_round(self, record) -> None:
        """Observe a completed round and update the overload state."""
        cost = float(self.cost_of(record))
        if cost > self.budget_seconds:
            self.overloaded = True
        elif cost < self.resume_fraction * self.budget_seconds:
            self.overloaded = False

    # ----------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """Serializable control state (policy echoed for resume validation)."""
        return {
            "policy": self.policy,
            "budget_seconds": self.budget_seconds,
            "overloaded": self.overloaded,
            "backlog": [
                [task_id, position, time]
                for task_id, (position, time) in sorted(self._backlog.items())
            ],
            "total_deferred": self.total_deferred,
            "total_shed": self.total_shed,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (compatibility pre-validated)."""
        self.overloaded = bool(state["overloaded"])
        self._backlog = {
            int(task_id): (int(position), float(time))
            for task_id, position, time in state["backlog"]
        }
        self.total_deferred = int(state["total_deferred"])
        self.total_shed = int(state["total_shed"])
        self._round_deferred = 0
        self._round_shed = 0


def _entity_rows(columns: EntityColumns, start: int, stop: int) -> EntityColumns:
    """Rows ``[start, stop)`` of round columns, as views."""
    return EntityColumns(*(array[start:stop] for array in columns))


class _ShardWork(NamedTuple):
    """One shard's round instance and the pool slots of its workers and
    tasks, in the instance's order."""

    instance: SCInstance
    worker_slots: np.ndarray
    task_slots: np.ndarray


@dataclass(frozen=True)
class RoundExecution:
    """One round's outcome with its measured phase intervals.

    ``prepare`` and ``solve`` map each solved shard to its interval, and
    ``merge`` is the merge interval; the runtime derives the round
    record's seconds and the trace spans from these same intervals.  The
    phase seconds are *cumulative across shards*.  The intervals run one
    after another in the calling thread and never overlap, so the three
    phase sums together never exceed the round's wall clock.  ``events``
    holds each pair's recorded ``(worker_event, task_event)`` log indices,
    in pair order.
    """

    assignment: Assignment
    waits: list[tuple[float, float]]
    events: list[tuple[int, int]]
    prepare: dict[int, Interval]
    solve: dict[int, Interval]
    merge: Interval

    @property
    def prepare_seconds(self) -> float:
        return sum(interval.seconds for interval in self.prepare.values())

    @property
    def solve_seconds(self) -> float:
        return sum(interval.seconds for interval in self.solve.values())

    @property
    def merge_seconds(self) -> float:
        return self.merge.seconds


class ShardExecutor:
    """Runs one assignment round as independent per-shard solves.

    Each round: route each id-sorted live pool with one
    :meth:`~repro.stream.shards.ShardLayout.shards_of` call on its x/y
    columns and split its slot array by one stable argsort on shard (so
    every shard lists its entities by ascending id), enumerate the round's
    feasible-pair graph once over all populated shards' rows and columns
    in shard-major order (:func:`~repro.assignment.candidates.pair_graph`)
    and give each shard its slice, prepare each shard through the one
    :class:`~repro.assignment.RoundState` (which holds only the influence
    model, so a shard's prepare reads nothing of earlier rounds), solve
    each shard right after preparing it, and merge the per-shard
    assignments in ascending shard order.  An unsharded
    :class:`StreamRuntime` runs a one-shard executor, so this is the only
    round path.

    Everything runs in the calling thread, one shard after another, and
    every prepared instance is deterministic, so rounds are bit-identical
    from run to run.
    """

    def __init__(
        self,
        layout: ShardLayout,
        influence: InfluenceModel | None = None,
    ) -> None:
        self.layout = layout
        self.influence = influence
        self.round_state = RoundState(influence)

    # ----------------------------------------------------------------- round
    def _prepare_shard(
        self,
        work: _ShardWork,
        columns: tuple[EntityColumns, EntityColumns] | None,
        pairs: PairGraph | None,
    ) -> PreparedInstance:
        if columns is not None:
            return self.round_state.prepare(work.instance, *columns, pairs=pairs)
        prepared = PreparedInstance(work.instance, self.influence)
        # Force the lazy caches now, so their cost is timed as prepare.
        prepared.feasible
        prepared.influence_matrix
        prepared.entropy_by_task
        return prepared

    def _route(self, pool) -> list[np.ndarray]:
        """The pool's live slots in ascending id order, split by shard."""
        slots = pool.slots_by_id()
        shards = self.layout.shards_of(pool.attrs[slots, 0], pool.attrs[slots, 1])
        return _split(slots, shards, self.layout.num_shards)

    @staticmethod
    def _shard_inputs(
        state: StreamState, shard_work: list[tuple[int, _ShardWork]], now: float
    ) -> list[tuple[tuple[EntityColumns, EntityColumns], PairGraph]]:
        """Each shard's worker and task columns and pair graph, sliced from
        one enumeration over the round's rows and columns in shard-major
        order.

        The layout never splits a feasible pair between planned cells, so
        every pair lies within its shard's block.  Pairs that the
        hash-routed fallback for unplanned cells would split are dropped,
        as per-shard enumeration would never see them.
        """
        if not shard_work:
            return []
        worker_counts = [work.worker_slots.size for _, work in shard_work]
        task_counts = [work.task_slots.size for _, work in shard_work]
        workers = state.workers.columns(
            np.concatenate([work.worker_slots for _, work in shard_work])
        )
        tasks = state.tasks.columns(
            np.concatenate([work.task_slots for _, work in shard_work])
        )
        graph = pair_graph(workers.attrs, tasks.attrs, now)
        if len(shard_work) > 1:
            block = np.arange(len(shard_work))
            split = (
                np.repeat(block, worker_counts)[graph.rows()]
                != np.repeat(block, task_counts)[graph.columns]
            )
            if split.any():
                graph = graph.subset(~split)
        row_bounds = np.cumsum([0] + worker_counts).tolist()
        column_bounds = np.cumsum([0] + task_counts).tolist()
        return [
            (
                (_entity_rows(workers, row_start, row_stop),
                 _entity_rows(tasks, column_start, column_stop)),
                graph.block(row_start, row_stop, column_start),
            )
            for row_start, row_stop, column_start, column_stop in zip(
                row_bounds, row_bounds[1:], column_bounds, column_bounds[1:]
            )
        ]

    def run_round(
        self,
        state: StreamState,
        assigner: Assigner,
        now: float,
    ) -> RoundExecution:
        """Solve one round shard-by-shard and retire the matched pairs.

        Returns a :class:`RoundExecution` carrying the merged assignment and
        each pair's ``(task_wait, worker_wait)`` hours (publication/arrival
        to ``now``), in pair order.  Each pool's live slots are routed in
        ascending id order with one
        :meth:`~repro.stream.shards.ShardLayout.shards_of` call on their
        x/y columns and split by one stable argsort on shard, so each
        shard's instance lists its entities by ascending id and is
        deterministic.
        """
        shard_workers, shard_tasks = self._route(state.workers), self._route(state.tasks)
        shard_work: list[tuple[int, _ShardWork]] = []
        workers, tasks = state.workers.payloads, state.tasks.payloads
        for shard, (worker_slots, task_slots) in enumerate(zip(shard_workers, shard_tasks)):
            if not worker_slots.size or not task_slots.size:
                continue
            sub_instance = state.base_instance.with_workers(
                workers[worker_slots].tolist()
            ).with_tasks(tasks[task_slots].tolist())
            sub_instance.current_time = now
            shard_work.append((shard, _ShardWork(sub_instance, worker_slots, task_slots)))

        prepare: dict[int, Interval] = {}
        solve: dict[int, Interval] = {}
        parts: list[Assignment] = []
        # Each phase starts where the previous one ended, so the intervals
        # tile the round's work without overlap.  The first shard's prepare
        # interval also covers the round's pair enumeration.
        start_ns = clock_ns()
        inputs = (
            self._shard_inputs(state, shard_work, now) if state.incremental
            else [(None, None)] * len(shard_work)
        )
        for (shard, work), (columns, pairs) in zip(shard_work, inputs):
            prepared = self._prepare_shard(work, columns, pairs)
            prepare[shard] = Interval.since(start_ns)
            parts.append(assigner.assign(prepared))
            solve[shard] = Interval.since(prepare[shard].end_ns)
            start_ns = solve[shard].end_ns

        merged = merge_assignments(parts)
        waits, events = state.retire_pairs(merged, now)
        return RoundExecution(
            assignment=merged,
            waits=waits,
            events=events,
            prepare=prepare,
            solve=solve,
            merge=Interval.since(start_ns),
        )


class StreamRuntime:
    """Plays an event log through micro-batched assignment rounds.

    Parameters
    ----------
    assigner:
        The assignment algorithm run at every round.
    influence_model:
        The fitted influence model shared by all rounds (``None`` for
        influence-free assigners).
    trigger:
        The micro-batch policy (count / time window / hybrid / adaptive).
    base_instance:
        Context shared by every round instance: histories, social network,
        venue visits.  Its own worker/task lists are ignored — pools are
        fed exclusively by the event log.
    log:
        The time-ordered event stream to replay.
    end_time:
        Last round time; defaults to the latest expiry-event time (the
        online simulator's "latest task deadline"), falling back to the
        base instance's ``current_time`` for logs without deadlines.
    patience_hours:
        If set, unassigned workers churn out this many hours after arrival
        (strict, like the online simulator; ``inf`` never churns anyone,
        NaN is rejected); explicit
        :class:`~repro.stream.events.WorkerChurnEvent` entries work with or
        without it.
    incremental:
        Prepare rounds from the pools' columns and one pair enumeration
        (True, default) or from the entity objects through
        :class:`~repro.assignment.PreparedInstance` (False, the reference
        path).
    rng:
        Optional generator for stochastic policies; its state is captured
        by checkpoints so replays stay deterministic.
    shards:
        When set, rounds execute sharded: a
        :class:`~repro.stream.shards.ShardLayout` is planned from the log
        (radius-aware, at most ``shards`` shards).  ``None`` runs every
        round as one shard.  Either way rounds run through a
        :class:`ShardExecutor`, in the calling thread.
    executor:
        Deprecated and ignored: ``"serial"`` (default) or ``"thread"``.
        Every round solves in the calling thread; an unknown name is still
        rejected and ``"thread"`` emits a :class:`DeprecationWarning`.
    shard_cell_km:
        Planning cell size for the shard layout (default: the log's
        largest worker radius).
    pipeline:
        Deprecated and ignored; ``True`` still requires ``shards`` and
        emits a :class:`DeprecationWarning`.  ``executor`` and
        ``pipeline`` remain only because a registered benchmark workload
        still passes them; they go once that workload stops doing so.
    admission:
        Optional :class:`AdmissionController` deferring/shedding low-value
        task admissions when observed round latency exceeds its budget.
        ``None`` (the default) replays the exact ungated path — disabled
        admission control is provably a no-op.
    obs:
        Optional :class:`~repro.obs.Observability` bundle (metrics registry
        + span tracer).  The default, :data:`~repro.obs.NULL_OBS`, is fully
        inert; telemetry is pure observation either way — instruments only
        read values the runtime already computed, so obs-on and obs-off
        runs produce bit-identical results (pinned by differential tests).
    """

    def __init__(
        self,
        assigner: Assigner,
        influence_model: InfluenceModel | None,
        trigger: Trigger,
        base_instance: SCInstance,
        log: EventLog,
        end_time: float | None = None,
        patience_hours: float | None = None,
        incremental: bool = True,
        rng: np.random.Generator | None = None,
        shards: int | None = None,
        executor: str = "serial",
        shard_cell_km: float | None = None,
        admission: AdmissionController | None = None,
        pipeline: bool = False,
        obs: Observability | None = None,
    ) -> None:
        if patience_hours is not None and not patience_hours >= 0:
            raise ValueError(
                f"patience_hours must be non-negative, got {patience_hours}"
            )
        if executor not in ("serial", "thread"):
            raise ValueError(
                f"unknown executor backend {executor!r}; "
                "choose from serial, thread"
            )
        if pipeline and shards is None:
            raise ValueError("pipeline=True requires shards")
        if executor != "serial" or pipeline:
            warnings.warn(
                "StreamRuntime's executor= and pipeline= are ignored: every "
                "round solves in the calling thread",
                DeprecationWarning,
                stacklevel=2,
            )
        self.assigner = assigner
        self.trigger = trigger
        self.log = log
        self.patience_hours = patience_hours
        self.rng = rng
        self.admission = admission
        self.obs = obs if obs is not None else NULL_OBS
        self._instruments: dict[str, Any] | None = None
        if self.obs.registry.enabled:
            self._instruments = self._register_instruments(self.obs.registry)
        #: The *requested* shard configuration (vs the planned layout, which
        #: may use fewer bins); persisted in checkpoints so a resume with a
        #: different ``--shards``/cell size fails in the cheap pre-flight.
        #: ``None`` marks an unsharded run.
        self.shard_request: dict | None = None
        if shards is not None:
            layout = ShardLayout.plan(log, shards, cell_km=shard_cell_km)
            self.shard_request = {"shards": shards, "cell_km": shard_cell_km}
        else:
            # One bin holds every pair.  Built directly rather than planned:
            # planning a segmented log would synthesize every segment up
            # front.  A layout without cells maps every location to bin 0.
            layout = ShardLayout(
                cell_km=DEFAULT_CELL_KM, num_shards=1,
                max_radius_km=float("inf"),
            )
        self.shard_executor = ShardExecutor(layout, influence=influence_model)
        self.state = StreamState(base_instance, incremental=incremental)
        self._result = StreamResult()
        self._cursor = 0
        self._clock = base_instance.current_time
        self._start_time = base_instance.current_time
        self._end_time = end_time
        self._started = False
        self._done = False
        self._pending_start_round = False

    # ------------------------------------------------------------ properties
    @property
    def result(self) -> StreamResult:
        """The (possibly still accumulating) run outcome."""
        return self._result

    @property
    def done(self) -> bool:
        """Whether the stream has been fully played out."""
        return self._done

    @property
    def cursor(self) -> int:
        """Index of the next unconsumed log event."""
        return self._cursor

    @property
    def clock(self) -> float:
        """The last round time (or the start time before any round)."""
        return self._clock

    @property
    def end_time(self) -> float | None:
        """The resolved end of the run (None until started)."""
        return self._end_time if self._started else None

    # ----------------------------------------------------------------- start
    def _start(self) -> None:
        if self._started:
            return
        base = self.state.base_instance
        start = self.log.start_time()
        if start is None:
            start = base.current_time
        elif not self.log.has_arrivals():
            # Mirror OnlineSimulator: without arrivals the base instance's
            # clock can still precede the first publication.
            start = min(start, base.current_time)
        self._start_time = start
        self._clock = start
        if self._end_time is None:
            deadline = self.log.last_deadline()
            self._end_time = deadline if deadline is not None else base.current_time
        self._pending_start_round = self.trigger.fires_at_start
        self._started = True

    # ------------------------------------------------------------ scheduling
    def _next_fire_time(self) -> float:
        """When the next round fires: start round, count hit, boundary, or
        the final flush at the end time."""
        if self._pending_start_round:
            return self._start_time
        boundary = self.trigger.next_boundary(self._clock)
        if boundary is not None:
            boundary = min(boundary, self._end_time)
        count = self.trigger.count
        if count is not None:
            limit = self._end_time if boundary is None else boundary
            fire = self.log.next_count_time(self._cursor, count, limit)
            if fire is not None:
                return fire
        if boundary is not None:
            return boundary
        return self._end_time

    # ----------------------------------------------------------------- drain
    def _drain_until(self, fire_time: float) -> tuple[int, int, int, int, int]:
        """Apply every due event, then the expiry/churn sweeps.

        Admission events (arrival/publish/cancel/relocate) apply when
        ``time <= fire_time``; deferred events (expiry/churn) only when
        strictly earlier, so deadlines on the boundary do not bind in this
        round.  The due range is located with two ``searchsorted`` calls on
        the columnar log and applied straight from the columns — slab by
        slab through :meth:`EventLog.slices`, so a segmented log drains
        with only its current windows alive (and everything behind the
        cursor is released afterwards).  With an admission controller
        configured, a healthy round first re-admits the deferred backlog
        (original publication times intact), then gates the new publishes.
        """
        state = self.state
        stop = self.log.drain_stop(self._cursor, fire_time)
        gate = self.admission
        if self.admission is not None:
            final_flush = fire_time >= self._end_time
            for task_id, position, published in self.admission.release(
                force=final_flush
            ):
                state.apply_kind(
                    KIND_PUBLISH, published, task_id, position,
                    task=self.log.task_at(position),
                )
            if final_flush and self.admission.policy == "defer":
                gate = None  # deferring at the end of the stream drops work
        expired = churned = cancelled = relocated = 0
        for slab, local_start, local_stop, base in self.log.slices(
            self._cursor, stop
        ):
            slab_counts = state.apply_log_slice(
                slab, local_start, local_stop, admission=gate, offset=base
            )
            expired += slab_counts[0]
            churned += slab_counts[1]
            cancelled += slab_counts[2]
            relocated += slab_counts[3]
        drained = stop - self._cursor
        self._cursor = stop
        self.log.release_before(self._cursor)
        expired += len(state.expire_tasks(fire_time))
        churned += len(state.churn_workers(fire_time, self.patience_hours))
        return drained, expired, churned, cancelled, relocated

    # ----------------------------------------------------------------- round
    def _fire_round(self, fire_time: float) -> RoundRecord:
        round_index = len(self._result.rounds)
        round_start_ns = clock_ns()
        drained, expired, churned, cancelled, relocated = self._drain_until(
            fire_time
        )
        drain = Interval.since(round_start_ns)
        state = self.state
        pool_workers = state.num_online_workers
        pool_tasks = state.num_open_tasks
        assigned = 0
        elapsed = 0.0
        execution = None
        prepare_seconds = solve_seconds = merge_seconds = 0.0
        if pool_workers and pool_tasks:
            execution = self.shard_executor.run_round(
                state, self.assigner, fire_time
            )
            elapsed = Interval.since(drain.end_ns).seconds
            assignment = execution.assignment
            prepare_seconds = execution.prepare_seconds
            solve_seconds = execution.solve_seconds
            merge_seconds = execution.merge_seconds
            result = self._result
            result.assignment.extend(assignment)
            result.worker_events.extend(execution.events[:, 0].tolist())
            result.task_events.extend(execution.events[:, 1].tolist())
            result.metrics.on_assigned(execution.waits[:, 0], execution.waits[:, 1])
            assigned = len(assignment)
        deferred = shed = 0
        if self.admission is not None:
            deferred, shed = self.admission.take_round_counts()
        record = RoundRecord(
            index=round_index,
            time=fire_time,
            online_workers=pool_workers,
            open_tasks=pool_tasks,
            drained_events=drained,
            assigned=assigned,
            expired_tasks=expired,
            churned_workers=churned,
            cancelled_tasks=cancelled,
            round_seconds=elapsed,
            relocated_workers=relocated,
            deferred_tasks=deferred,
            shed_tasks=shed,
            drain_seconds=drain.seconds,
            prepare_seconds=prepare_seconds,
            solve_seconds=solve_seconds,
            merge_seconds=merge_seconds,
        )
        self._result.metrics.on_round(record)
        self.trigger.on_round(record)
        if self.admission is not None:
            self.admission.on_round(record)
        self._clock = fire_time
        self._pending_start_round = False
        if fire_time >= self._end_time:
            self._done = True
        if self.obs.tracer.enabled:
            self._trace_round(
                record, Interval.since(round_start_ns), drain, execution
            )
        if self.obs.enabled:
            self._observe_round(record)
        return record

    def _trace_round(
        self,
        record: RoundRecord,
        whole: Interval,
        drain: Interval,
        execution: RoundExecution | None,
    ) -> None:
        """Emit one finished round's spans from its measured intervals.

        Each phase span is the interval its ``RoundRecord`` field was
        derived from, so the spans and the record agree exactly.
        """
        tracer = self.obs.tracer

        def emit(name: str, cat: str, interval: Interval, args: dict) -> None:
            tracer.complete(
                name, interval.start_ns, interval.end_ns, cat=cat, args=args
            )

        index = record.index
        emit("round.drain", "stream", drain,
             {"round": index, "events": record.drained_events})
        if execution is not None:
            for phase in ("prepare", "solve"):
                for shard, interval in getattr(execution, phase).items():
                    emit(f"shard.{phase}", "shard", interval,
                         {"shard": shard, "round": index})
            emit("round.merge", "stream", execution.merge,
                 {"round": index, "pairs": len(execution.assignment)})
        emit("round", "stream", whole, {
            "round": index,
            "time": record.time,
            "online_workers": record.online_workers,
            "open_tasks": record.open_tasks,
            "assigned": record.assigned,
        })

    @staticmethod
    def _register_instruments(registry: MetricsRegistry) -> dict[str, Any]:
        """Register the runtime's metric families, each with its children, so
        a scrape before the first round already renders every one of them."""
        phase_seconds = registry.histogram(
            "repro_stream_phase_seconds",
            "Per-round phase spans (cumulative across shards).",
            labels=("phase",),
            **SECONDS_HISTOGRAM,
        )
        return {
            "rounds": registry.counter(
                "repro_stream_rounds_total", "Assignment rounds fired."
            ),
            "events": registry.counter(
                "repro_stream_events_drained_total",
                "Event-log entries drained into rounds.",
            ),
            "assigned": registry.counter(
                "repro_stream_assigned_total",
                "Task-worker pairs assigned.",
            ),
            "expired": registry.counter(
                "repro_stream_expired_tasks_total",
                "Tasks that expired unassigned.",
            ),
            "churned": registry.counter(
                "repro_stream_churned_workers_total",
                "Workers that left unassigned.",
            ),
            "deferred": registry.counter(
                "repro_stream_deferred_tasks_total",
                "Task admissions deferred by the admission controller.",
            ),
            "shed": registry.counter(
                "repro_stream_shed_tasks_total",
                "Task admissions shed by the admission controller.",
            ),
            "workers": registry.gauge(
                "repro_stream_online_workers",
                "Online workers at the last round's start.",
            ),
            "tasks": registry.gauge(
                "repro_stream_open_tasks",
                "Open tasks at the last round's start.",
            ),
            "round_seconds": registry.histogram(
                "repro_stream_round_seconds",
                "Wall-clock cost of the assignment computation per round.",
                **SECONDS_HISTOGRAM,
            ),
            # One child per phase up front, so the family renders whole.
            "phases": {
                phase: phase_seconds.labels(phase)
                for phase in ("drain", "prepare", "solve", "merge")
            },
        }

    def _observe_round(self, record: RoundRecord) -> None:
        """Fold one finished round into the registry + instant events.

        Pure observation: everything recorded here is read off the
        :class:`RoundRecord` the runtime already built, so enabling
        telemetry cannot perturb results.
        """
        tracer = self.obs.tracer
        if tracer.enabled:
            if record.deferred_tasks or record.shed_tasks:
                tracer.instant(
                    "admission.diverted", cat="admission",
                    args={
                        "round": record.index,
                        "deferred": record.deferred_tasks,
                        "shed": record.shed_tasks,
                        "overloaded": bool(
                            self.admission is not None
                            and self.admission.overloaded
                        ),
                    },
                )
        instruments = self._instruments
        if instruments is None:
            return
        instruments["rounds"].inc()
        instruments["events"].inc(record.drained_events)
        instruments["assigned"].inc(record.assigned)
        instruments["expired"].inc(record.expired_tasks)
        instruments["churned"].inc(record.churned_workers)
        instruments["deferred"].inc(record.deferred_tasks)
        instruments["shed"].inc(record.shed_tasks)
        instruments["workers"].set(record.online_workers)
        instruments["tasks"].set(record.open_tasks)
        instruments["round_seconds"].record(record.round_seconds)
        for phase, histogram in instruments["phases"].items():
            histogram.record(getattr(record, f"{phase}_seconds"))

    # ------------------------------------------------------------------- run
    def run(self, max_rounds: int | None = None) -> StreamResult:
        """Play the stream until done (or for ``max_rounds`` more rounds).

        Repeated calls continue where the previous one stopped; once the
        stream is exhausted the accumulated result is simply returned.
        """
        if max_rounds is not None and max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        self._start()
        start_ns = clock_ns()
        fired = 0
        try:
            while not self._done and (max_rounds is None or fired < max_rounds):
                self._fire_round(self._next_fire_time())
                fired += 1
        finally:
            self._result.metrics.add_wall_seconds(Interval.since(start_ns).seconds)
        return self._result

    def close(self) -> None:
        """A no-op: rounds run in the calling thread, so the runtime holds
        nothing to release.  Kept so ``with StreamRuntime(...)`` works."""

    def __enter__(self) -> "StreamRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------- checkpoints
    def checkpoint(self, path: str | Path) -> Path:
        """Snapshot the complete runtime state to a chunked v8 checkpoint.

        Atomic (a crash mid-save leaves any previous checkpoint intact)
        and incremental (successive snapshots share unchanged chunks
        through the ``repro-chunks`` store), so calling this every few
        rounds is cheap.  Returns the canonical manifest path.
        """
        from repro.stream.checkpoint import save_checkpoint

        return save_checkpoint(self, path)

    @classmethod
    def resume(
        cls,
        path: str | Path,
        assigner: Assigner,
        influence_model: InfluenceModel | None,
        trigger: Trigger,
        base_instance: SCInstance,
        log: EventLog,
        patience_hours: float | None = None,
        incremental: bool = True,
        rng: np.random.Generator | None = None,
        shards: int | None = None,
        shard_cell_km: float | None = None,
        admission: AdmissionController | None = None,
        obs: Observability | None = None,
    ) -> "StreamRuntime":
        """Reconstruct a runtime from a checkpoint and the original log.

        The caller supplies the same (deterministic) collaborators the
        checkpointed run used; the snapshot restores cursor, clock, pools,
        accumulated results, trigger adaptation state, admission-control
        state (overload flag + deferred backlog) and the runtime's RNG
        state, after verifying the log fingerprint — and, for sharded
        runs, the replanned layout — matches.
        """
        from repro.stream.checkpoint import restore_runtime

        runtime = cls(
            assigner,
            influence_model,
            trigger,
            base_instance,
            log,
            patience_hours=patience_hours,
            incremental=incremental,
            rng=rng,
            shards=shards,
            shard_cell_km=shard_cell_km,
            admission=admission,
            obs=obs,
        )
        restore_runtime(runtime, path)
        return runtime
