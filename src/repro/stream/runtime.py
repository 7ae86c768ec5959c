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
run, radius-aware, so no feasible pair is ever split), runs candidate
generation + assignment per shard — serially or on a thread/process pool —
and merges per-shard assignments in deterministic sorted-shard order
through the same :func:`~repro.assignment.partitioned.merge_assignments`
core the offline :class:`~repro.assignment.PartitionedAssigner` uses.
Because no feasible pair crosses shards, the sharded round solves the same
problem as the unsharded one, split into independent sub-problems.  An
unsharded runtime is simply the one-shard case: a fixed single-bin layout
on the serial backend, so there is one round path.

Two optional layers sit on top of sharding.  **Pipelining**
(``StreamRuntime(pipeline=True)``) overlaps the per-shard phases on the
executor's pool instead of running prepare-all-then-solve-all; results are
collected and merged in ascending shard order, so the rounds stay
bit-identical to the serial schedule.  **Latency-driven rebalancing**
(``StreamRuntime(rebalance=ShardRebalancer(...))``) replaces the planner's
count-based component→shard packing with an EWMA of observed per-component
solve latency, repacked at deterministic round-index boundaries — whole
components move between bins, so the never-split invariant (and hence
assignment equivalence) is untouched.  Per-phase timings
(drain/prepare/solve/merge) and repack counts land on every
:class:`~repro.stream.metrics.RoundRecord`.

The runtime is resumable: ``run(max_rounds=...)`` stops after a bounded
number of rounds with all state intact, :meth:`checkpoint` snapshots that
state to disk (including shard layout and per-shard RNG state), and
:meth:`resume` reconstructs a runtime that continues the run bit-identically
(regression-tested against an uninterrupted run).
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.assignment.base import Assigner, PreparedInstance, RoundState
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
from repro.stream.shards import DEFAULT_CELL_KM, ShardLayout, ShardRebalancer
from repro.stream.sharedmem import (
    ShardScratch,
    fork_capable_context,
    solve_shared_shard,
)
from repro.stream.state import StreamState


def _locations(entities: list) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, y)`` coordinate arrays of workers' or tasks' locations."""
    count = len(entities)
    return (
        np.fromiter((entity.location.x for entity in entities), np.float64, count),
        np.fromiter((entity.location.y for entity in entities), np.float64, count),
    )


def _split(entities: list, shards: np.ndarray, num_shards: int) -> list[list]:
    """``entities`` grouped by shard, one list per shard id, each in input
    order (one stable argsort)."""
    order = np.argsort(shards, kind="stable")
    bounds = np.searchsorted(shards[order], np.arange(num_shards + 1)).tolist()
    ordered = [entities[position] for position in order.tolist()]
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


#: Deterministic entropy pool for per-shard generators; spawn key = shard id.
_SHARD_RNG_ENTROPY = 0x5AD5

#: Recognized :class:`ShardExecutor` backends.
EXECUTOR_BACKENDS = ("serial", "thread", "process")

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


def _solve_shard(
    assigner: Assigner, shard: int, prepared: PreparedInstance
) -> tuple[int, Assignment, Interval]:
    """One shard's timed solve, in the calling thread or on a pool thread.

    The interval carries the thread that ran the solve, so its trace span
    lands on that thread's row.
    """
    start_ns = clock_ns()
    part = assigner.assign(prepared)
    return shard, part, Interval.since(start_ns)


@dataclass(frozen=True)
class RoundExecution:
    """One round's outcome with its measured phase intervals.

    ``prepare`` and ``solve`` map each solved shard to its interval, and
    ``merge`` is the merge interval; the runtime derives the round
    record's seconds and the trace spans from these same intervals.  The
    phase seconds are *cumulative across shards*: under the pipelined
    executor the per-shard prepare/solve intervals overlap in time, so
    their sum can exceed the round's wall clock — that gap is the overlap
    win.  ``events`` holds each pair's recorded ``(worker_event,
    task_event)`` log indices, in pair order.
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

    @property
    def shard_seconds(self) -> dict[int, float]:
        """Per-shard solve seconds (the latency rebalancer's input)."""
        return {shard: interval.seconds for shard, interval in self.solve.items()}


class ShardExecutor:
    """Runs one assignment round as independent per-shard solves.

    Each round: route each id-sorted live pool with one
    :meth:`~repro.stream.shards.ShardLayout.shards_of` call and split it
    by one stable argsort on shard (so every shard lists its entities by
    ascending id), prepare every non-empty shard through its own persistent
    :class:`~repro.assignment.RoundState` (the previous round's matrices,
    per shard), solve the shards on the configured backend, and merge the
    per-shard assignments in ascending shard order.  An unsharded
    :class:`StreamRuntime` runs a one-shard serial executor, so this is
    the only round path.

    In the default (non-pipelined) mode preparation happens in the calling
    thread — prepared instances are fully materialized (feasibility,
    influence, entropy) before dispatch, so workers only run the solver.
    In **pipelined** mode (``run_round(..., pipeline=True)``) the phases
    overlap: on the thread backend each shard's prepare+solve runs as one
    unit on the pool (per-shard ``RoundState`` objects are disjoint and the
    influence model's column caches are lock-protected, so concurrent
    prepares are safe); on the process backend preparation stays in the
    caller — the caches live in this process — but each shard is submitted
    as soon as it is prepared, so earlier shards solve while later shards
    prepare.  Results are always collected in ascending shard order and
    every prepared instance is deterministic regardless of which thread
    built it, so pipelined rounds are bit-identical to serial ones.

    Backends
    --------
    ``serial``
        Solve shards one after another in the calling thread.  Already
        faster than unsharded on decomposable worlds: k shards of n/k
        entities beat one solve of n for any super-linear solver.
    ``thread``
        A :class:`~concurrent.futures.ThreadPoolExecutor`; effective for
        numpy-heavy solvers that release the GIL.
    ``process``
        A fork-once :class:`~concurrent.futures.ProcessPoolExecutor` over
        shared memory: each round copies the prepared rectangles and the
        pooled entities' attribute rows into a reusable per-shard
        :class:`~repro.stream.sharedmem.ShardScratch` block, submits only a
        small header dict, and workers return plain index pairs — nothing
        but the assigner itself is pickled per round, which is what lets
        CPU-bound solves beat the thread backend.  A crashed worker
        surfaces as a :class:`RuntimeError` naming the shard and round (not
        a bare ``BrokenProcessPool``), and :meth:`close` stays safe
        afterwards.

    A per-shard :class:`numpy.random.Generator` stream is maintained (and
    checkpointed for sharded runs): :meth:`rng_for` is the seed source for
    stochastic assignment policies run inside a shard (deterministic
    assigners never consume it).  When the runtime was given a user
    generator the shard streams are spawned from it (so the user's seed
    governs them); without one they fall back to a fixed entropy pool —
    deterministic either way.
    """

    def __init__(
        self,
        layout: ShardLayout,
        influence: InfluenceModel | None = None,
        backend: str = "serial",
        max_workers: int | None = None,
        rng: np.random.Generator | None = None,
        rebalancer: ShardRebalancer | None = None,
    ) -> None:
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; "
                f"choose from {', '.join(EXECUTOR_BACKENDS)}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.layout = layout
        self.influence = influence
        self.backend = backend
        self.rebalancer = rebalancer
        # Cap the default at the core count: pools wider than the machine
        # only add fork/pickle overhead (notably on the process backend).
        self.max_workers = max_workers or min(
            layout.num_shards, os.cpu_count() or 1
        )
        self.round_states: dict[int, RoundState] = {}
        if rng is not None:
            spawned = rng.spawn(layout.num_shards)
            self.rngs: dict[int, np.random.Generator] = dict(enumerate(spawned))
        else:
            self.rngs = {
                shard: np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=_SHARD_RNG_ENTROPY, spawn_key=(shard,)
                    )
                )
                for shard in range(layout.num_shards)
            }
        self._pool: _FuturesExecutor | None = None
        self._broken = False
        self._scratch: dict[int, ShardScratch] = {}

    def rng_for(self, shard: int) -> np.random.Generator:
        """The checkpointed random stream owned by ``shard``."""
        return self.rngs[shard]

    # ----------------------------------------------------------------- round
    def _prepare_shard(
        self, shard: int, state: StreamState, sub_instance: SCInstance
    ) -> PreparedInstance:
        if state.incremental:
            round_state = self.round_states.get(shard)
            if round_state is None:
                round_state = self.round_states[shard] = RoundState(self.influence)
            return round_state.prepare(sub_instance)
        prepared = PreparedInstance(sub_instance, self.influence)
        # Force the lazy caches now, in the calling thread (see class doc).
        prepared.feasible
        prepared.influence_matrix
        prepared.entropy_by_task
        return prepared

    def _pool_executor(self) -> _FuturesExecutor:
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            else:
                # Fork-once: the workers inherit the loaded modules, and
                # every round reaches them through scratch-block headers.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=fork_capable_context(),
                )
        return self._pool

    def _shard_result(self, future, shard: int, round_index: int | None):
        """Await one shard's future, translating pool breakage.

        A crashed worker (OOM-killed, segfaulted C extension, ``os._exit``)
        surfaces from :mod:`concurrent.futures` as a contextless
        ``BrokenProcessPool``; name the shard and round instead, and mark
        the pool broken so :meth:`close` never waits on it.
        """
        try:
            return future.result()
        except BrokenProcessPool as error:
            self._broken = True
            where = (
                f"round {round_index}" if round_index is not None
                else "the current round"
            )
            raise RuntimeError(
                f"process-backend worker crashed while solving shard {shard} "
                f"in {where}; the worker pool is broken — close() the "
                "runtime and resume from its last checkpoint"
            ) from error

    def _publish_shard(
        self, shard: int, prepared: PreparedInstance, now: float
    ) -> dict:
        """Copy one prepared shard into its scratch block; returns the header.

        The block carries the round rectangles plus the pooled entities'
        attribute rows and ids in shard-row order, so a worker rebuilds
        the shard from the block alone — O(workers + tasks) per round
        beside the O(workers x tasks) rectangles already copied.
        """
        feasible = prepared.feasible
        workers, tasks = feasible.workers, feasible.tasks
        scratch = self._scratch.get(shard)
        if scratch is None:
            scratch = self._scratch[shard] = ShardScratch()
        return scratch.publish(
            shard=shard,
            now=now,
            distance=feasible.distance_km,
            mask=feasible.mask,
            influence=prepared.influence_matrix,
            entropy=np.fromiter(
                (prepared.entropy_by_task[task.task_id] for task in tasks),
                dtype=np.float64, count=len(tasks),
            ),
            worker_attrs=np.array(
                [
                    (w.location.x, w.location.y, w.reachable_km, w.speed_kmh)
                    for w in workers
                ],
                dtype=np.float64,
            ).reshape(len(workers), 4),
            worker_ids=np.fromiter(
                (w.worker_id for w in workers), dtype=np.int64, count=len(workers)
            ),
            task_attrs=np.array(
                [
                    (t.location.x, t.location.y, t.publication_time, t.valid_hours)
                    for t in tasks
                ],
                dtype=np.float64,
            ).reshape(len(tasks), 4),
            task_ids=np.fromiter(
                (t.task_id for t in tasks), dtype=np.int64, count=len(tasks)
            ),
        )

    def _submit(
        self, assigner: Assigner, shard: int, prepared: PreparedInstance, now: float
    ):
        """Dispatch one prepared shard's solve to the worker pool."""
        pool = self._pool_executor()
        if self.backend == "process":
            header = self._publish_shard(shard, prepared, now)
            return pool.submit(solve_shared_shard, assigner, header)
        return pool.submit(_solve_shard, assigner, shard, prepared)

    def _prepare_and_solve(
        self,
        shard: int,
        state: StreamState,
        sub_instance: SCInstance,
        assigner: Assigner,
    ) -> tuple[int, Assignment, Interval, Interval]:
        """One shard's prepare+solve unit (the pipelined thread-pool task).

        Returns the prepare and solve intervals, which meet at the one
        clock reading taken when the prepare returns.
        """
        start_ns = clock_ns()
        prepared = self._prepare_shard(shard, state, sub_instance)
        prepare = Interval.since(start_ns)
        part = assigner.assign(prepared)
        return shard, part, prepare, Interval.since(prepare.end_ns)

    def _component_entities(self, *locations: tuple[np.ndarray, np.ndarray]) -> dict[int, int]:
        """Pooled entities per layout component (rebalancer attribution),
        from the pools' ``(x, y)`` coordinate arrays."""
        components = np.concatenate([self.layout.components_of(*xy) for xy in locations])
        values, counts = np.unique(components[components >= 0], return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def run_round(
        self,
        state: StreamState,
        assigner: Assigner,
        now: float,
        pipeline: bool = False,
        round_index: int | None = None,
    ) -> RoundExecution:
        """Solve one round shard-by-shard and retire the matched pairs.

        Returns a :class:`RoundExecution` carrying the merged assignment and
        each pair's ``(task_wait, worker_wait)`` hours (publication/arrival
        to ``now``), in pair order.  Each pool is routed in ascending id
        order with one :meth:`~repro.stream.shards.ShardLayout.shards_of`
        call and split by one stable argsort on shard, so each shard's
        instance lists its entities by ascending id and is deterministic.
        ``pipeline=True`` overlaps the per-shard phases (see the class
        docstring); it is a no-op on the serial backend and for rounds with
        at most one populated shard.  ``round_index`` labels worker-crash
        errors.
        """
        layout = self.layout
        pooled_workers = [state.workers[key] for key in sorted(state.workers)]
        pooled_tasks = [state.tasks[key] for key in sorted(state.tasks)]
        worker_xy, task_xy = _locations(pooled_workers), _locations(pooled_tasks)
        shard_workers = _split(
            pooled_workers, layout.shards_of(*worker_xy), layout.num_shards
        )
        shard_tasks = _split(pooled_tasks, layout.shards_of(*task_xy), layout.num_shards)
        component_entities = (
            self._component_entities(worker_xy, task_xy)
            if self.rebalancer is not None else {}
        )
        shard_instances: list[tuple[int, SCInstance]] = []
        for shard, (workers, tasks) in enumerate(zip(shard_workers, shard_tasks)):
            if not workers or not tasks:
                continue
            sub_instance = state.base_instance.with_workers(workers).with_tasks(tasks)
            sub_instance.current_time = now
            shard_instances.append((shard, sub_instance))

        prepare: dict[int, Interval] = {}
        solve: dict[int, Interval] = {}
        parts: list[Assignment] = []

        def collect(shard: int, part: Assignment, solved: Interval) -> None:
            parts.append(part)
            solve[shard] = solved

        pooled = self.backend != "serial" and len(shard_instances) > 1
        if pooled and pipeline and self.backend == "thread":
            # Whole prepare+solve units on the pool: shard k+1 prepares
            # while shard k solves, and collection in ascending shard
            # order merges finished shards while later ones still run.
            pool = self._pool_executor()
            futures = [
                pool.submit(
                    self._prepare_and_solve, shard, state, sub, assigner
                )
                for shard, sub in shard_instances
            ]
            for (shard, _), future in zip(shard_instances, futures):
                shard, part, prepare[shard], solved = self._shard_result(
                    future, shard, round_index
                )
                collect(shard, part, solved)
        else:
            # Prepare in the calling thread (the influence caches live
            # here).  A pipelined process round submits each shard the
            # moment it is prepared, so earlier shards solve while later
            # shards prepare; otherwise every shard prepares first.  The
            # scratch publish and submit belong to no phase.
            work: list[tuple[int, PreparedInstance, Any]] = []
            for shard, sub_instance in shard_instances:
                start_ns = clock_ns()
                prepared = self._prepare_shard(shard, state, sub_instance)
                prepare[shard] = Interval.since(start_ns)
                future = (
                    self._submit(assigner, shard, prepared, now)
                    if pooled and pipeline else None
                )
                work.append((shard, prepared, future))
            if not pooled:
                for shard, prepared, _ in work:
                    collect(*_solve_shard(assigner, shard, prepared))
            else:
                futures = [
                    future if future is not None
                    else self._submit(assigner, shard, prepared, now)
                    for shard, prepared, future in work
                ]
                for (shard, prepared, _), future in zip(work, futures):
                    _, part, solved = self._shard_result(
                        future, shard, round_index
                    )
                    if self.backend == "process":
                        # Workers return (row, column) index arrays;
                        # materialize them against the caller's
                        # full-fidelity prepared instance (which
                        # re-validates feasibility and one-to-one matching).
                        part = prepared.build_assignment(part)
                    collect(shard, part, solved)

        start_ns = clock_ns()
        merged = merge_assignments(parts)
        waits, events = state.retire_pairs(merged, now)
        execution = RoundExecution(
            assignment=merged,
            waits=waits,
            events=events,
            prepare=prepare,
            solve=solve,
            merge=Interval.since(start_ns),
        )
        if self.rebalancer is not None:
            self.rebalancer.observe(
                layout, execution.shard_seconds, component_entities
            )
        return execution

    def maybe_repack(self, round_index: int) -> int:
        """Apply a latency-driven repack at this round boundary.

        Returns the number of repacks applied (0 or 1).  Delegates the
        decision to the configured :class:`ShardRebalancer`; without one
        the layout is immutable and this is a no-op.
        """
        if self.rebalancer is None:
            return 0
        repacked = self.rebalancer.maybe_repack(round_index, self.layout)
        if repacked is None:
            return 0
        self.layout = repacked
        return 1

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the pool and release shared memory (idempotent).

        Safe after a worker crash: a broken process pool is shut down
        without waiting (``shutdown(wait=True)`` can hang forever on
        workers that will never answer), pending futures are cancelled,
        and the scratch blocks are always unlinked.  The executor stays
        reusable — the next round recreates everything.
        """
        pool, self._pool = self._pool, None
        broken, self._broken = self._broken, False
        try:
            if pool is not None:
                if broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    pool.shutdown(wait=True)
        finally:
            for scratch in self._scratch.values():
                scratch.close()
            self._scratch.clear()

    # ----------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """Layout + per-shard RNG states (+ EWMA state when rebalancing)."""
        state = {
            "layout": self.layout.state_dict(),
            "rngs": [
                self.rngs[shard].bit_generator.state
                for shard in range(self.layout.num_shards)
            ],
        }
        if self.rebalancer is not None:
            state["rebalance"] = self.rebalancer.state_dict()
        return state

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore per-shard RNG (and EWMA) state; layout validated upstream."""
        for shard, rng_state in enumerate(state["rngs"]):
            self.rngs[shard].bit_generator.state = rng_state
        if self.rebalancer is not None and state.get("rebalance") is not None:
            self.rebalancer.load_state_dict(state["rebalance"])


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
        Prepare rounds through the persistent per-shard round caches
        (True, default) or from scratch every round (False, the reference
        path).
    rng:
        Optional generator for stochastic policies; its state is captured
        by checkpoints so replays stay deterministic.
    shards:
        When set, rounds execute sharded: a
        :class:`~repro.stream.shards.ShardLayout` is planned from the log
        (radius-aware, at most ``shards`` shards).  ``None`` runs every
        round as one shard on the serial backend.  Either way rounds run
        through a :class:`ShardExecutor`.
    executor:
        Shard backend: ``"serial"`` (default), ``"thread"`` or
        ``"process"``; ignored without ``shards``.
    shard_cell_km:
        Planning cell size for the shard layout (default: the log's
        largest worker radius).
    pipeline:
        Overlap the per-shard round phases on the executor's worker pool
        (see :class:`ShardExecutor`): bit-identical results, lower round
        wall clock.  Requires ``shards``; a no-op on the serial backend.
    rebalance:
        Optional :class:`~repro.stream.shards.ShardRebalancer` repacking
        the component→shard layout from an EWMA of observed per-component
        solve latency at deterministic round boundaries.  Requires
        ``shards``; assignments stay equivalent under any repack because
        only whole never-split components move between bins.
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
        rebalance: ShardRebalancer | None = None,
        obs: Observability | None = None,
    ) -> None:
        if patience_hours is not None and not patience_hours >= 0:
            raise ValueError(
                f"patience_hours must be non-negative, got {patience_hours}"
            )
        if pipeline and shards is None:
            raise ValueError("pipeline=True requires shards")
        if rebalance is not None and shards is None:
            raise ValueError("rebalance requires shards")
        self.assigner = assigner
        self.trigger = trigger
        self.log = log
        self.patience_hours = patience_hours
        self.rng = rng
        self.admission = admission
        self.pipeline = pipeline
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
            executor = "serial"
        self.shard_executor = ShardExecutor(
            layout, influence=influence_model, backend=executor, rng=rng,
            rebalancer=rebalance,
        )
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
                state, self.assigner, fire_time, pipeline=self.pipeline,
                round_index=round_index,
            )
            elapsed = Interval.since(drain.end_ns).seconds
            assignment = execution.assignment
            prepare_seconds = execution.prepare_seconds
            solve_seconds = execution.solve_seconds
            merge_seconds = execution.merge_seconds
            result = self._result
            result.assignment.extend(assignment)
            for (task_wait, worker_wait), (worker_event, task_event) in zip(
                execution.waits, execution.events
            ):
                result.worker_events.append(worker_event)
                result.task_events.append(task_event)
                result.metrics.on_assigned(task_wait, worker_wait)
            assigned = len(assignment)
        # Latency-driven repacking fires at deterministic round-index
        # boundaries, after this round's EWMA observation and before the
        # next round's bucketing — never on wall-clock.
        repacks = self.shard_executor.maybe_repack(round_index)
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
            repacks=repacks,
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
                name, interval.start_ns, interval.end_ns, cat=cat,
                pid=interval.pid, tid=interval.tid, args=args,
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
            "repacks": registry.counter(
                "repro_stream_repacks_total",
                "Shard-layout repacks applied at round boundaries.",
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
            if record.repacks:
                decision = (
                    self.shard_executor.rebalancer.last_decision
                    if self.shard_executor.rebalancer is not None
                    else None
                )
                tracer.instant(
                    "shards.repack", cat="shard",
                    args=decision or {"round": record.index},
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
        instruments["repacks"].inc(record.repacks)
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
        """Release executor resources (worker pools, shared memory); the
        runtime stays resumable — a later ``run`` simply recreates them.
        Idempotent, including after a worker crash broke the process pool:
        closing twice (or a runtime that never ran) is a no-op and never
        hangs."""
        self.shard_executor.close()

    def __enter__(self) -> "StreamRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------- checkpoints
    def checkpoint(self, path: str | Path) -> Path:
        """Snapshot the complete runtime state to a chunked v7 checkpoint.

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
        executor: str = "serial",
        shard_cell_km: float | None = None,
        admission: AdmissionController | None = None,
        pipeline: bool = False,
        rebalance: ShardRebalancer | None = None,
        obs: Observability | None = None,
    ) -> "StreamRuntime":
        """Reconstruct a runtime from a checkpoint and the original log.

        The caller supplies the same (deterministic) collaborators the
        checkpointed run used; the snapshot restores cursor, clock, pools,
        accumulated results, trigger adaptation state, admission-control
        state (overload flag + deferred backlog), shard layout and RNG
        state (runtime-level and per-shard), after verifying the log
        fingerprint — and, for sharded runs, the replanned layout —
        matches.  Pipeline/rebalance configuration must match the
        checkpointed run too; with rebalancing, the saved (possibly
        repacked) layout and EWMA state are adopted so repack decisions
        replay exactly.
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
            executor=executor,
            shard_cell_km=shard_cell_km,
            admission=admission,
            pipeline=pipeline,
            rebalance=rebalance,
            obs=obs,
        )
        restore_runtime(runtime, path)
        return runtime
