"""Shared assignment machinery: feasibility and per-instance caches.

Feasibility of a worker-task pair (paper Section IV-A):

1. the task is inside the worker's reachable circle:
   ``d(w.l, s.l) <= w.r``;
2. the worker can arrive before expiry:
   ``t + t(w.l, s.l) <= s.p + s.phi``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.data.instance import SCInstance
from repro.entities import Assignment, Task, Worker
from repro.geo import pairwise_euclidean
from repro.influence import InfluenceModel, entropy_of_tasks


@dataclass(frozen=True)
class FeasiblePairs:
    """The feasibility structure of one instance.

    Attributes
    ----------
    workers / tasks:
        The candidate workers and open tasks, in matrix order.
    distance_km:
        Dense ``C x T`` worker-task distances.
    mask:
        Dense ``C x T`` boolean feasibility matrix.
    """

    workers: tuple[Worker, ...]
    tasks: tuple[Task, ...]
    distance_km: np.ndarray
    mask: np.ndarray

    @property
    def num_feasible(self) -> int:
        """``m`` — the number of available assignments over all workers."""
        return int(self.mask.sum())

    def feasible_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(worker_rows, task_columns)`` of all feasible pairs."""
        return np.nonzero(self.mask)


def compute_feasible(
    workers: list[Worker], tasks: list[Task], current_time: float
) -> FeasiblePairs:
    """Evaluate both feasibility conditions for every worker-task pair."""
    if not workers or not tasks:
        return FeasiblePairs(
            workers=tuple(workers),
            tasks=tuple(tasks),
            distance_km=np.zeros((len(workers), len(tasks))),
            mask=np.zeros((len(workers), len(tasks)), dtype=bool),
        )
    distance = pairwise_euclidean(
        [w.location for w in workers], [t.location for t in tasks]
    )
    radius = np.array([w.reachable_km for w in workers])[:, None]
    speed = np.array([w.speed_kmh for w in workers])[:, None]
    deadline = np.array([t.expiry_time for t in tasks])[None, :]
    reachable = distance <= radius
    in_time = current_time + distance / speed <= deadline
    return FeasiblePairs(
        workers=tuple(workers),
        tasks=tuple(tasks),
        distance_km=distance,
        mask=reachable & in_time,
    )


class PreparedInstance:
    """Caches the per-instance structures every algorithm shares.

    The paper's CPU-time metric covers the *assignment* computation; the
    influence matrix is part of the worker-task influence modeling component
    and is computed once per instance, shared by all algorithms.
    """

    def __init__(self, instance: SCInstance, influence: InfluenceModel | None = None) -> None:
        self.instance = instance
        self.influence = influence

    @cached_property
    def feasible(self) -> FeasiblePairs:
        """Feasibility structure of this instance."""
        return compute_feasible(
            self.instance.workers, self.instance.tasks, self.instance.current_time
        )

    @cached_property
    def influence_matrix(self) -> np.ndarray:
        """``if(w, s)`` per candidate worker and task (zeros if no model)."""
        if self.influence is None:
            return np.zeros((len(self.instance.workers), len(self.instance.tasks)))
        return self.influence.influence_matrix(self.instance.workers, self.instance.tasks)

    @cached_property
    def entropy_by_task(self) -> dict[int, float]:
        """Location entropy per task id (for EIA)."""
        return entropy_of_tasks(self.instance.tasks, self.instance.venue_visits)

    def entropy_vector(self) -> np.ndarray:
        """Location entropies aligned with the task axis of the matrices."""
        return np.array(
            [self.entropy_by_task[t.task_id] for t in self.instance.tasks]
        )

    def build_assignment(
        self,
        pairs: "list[tuple[int, int]] | tuple[np.ndarray, np.ndarray]",
    ) -> Assignment:
        """Materialize an :class:`Assignment` from (worker_row, task_column)
        index pairs, validating feasibility and one-to-one matching.

        Accepts a list of index tuples or a ``(rows, cols)`` pair of index
        arrays — the array form validates vectorized and only falls back to
        the scalar walk to reproduce its precise error messages.
        """
        if (
            isinstance(pairs, tuple)
            and len(pairs) == 2
            and isinstance(pairs[0], np.ndarray)
        ):
            rows = np.asarray(pairs[0], dtype=np.int64)
            columns = np.asarray(pairs[1], dtype=np.int64)
            valid = (
                np.unique(rows).size == rows.size
                and np.unique(columns).size == columns.size
                and (rows.size == 0 or bool(self.feasible.mask[rows, columns].all()))
            )
            if valid:
                assignment = Assignment()
                workers, tasks = self.instance.workers, self.instance.tasks
                for row, column in zip(rows.tolist(), columns.tolist()):
                    assignment.add(tasks[column], workers[row])
                return assignment
            pairs = list(zip(rows.tolist(), columns.tolist()))
        assignment = Assignment()
        used_rows: set[int] = set()
        used_columns: set[int] = set()
        for row, column in pairs:
            if row in used_rows:
                worker = self.instance.workers[row]
                raise ValueError(
                    f"solver assigned worker row {row} "
                    f"(worker id {worker.worker_id}) to more than one task"
                )
            if column in used_columns:
                task = self.instance.tasks[column]
                raise ValueError(
                    f"solver assigned task column {column} "
                    f"(task id {task.task_id}) to more than one worker"
                )
            if not self.feasible.mask[row, column]:
                raise ValueError(
                    f"solver produced infeasible pair (worker row {row}, task column {column})"
                )
            used_rows.add(row)
            used_columns.add(column)
            assignment.add(self.instance.tasks[column], self.instance.workers[row])
        return assignment


class RoundState:
    """Incremental round preparation for online (batched-arrival) loops.

    Rebuilding a :class:`PreparedInstance` from scratch every batch round
    recomputes the distance, feasibility and influence matrices for the
    *whole* pool, although between rounds the pool only gains newly arrived
    workers and newly published tasks (assigned/expired entries merely
    leave).  ``RoundState`` keeps per-worker rows and per-task columns of
    those matrices in growing buffers keyed by (worker, task) identity, so
    each round only computes the rectangles

    * new workers x current tasks, and
    * previously seen workers x new tasks.

    Every cached quantity is time-independent (distances, influence values,
    location entropy); the time-dependent feasibility mask is re-derived
    from the cached distances each round, which keeps results bit-identical
    to a full per-round recomputation.
    """

    def __init__(self, influence: InfluenceModel | None = None) -> None:
        self.influence = influence
        self._row_of: dict[int, int] = {}
        self._col_of: dict[int, int] = {}
        self._row_worker: list[Worker] = []
        self._col_task: list[Task] = []
        self._distance = np.zeros((0, 0))
        self._influence_vals = np.zeros((0, 0))
        self._valid = np.zeros((0, 0), dtype=bool)
        self._entropy: dict[int, float] = {}

    # ---------------------------------------------------------------- buffers
    def _ensure_capacity(self, rows: int, columns: int) -> None:
        grown_rows = max(self._distance.shape[0], 4)
        while grown_rows < rows:
            grown_rows *= 2
        grown_columns = max(self._distance.shape[1], 4)
        while grown_columns < columns:
            grown_columns *= 2
        if (grown_rows, grown_columns) == self._distance.shape:
            return
        old_rows, old_columns = self._distance.shape

        def regrow(buffer: np.ndarray) -> np.ndarray:
            fresh = np.zeros((grown_rows, grown_columns), dtype=buffer.dtype)
            fresh[:old_rows, :old_columns] = buffer
            return fresh

        self._distance = regrow(self._distance)
        self._influence_vals = regrow(self._influence_vals)
        self._valid = regrow(self._valid)

    def _register(self, workers: Sequence[Worker], tasks: Sequence[Task]) -> tuple[list[int], list[int]]:
        """Assign buffer rows/columns to unseen entities; returns the
        positions (within ``workers`` / ``tasks``) whose cells need filling."""
        new_worker_positions: list[int] = []
        for position, worker in enumerate(workers):
            row = self._row_of.get(worker.worker_id)
            if row is None:
                row = len(self._row_worker)
                self._row_of[worker.worker_id] = row
                self._row_worker.append(worker)
                new_worker_positions.append(position)
            elif self._row_worker[row] != worker:
                # Same id, different attributes: every cached cell of the
                # row is stale, including columns absent from this round.
                self._row_worker[row] = worker
                self._valid[row, :] = False
                new_worker_positions.append(position)
        new_task_positions: list[int] = []
        for position, task in enumerate(tasks):
            column = self._col_of.get(task.task_id)
            if column is None:
                column = len(self._col_task)
                self._col_of[task.task_id] = column
                self._col_task.append(task)
                new_task_positions.append(position)
            elif self._col_task[column] != task:
                self._col_task[column] = task
                self._valid[:, column] = False
                self._entropy.pop(task.task_id, None)
                new_task_positions.append(position)
        self._ensure_capacity(len(self._row_worker), len(self._col_task))
        return new_worker_positions, new_task_positions

    def _fill(self, workers: Sequence[Worker], tasks: Sequence[Task],
              rows: np.ndarray, columns: np.ndarray) -> None:
        """Compute and store the ``workers x tasks`` rectangle."""
        if len(workers) == 0 or len(tasks) == 0:
            return
        grid = np.ix_(rows, columns)
        self._distance[grid] = pairwise_euclidean(
            [w.location for w in workers], [t.location for t in tasks]
        )
        if self.influence is not None:
            self._influence_vals[grid] = self.influence.influence_matrix(
                list(workers), list(tasks)
            )
        self._valid[grid] = True

    # ------------------------------------------------------------------- API
    def prepare(self, instance: SCInstance) -> PreparedInstance:
        """A :class:`PreparedInstance` for this round, with the feasibility,
        influence and entropy caches pre-populated incrementally."""
        workers, tasks = instance.workers, instance.tasks
        prepared = PreparedInstance(instance, self.influence)
        if not workers or not tasks:
            return prepared

        new_worker_positions, new_task_positions = self._register(workers, tasks)
        rows = np.fromiter(
            (self._row_of[w.worker_id] for w in workers), dtype=np.int64, count=len(workers)
        )
        columns = np.fromiter(
            (self._col_of[t.task_id] for t in tasks), dtype=np.int64, count=len(tasks)
        )

        # Rectangle 1: new workers x every current task.
        self._fill(
            [workers[p] for p in new_worker_positions], tasks,
            rows[new_worker_positions], columns,
        )
        # Rectangle 2: previously seen workers x new tasks.
        fresh_rows = set(new_worker_positions)
        old_positions = [p for p in range(len(workers)) if p not in fresh_rows]
        self._fill(
            [workers[p] for p in old_positions],
            [tasks[p] for p in new_task_positions],
            rows[old_positions], columns[new_task_positions],
        )
        # Safety net: any cell still unfilled (cannot happen while pools are
        # append-only, but identity invalidation keeps this exact).
        sub_valid = self._valid[np.ix_(rows, columns)]
        if not sub_valid.all():
            stale = np.nonzero(~sub_valid.all(axis=1))[0]
            self._fill([workers[p] for p in stale], tasks, rows[stale], columns)

        distance = self._distance[np.ix_(rows, columns)]
        radius = np.array([w.reachable_km for w in workers])[:, None]
        speed = np.array([w.speed_kmh for w in workers])[:, None]
        deadline = np.array([t.expiry_time for t in tasks])[None, :]
        mask = (distance <= radius) & (
            instance.current_time + distance / speed <= deadline
        )
        prepared.__dict__["feasible"] = FeasiblePairs(
            workers=tuple(workers),
            tasks=tuple(tasks),
            distance_km=distance,
            mask=mask,
        )
        prepared.__dict__["influence_matrix"] = self._influence_vals[
            np.ix_(rows, columns)
        ]

        unseen = [t for t in tasks if t.task_id not in self._entropy]
        if unseen:
            self._entropy.update(entropy_of_tasks(unseen, instance.venue_visits))
        prepared.__dict__["entropy_by_task"] = {
            t.task_id: self._entropy[t.task_id] for t in tasks
        }
        return prepared


class Assigner(abc.ABC):
    """Interface of every task-assignment algorithm."""

    #: Short name used in experiment tables ("MTA", "IA", ...).
    name: str = "base"

    @abc.abstractmethod
    def assign(self, prepared: PreparedInstance) -> Assignment:
        """Compute a task assignment for the prepared instance."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
