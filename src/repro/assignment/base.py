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
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from repro.data.instance import SCInstance
from repro.entities import Assignment, Task, Worker
from repro.geo import pairwise_euclidean, pairwise_euclidean_xy
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


class _Members(NamedTuple):
    """One round's workers or tasks in matrix order, their ids, and the
    argsort of the ids, which the next round searches."""

    entities: tuple
    ids: np.ndarray
    order: np.ndarray


_NO_MEMBERS = _Members((), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _match(kind: str, entities: Sequence, previous: _Members) -> tuple[_Members, np.ndarray]:
    """Match one round's entities against the previous round's.

    Returns this round's members and, per entity, its position in the
    previous round, or -1 where it is new: first seen, absent last round,
    or unequal to the cached payload.
    """
    cached, cached_ids, cached_order = previous
    ids = np.fromiter(
        map(attrgetter(f"{kind}_id"), entities), dtype=np.int64, count=len(entities)
    )
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if repeated.size:
        raise ValueError(f"{kind} id {int(repeated[0])} appears more than once in one round")
    source = np.full(ids.size, -1, dtype=np.int64)
    if cached_ids.size:
        at = np.searchsorted(cached_ids, ids, sorter=cached_order)
        at = cached_order[at.clip(max=cached_ids.size - 1)]
        hits = np.flatnonzero(cached_ids[at] == ids).tolist()
        kept = [
            p for p, c in zip(hits, at[hits].tolist())
            if entities[p] is cached[c] or entities[p] == cached[c]
        ]
        source[kept] = at[kept]
    return _Members(tuple(entities), ids, order), source


def _carried(previous: np.ndarray, source: np.ndarray, fresh: list) -> np.ndarray:
    """Per-entity attribute rows: gathered from ``previous`` for kept
    entities, ``fresh`` (in matrix order) for new ones."""
    attrs = np.empty((source.size, previous.shape[1]))
    kept = source >= 0
    attrs[kept] = previous[source[kept]]
    attrs[~kept] = np.reshape(fresh, (-1, previous.shape[1]))
    return attrs


class RoundState:
    """Incremental round preparation for online (batched-arrival) loops.

    ``RoundState`` carries exactly the previous round: its workers and
    tasks with their ids, the distance and influence matrices, and each
    entity's location, radius/speed or deadline/entropy.  A round's entity
    is *kept* when its id was in the previous round and its payload is (or
    equals) the cached object; kept x kept cells are gathered.  Every other
    entity is *new* — first seen, absent last round, or relocated or
    republished under its id — and new rows x all columns, then kept rows
    x new columns, are computed.  Entities absent from a round are
    dropped, so the cache is as large as the live pool.

    Cached values are time-independent and no cell depends on the shape of
    the rectangle it was computed in, so results are bit-identical to a
    full per-round recomputation; the feasibility mask is re-derived each
    round.  The returned ``distance_km`` and ``influence_matrix`` are
    carried into the next round and are read-only.  Ids must be unique
    within a round.
    """

    def __init__(self, influence: InfluenceModel | None = None) -> None:
        self.influence = influence
        self._rows = self._columns = _NO_MEMBERS
        self._distance = self._influence = np.zeros((0, 0))
        # Per worker (x, y, radius, speed); per task (x, y, deadline, entropy).
        self._row_attrs = self._column_attrs = np.zeros((0, 4))

    def prepare(self, instance: SCInstance) -> PreparedInstance:
        """A :class:`PreparedInstance` for this round, with the feasibility,
        influence and entropy caches pre-populated incrementally."""
        workers, tasks = instance.workers, instance.tasks
        rows, row_source = _match("worker", workers, self._rows)
        columns, column_source = _match("task", tasks, self._columns)
        kept_rows, new_rows = np.flatnonzero(row_source >= 0), np.flatnonzero(row_source < 0)
        new_columns = np.flatnonzero(column_source < 0)
        new_tasks = [tasks[p] for p in new_columns.tolist()]
        entropy = entropy_of_tasks(new_tasks, instance.venue_visits)
        row_attrs = _carried(self._row_attrs, row_source, [
            (w.location.x, w.location.y, w.reachable_km, w.speed_kmh)
            for w in (workers[p] for p in new_rows.tolist())
        ])
        column_attrs = _carried(self._column_attrs, column_source, [
            (t.location.x, t.location.y, t.expiry_time, entropy[t.task_id])
            for t in new_tasks
        ])

        shape = (len(workers), len(tasks))
        distance, influence = np.empty(shape), np.zeros(shape)
        if kept_rows.size and new_columns.size < shape[1]:
            # One gather; the cells of new rows and columns read row or
            # column -1 here and are overwritten just below.
            carried = np.ix_(row_source, column_source)
            distance = self._distance[carried]
            if self.influence is not None:
                influence = self._influence[carried]
        for fill_rows, fill_columns in ((new_rows, np.arange(shape[1])), (kept_rows, new_columns)):
            if fill_rows.size == 0 or fill_columns.size == 0:
                continue
            grid = np.ix_(fill_rows, fill_columns)
            distance[grid] = pairwise_euclidean_xy(
                row_attrs[fill_rows, :2], column_attrs[fill_columns, :2]
            )
            if self.influence is not None:
                influence[grid] = self.influence.influence_matrix(
                    [workers[p] for p in fill_rows.tolist()],
                    [tasks[p] for p in fill_columns.tolist()],
                )
        distance.flags.writeable = influence.flags.writeable = False
        mask = (distance <= row_attrs[:, 2:3]) & (
            instance.current_time + distance / row_attrs[:, 3:] <= column_attrs[:, 2]
        )

        self._rows, self._columns = rows, columns
        self._distance, self._influence = distance, influence
        self._row_attrs, self._column_attrs = row_attrs, column_attrs
        prepared = PreparedInstance(instance, self.influence)
        prepared.__dict__["feasible"] = FeasiblePairs(
            rows.entities, columns.entities, distance, mask
        )
        prepared.__dict__["influence_matrix"] = influence
        prepared.__dict__["entropy_by_task"] = dict(
            zip(columns.ids.tolist(), column_attrs[:, 3].tolist())
        )
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
