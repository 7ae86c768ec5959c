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
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.data.instance import SCInstance
from repro.entities import AssignedPair, Assignment, Task, Worker
from repro.geo import pairwise_euclidean, pairwise_euclidean_xy
from repro.influence import InfluenceModel, VenueEntropy, entropy_of_tasks


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
        return mask_nonzero(self.mask)


def mask_nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D boolean mask, read flat: one
    ``flatnonzero`` split into rows and columns by ``divmod``, several
    times faster than ``np.nonzero``'s 2-D walk and equal to it."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


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
                workers, tasks = self.instance.workers, self.instance.tasks
                return Assignment([
                    AssignedPair(task=tasks[column], worker=workers[row])
                    for row, column in zip(rows.tolist(), columns.tolist())
                ])
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


def worker_attributes(
    worker: Worker, entropy: Callable | None = None
) -> tuple[float, float, float, float]:
    """A worker's attribute row: ``(x, y, reachable_km, speed_kmh)``
    (``entropy`` is unused; both kinds share one signature)."""
    return (
        worker.location.x, worker.location.y, worker.reachable_km, worker.speed_kmh
    )


def task_attributes(
    task: Task, entropy: Callable[[Task], float]
) -> tuple[float, float, float, float]:
    """A task's attribute row: ``(x, y, expiry_time, entropy(task))``."""
    return (task.location.x, task.location.y, task.expiry_time, entropy(task))


class EntityColumns(NamedTuple):
    """One round's workers or tasks as arrays, in matrix order.

    ``ids`` holds the entity ids and ``attrs`` one attribute row per
    entity (:func:`worker_attributes` / :func:`task_attributes`).
    ``keys`` are int64 identity keys: an entity whose key was in the
    previous round is the same payload, so its cached influence cells are
    reused.  The stream passes the log row that set each entity's state;
    :func:`entity_columns` passes each object's ``id()``.
    """

    ids: np.ndarray
    keys: np.ndarray
    attrs: np.ndarray


#: Per entity kind: its id getter, attribute-row function and row width.
ENTITY_KINDS = {
    "worker": (attrgetter("worker_id"), worker_attributes, 4),
    "task": (attrgetter("task_id"), task_attributes, 4),
}


def entity_columns(kind: str, entities: Sequence, venue_visits: Mapping) -> EntityColumns:
    """The :class:`EntityColumns` of ``"worker"`` or ``"task"`` objects,
    keyed by ``id()``; task rows read their location entropy from
    ``venue_visits``.  :class:`RoundState` holds the previous round's
    objects, so no key it can match belongs to a collected object."""
    id_of, attributes, width = ENTITY_KINDS[kind]
    count = len(entities)
    entropy = VenueEntropy(venue_visits)
    return EntityColumns(
        np.fromiter(map(id_of, entities), dtype=np.int64, count=count),
        np.fromiter(map(id, entities), dtype=np.int64, count=count),
        np.fromiter(
            chain.from_iterable(map(attributes, entities, repeat(entropy))),
            dtype=float, count=count * width,
        ).reshape(count, width),
    )


def _check_unique(kind: str, ids: np.ndarray) -> None:
    """Reject a round that lists one id twice, naming it."""
    sorted_ids = np.sort(ids)
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if repeated.size:
        raise ValueError(f"{kind} id {int(repeated[0])} appears more than once in one round")


class _Keys(NamedTuple):
    """One round's identity keys in matrix order and their argsort, which
    the next round searches."""

    keys: np.ndarray
    order: np.ndarray


_NO_KEYS = _Keys(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _match(keys: np.ndarray, previous: _Keys) -> tuple[_Keys, np.ndarray]:
    """Match one round's identity keys against the previous round's.

    Returns this round's keys and, per entity, its position in the
    previous round, or -1 where it is new: first seen, absent last round,
    or under a new key (relocated, re-arrived, republished).
    """
    source = np.full(keys.size, -1, dtype=np.int64)
    cached_keys, cached_order = previous
    if cached_keys.size:
        at = np.searchsorted(cached_keys, keys, sorter=cached_order)
        at = cached_order[at.clip(max=cached_keys.size - 1)]
        hit = cached_keys[at] == keys
        source[hit] = at[hit]
    return _Keys(keys, np.argsort(keys, kind="stable")), source


class RoundState:
    """Incremental round preparation for online (batched-arrival) loops.

    Each round arrives as attribute columns (:class:`EntityColumns`).
    Distances, the feasibility mask and the entropy map are computed from
    them in full: one W x T kernel costs less than gathering and filling a
    carried matrix.  With an influence model, ``RoundState`` carries the
    previous round's identity keys and influence matrix.  A round's entity
    is *kept* when its key was in the previous round, and *new* otherwise —
    first seen, absent last round, or relocated or republished under a new
    key.  Kept x kept influence cells are gathered; new rows x all columns
    and kept rows x new columns are computed.  Entities absent from a
    round are dropped, so the cache is as large as the live pool.

    Cached values are time-independent and no cell depends on the shape of
    the rectangle it was computed in, so results are bit-identical to a
    full per-round recomputation.  The returned ``distance_km`` and
    ``influence_matrix`` are read-only; the influence matrix is carried
    into the next round.  Ids must be unique within a round.
    """

    def __init__(self, influence: InfluenceModel | None = None) -> None:
        self.influence = influence
        self._rows = self._columns = _NO_KEYS
        self._influence = np.zeros((0, 0))
        # The previous round's payloads, kept alive so that no id() key
        # from entity_columns is reused while it can still match.
        self._entities: tuple = ((), ())

    def prepare(
        self,
        instance: SCInstance,
        workers: EntityColumns | None = None,
        tasks: EntityColumns | None = None,
    ) -> PreparedInstance:
        """A :class:`PreparedInstance` for this round, with the feasibility,
        influence and entropy caches pre-populated.

        ``workers`` / ``tasks`` are the columns of ``instance.workers`` /
        ``instance.tasks``, in the same order; omitted, they are read off
        the objects by :func:`entity_columns`.
        """
        worker_objects, task_objects = tuple(instance.workers), tuple(instance.tasks)
        if workers is None:
            workers = entity_columns("worker", worker_objects, instance.venue_visits)
        if tasks is None:
            tasks = entity_columns("task", task_objects, instance.venue_visits)
        _check_unique("worker", workers.ids)
        _check_unique("task", tasks.ids)

        row_attrs, column_attrs = workers.attrs, tasks.attrs
        distance = pairwise_euclidean_xy(row_attrs[:, :2], column_attrs[:, :2])
        mask = (distance <= row_attrs[:, 2:3]) & (
            instance.current_time + distance / row_attrs[:, 3:] <= column_attrs[:, 2]
        )
        if self.influence is None:
            influence = np.zeros(distance.shape)
        else:
            influence = self._carry_influence(
                worker_objects, task_objects, workers.keys, tasks.keys
            )
        distance.flags.writeable = influence.flags.writeable = False

        prepared = PreparedInstance(instance, self.influence)
        prepared.__dict__["feasible"] = FeasiblePairs(
            worker_objects, task_objects, distance, mask
        )
        prepared.__dict__["influence_matrix"] = influence
        prepared.__dict__["entropy_by_task"] = dict(
            zip(tasks.ids.tolist(), column_attrs[:, 3].tolist())
        )
        return prepared

    def _carry_influence(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        worker_keys: np.ndarray,
        task_keys: np.ndarray,
    ) -> np.ndarray:
        """This round's influence matrix: kept x kept cells gathered from
        the previous round's, new rows x all columns and kept rows x new
        columns computed."""
        rows, row_source = _match(worker_keys, self._rows)
        columns, column_source = _match(task_keys, self._columns)
        shape = (len(workers), len(tasks))
        kept_rows = np.flatnonzero(row_source >= 0)
        new_rows = np.flatnonzero(row_source < 0)
        new_columns = np.flatnonzero(column_source < 0)
        influence = np.zeros(shape)
        if kept_rows.size and new_columns.size < shape[1]:
            # One gather; the cells of new rows and columns read row or
            # column -1 here and are overwritten just below.
            influence = self._influence[np.ix_(row_source, column_source)]
        for fill_rows, fill_columns in ((new_rows, np.arange(shape[1])), (kept_rows, new_columns)):
            if fill_rows.size and fill_columns.size:
                influence[np.ix_(fill_rows, fill_columns)] = self.influence.influence_matrix(
                    [workers[p] for p in fill_rows.tolist()],
                    [tasks[p] for p in fill_columns.tolist()],
                )
        self._rows, self._columns, self._influence = rows, columns, influence
        self._entities = (workers, tasks)
        return influence


class Assigner(abc.ABC):
    """Interface of every task-assignment algorithm."""

    #: Short name used in experiment tables ("MTA", "IA", ...).
    name: str = "base"

    @abc.abstractmethod
    def assign(self, prepared: PreparedInstance) -> Assignment:
        """Compute a task assignment for the prepared instance."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
