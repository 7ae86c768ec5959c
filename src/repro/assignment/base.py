"""Shared assignment machinery: feasibility and per-instance caches.

Feasibility of a worker-task pair (paper Section IV-A):

1. the task is inside the worker's reachable circle:
   ``d(w.l, s.l) <= w.r``;
2. the worker can arrive before expiry:
   ``t + t(w.l, s.l) <= s.p + s.phi``.
"""

from __future__ import annotations

import abc
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.assignment.candidates import PairGraph, pair_graph
from repro.data.instance import SCInstance
from repro.entities import AssignedPair, Assignment, Task, Worker
from repro.geo import pairwise_euclidean, pairwise_euclidean_xy
from repro.influence import InfluenceModel, VenueEntropy, entropy_of_tasks


class FeasiblePairs:
    """The feasibility structure of one instance: its feasible-pair graph.

    Attributes
    ----------
    workers / tasks:
        The candidate workers and open tasks, in matrix order.
    graph:
        The feasible pairs as a :class:`~repro.assignment.candidates.PairGraph`
        CSR: per worker row, its feasible task columns (ascending) and their
        distances.

    The dense ``C x T`` :attr:`distance_km` and :attr:`mask` that the dense
    solvers read are computed on first read, from the graph and the
    ``coordinates``: the workers' and tasks' ``(C, 2)`` and ``(T, 2)`` x/y
    arrays.
    """

    def __init__(
        self,
        workers: tuple[Worker, ...],
        tasks: tuple[Task, ...],
        graph: PairGraph,
        coordinates: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.workers = workers
        self.tasks = tasks
        self.graph = graph
        self._coordinates = coordinates

    @classmethod
    def from_dense(
        cls,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        distance_km: np.ndarray,
        mask: np.ndarray,
    ) -> "FeasiblePairs":
        """The pairs of a dense ``mask``, keeping it and ``distance_km``."""
        feasible = cls(tuple(workers), tuple(tasks), PairGraph.from_mask(mask, distance_km))
        feasible.__dict__.update(distance_km=distance_km, mask=mask)
        return feasible

    @property
    def num_feasible(self) -> int:
        """``m`` — the number of available assignments over all workers."""
        return self.graph.num_pairs

    def feasible_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(worker_rows, task_columns)`` of all feasible pairs, row-major."""
        return self.graph.rows(), self.graph.columns

    @cached_property
    def distance_km(self) -> np.ndarray:
        """Dense read-only ``C x T`` worker-task distances."""
        distance = pairwise_euclidean_xy(*self._coordinates)
        distance.flags.writeable = False
        return distance

    @cached_property
    def mask(self) -> np.ndarray:
        """Dense ``C x T`` boolean feasibility matrix."""
        mask = np.zeros((len(self.workers), len(self.tasks)), dtype=bool)
        mask[self.feasible_indices()] = True
        return mask

    def contains(self, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Whether each ``(rows[i], columns[i])`` is a feasible pair: one
        ``searchsorted`` of the pairs' row-major keys, which the graph
        lists in ascending order.  A key ``row * T + column`` with the
        column in range names one cell, and no pair's key lies outside
        ``[0, C * T)``, so only columns need a range check."""
        graph, width = self.graph, len(self.tasks)
        keys = np.repeat(np.arange(0, graph.num_rows * width, width), np.diff(graph.indptr))
        keys += graph.columns
        if not keys.size:
            return np.zeros(rows.shape, dtype=bool)
        wanted = rows * width + columns
        found = keys[np.searchsorted(keys, wanted).clip(max=keys.size - 1)] == wanted
        return found & (columns >= 0) & (columns < width)


def mask_nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D boolean mask, read flat: one
    ``flatnonzero`` split into rows and columns by ``divmod``, several
    times faster than ``np.nonzero``'s 2-D walk and equal to it."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def compute_feasible(
    workers: list[Worker], tasks: list[Task], current_time: float
) -> FeasiblePairs:
    """Evaluate both feasibility conditions for every worker-task pair.

    The dense reference of :func:`~repro.assignment.candidates.pair_graph`:
    the full distance kernel and mask, with the pair graph read off the
    mask.
    """
    distance = pairwise_euclidean(
        [w.location for w in workers], [t.location for t in tasks]
    )
    radius = np.array([w.reachable_km for w in workers])[:, None]
    speed = np.array([w.speed_kmh for w in workers])[:, None]
    deadline = np.array([t.expiry_time for t in tasks])[None, :]
    reachable = distance <= radius
    in_time = current_time + distance / speed <= deadline
    return FeasiblePairs.from_dense(workers, tasks, distance, reachable & in_time)


class PreparedInstance:
    """Caches the per-instance structures every algorithm shares.

    The paper's CPU-time metric covers the *assignment* computation; the
    influence matrix is part of the worker-task influence modeling component
    and is computed once per instance, shared by all algorithms.
    """

    def __init__(self, instance: SCInstance, influence: InfluenceModel | None = None) -> None:
        self.instance = instance
        self.influence = influence
        # Location entropies aligned with instance.tasks, when the caller
        # has them as a column (RoundState); read by the entropy caches.
        self._task_entropy: np.ndarray | None = None

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
        if self._task_entropy is not None:
            return dict(zip(
                (t.task_id for t in self.instance.tasks), self._task_entropy.tolist()
            ))
        return entropy_of_tasks(self.instance.tasks, self.instance.venue_visits)

    def entropy_vector(self) -> np.ndarray:
        """Location entropies aligned with the task axis of the matrices."""
        if self._task_entropy is not None:
            return np.array(self._task_entropy)
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
        arrays.  Both are validated vectorized, feasibility against the
        pair graph (:meth:`FeasiblePairs.contains`); a pair walk runs only
        to name the first offending pair.
        """
        if (
            isinstance(pairs, tuple)
            and len(pairs) == 2
            and isinstance(pairs[0], np.ndarray)
        ):
            rows = np.asarray(pairs[0], dtype=np.int64)
            columns = np.asarray(pairs[1], dtype=np.int64)
        else:
            rows, columns = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        feasible = self.feasible.contains(rows, columns)
        workers, tasks = self.instance.workers, self.instance.tasks
        row_list, column_list = rows.tolist(), columns.tolist()
        if not (
            len(set(row_list)) == len(row_list)
            and len(set(column_list)) == len(column_list)
            and bool(feasible.all())
        ):
            self._raise_first_violation(row_list, column_list, feasible.tolist())
        return Assignment([
            AssignedPair(task=tasks[column], worker=workers[row])
            for row, column in zip(row_list, column_list)
        ])

    def _raise_first_violation(
        self, rows: list[int], columns: list[int], feasible: list[bool]
    ) -> None:
        """Walk the pairs in order and raise for the first one that repeats
        a row or a column or is infeasible."""
        used_rows: set[int] = set()
        used_columns: set[int] = set()
        for row, column, ok in zip(rows, columns, feasible):
            if row in used_rows:
                raise ValueError(
                    f"solver assigned worker row {row} "
                    f"(worker id {self.instance.workers[row].worker_id}) to more than one task"
                )
            if column in used_columns:
                raise ValueError(
                    f"solver assigned task column {column} "
                    f"(task id {self.instance.tasks[column].task_id}) to more than one worker"
                )
            if not ok:
                raise ValueError(
                    f"solver produced infeasible pair (worker row {row}, task column {column})"
                )
            used_rows.add(row)
            used_columns.add(column)


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
    """

    ids: np.ndarray
    attrs: np.ndarray


#: Per entity kind: its id getter, attribute-row function and row width.
ENTITY_KINDS = {
    "worker": (attrgetter("worker_id"), worker_attributes, 4),
    "task": (attrgetter("task_id"), task_attributes, 4),
}


def entity_columns(kind: str, entities: Sequence, venue_visits: Mapping) -> EntityColumns:
    """The :class:`EntityColumns` of ``"worker"`` or ``"task"`` objects;
    task rows read their location entropy from ``venue_visits``."""
    id_of, attributes, width = ENTITY_KINDS[kind]
    count = len(entities)
    entropy = VenueEntropy(venue_visits)
    return EntityColumns(
        np.fromiter(map(id_of, entities), dtype=np.int64, count=count),
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


class RoundState:
    """Round preparation from columns for online (batched-arrival) loops.

    Each round arrives as attribute columns (:class:`EntityColumns`) and,
    optionally, its feasible-pair graph
    (:class:`~repro.assignment.candidates.PairGraph`); without one, the
    graph is enumerated from the columns by
    :func:`~repro.assignment.candidates.pair_graph`.  The dense distance
    and mask are left to the solvers that read them.  With an influence
    model, the round's influence matrix is one
    :meth:`~repro.influence.InfluenceModel.influence_matrix` call over its
    workers and tasks.

    A round is a function of its pools alone: the state holds nothing but
    the model, so results are bit-identical to a :class:`PreparedInstance`
    of the same instance.  The returned ``distance_km`` and
    ``influence_matrix`` are read-only.  Ids must be unique within a round.
    """

    def __init__(self, influence: InfluenceModel | None = None) -> None:
        self.influence = influence

    def prepare(
        self,
        instance: SCInstance,
        workers: EntityColumns | None = None,
        tasks: EntityColumns | None = None,
        pairs: PairGraph | None = None,
    ) -> PreparedInstance:
        """A :class:`PreparedInstance` for this round, with the feasibility
        and (with a model) influence caches pre-populated and the task
        entropies taken from the task columns.

        ``workers`` / ``tasks`` are the columns of ``instance.workers`` /
        ``instance.tasks``, in the same order; omitted, they are read off
        the objects by :func:`entity_columns`.  ``pairs`` is the round's
        pair graph over those rows and columns; omitted, it is enumerated.
        """
        worker_objects, task_objects = tuple(instance.workers), tuple(instance.tasks)
        if workers is None:
            workers = entity_columns("worker", worker_objects, instance.venue_visits)
        if tasks is None:
            tasks = entity_columns("task", task_objects, instance.venue_visits)
        _check_unique("worker", workers.ids)
        _check_unique("task", tasks.ids)

        row_attrs, column_attrs = workers.attrs, tasks.attrs
        if pairs is None:
            pairs = pair_graph(row_attrs, column_attrs, instance.current_time)
        prepared = PreparedInstance(instance, self.influence)
        prepared.__dict__["feasible"] = FeasiblePairs(
            worker_objects, task_objects, pairs, (row_attrs[:, :2], column_attrs[:, :2])
        )
        if self.influence is not None:
            influence = self.influence.influence_matrix(worker_objects, task_objects)
            influence.flags.writeable = False
            prepared.__dict__["influence_matrix"] = influence
        prepared._task_entropy = column_attrs[:, 3]
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
