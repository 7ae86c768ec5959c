"""Task assignments (paper Definition 4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.entities.task import Task
from repro.entities.worker import Worker


@dataclass(frozen=True, slots=True)
class AssignedPair:
    """A single worker-task pair ``(s, w)`` inside an assignment."""

    task: Task
    worker: Worker

    @property
    def travel_km(self) -> float:
        """Euclidean travel distance from the worker to the task."""
        return self.worker.location.distance_to(self.task.location)


class Assignment:
    """A spatial task assignment ``A``: a set of worker-task pairs where each
    worker and each task appears at most once.

    The class enforces the at-most-once invariant on insertion; violating it
    raises :class:`ValueError` rather than silently corrupting results.
    """

    def __init__(self, pairs: Iterable[AssignedPair] = ()) -> None:
        self.pairs: list[AssignedPair] = list(pairs)
        self._workers: set[int] = {pair.worker.worker_id for pair in self.pairs}
        self._tasks: set[int] = {pair.task.task_id for pair in self.pairs}
        if len(self._workers) < len(self.pairs) or len(self._tasks) < len(self.pairs):
            # Replay pair by pair to name the first repeated id.
            pairs, self.pairs = self.pairs, []
            self._workers, self._tasks = set(), set()
            for pair in pairs:
                self.add(pair.task, pair.worker)

    def __len__(self) -> int:
        """``|A|`` — the total number of assigned tasks."""
        return len(self.pairs)

    def __iter__(self) -> Iterator[AssignedPair]:
        return iter(self.pairs)

    def __repr__(self) -> str:
        return f"Assignment(|A|={len(self.pairs)})"

    def add(self, task: Task, worker: Worker) -> None:
        """Append ``(task, worker)``, enforcing the at-most-once invariant."""
        if worker.worker_id in self._workers:
            raise ValueError(f"worker {worker.worker_id} already assigned")
        if task.task_id in self._tasks:
            raise ValueError(f"task {task.task_id} already assigned")
        self.pairs.append(AssignedPair(task=task, worker=worker))
        self._workers.add(worker.worker_id)
        self._tasks.add(task.task_id)

    def extend(self, other: "Assignment") -> None:
        """Append every pair of ``other``, enforcing the at-most-once
        invariant across both; raises :class:`ValueError` without changing
        this assignment when they share a worker or a task.  The checks
        cost O(len(other)), however long this assignment has grown."""
        if not self._workers.isdisjoint(other._workers):
            raise ValueError(f"worker {min(self._workers & other._workers)} already assigned")
        if not self._tasks.isdisjoint(other._tasks):
            raise ValueError(f"task {min(self._tasks & other._tasks)} already assigned")
        self.pairs.extend(other.pairs)
        self._workers |= other._workers
        self._tasks |= other._tasks

    @property
    def assigned_worker_ids(self) -> frozenset[int]:
        """Ids of workers that received a task."""
        return frozenset(self._workers)

    @property
    def assigned_task_ids(self) -> frozenset[int]:
        """Ids of tasks that were assigned."""
        return frozenset(self._tasks)

    def total_travel_km(self) -> float:
        """Sum of worker-to-task travel distances over all pairs."""
        return sum(pair.travel_km for pair in self.pairs)

    def average_travel_km(self) -> float:
        """Mean travel distance (0.0 for an empty assignment)."""
        if not self.pairs:
            return 0.0
        return self.total_travel_km() / len(self.pairs)
