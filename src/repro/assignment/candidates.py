"""Output-sensitive feasible-pair enumeration via a grid index.

:func:`~repro.assignment.base.compute_feasible` materializes the dense
``|W| x |S|`` distance and feasibility matrices — the right layout for the
flow solvers at the paper's instance sizes.  For much larger instances the
dense product dominates; :func:`candidate_pairs` enumerates only the
feasible pairs by range-querying a :class:`~repro.geo.GridIndex` over the
tasks (the index the stream pools use) with each worker's reachable
radius.  The exhaustive scan :func:`_dense_pairs` is the reference the
tests compare it against.

Both paths implement the same two feasibility rules (paper Section IV-A):
``d(w.l, s.l) <= w.r`` and ``t + d/speed <= s.p + s.phi``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.entities import Task, Worker
from repro.geo import GridIndex


@dataclass(frozen=True)
class CandidatePair:
    """One feasible worker-task pair with its distance."""

    worker_index: int
    task_index: int
    distance_km: float


def _pair_if_feasible(
    worker: Worker,
    worker_index: int,
    task: Task,
    task_index: int,
    distance_km: float,
    current_time: float,
) -> CandidatePair | None:
    if distance_km > worker.reachable_km:
        return None
    if current_time + distance_km / worker.speed_kmh > task.expiry_time:
        return None
    return CandidatePair(worker_index, task_index, distance_km)


def _dense_pairs(
    workers: list[Worker], tasks: list[Task], current_time: float
) -> list[CandidatePair]:
    """The exhaustive-scan reference for :func:`candidate_pairs`."""
    pairs = []
    for wi, worker in enumerate(workers):
        for ti, task in enumerate(tasks):
            pair = _pair_if_feasible(
                worker, wi, task, ti,
                worker.location.distance_to(task.location), current_time,
            )
            if pair is not None:
                pairs.append(pair)
    return pairs


def candidate_pairs(
    workers: list[Worker], tasks: list[Task], current_time: float
) -> list[CandidatePair]:
    """Enumerate all feasible worker-task pairs, sorted by (worker, task)."""
    if not workers or not tasks:
        return []
    # Cell size near the median radius keeps bucket scans short.
    radii = sorted(w.reachable_km for w in workers)
    grid: GridIndex[int] = GridIndex(cell_size_km=max(radii[len(radii) // 2], 1e-6))
    grid.insert_many((t.location, i) for i, t in enumerate(tasks))
    pairs = []
    for wi, worker in enumerate(workers):
        for point, ti in grid.query_radius(worker.location, worker.reachable_km):
            pair = _pair_if_feasible(
                worker, wi, tasks[ti], ti,
                worker.location.distance_to(point), current_time,
            )
            if pair is not None:
                pairs.append(pair)
    pairs.sort(key=lambda p: (p.worker_index, p.task_index))
    return pairs
