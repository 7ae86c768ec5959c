"""Geographic-partition assignment — a scalability extension.

The flow/assignment solvers are exact but super-linear in the instance
size; the standard scaling remedy in spatial crowdsourcing (see the
authors' follow-up, "Task allocation with geographic partition", CIKM'21)
is to split the area into cells, solve each cell independently, and merge.

This module holds the **partition/merge core** of the library's spatial
decompositions:

* :func:`bucket_pools` groups workers and tasks by an arbitrary spatial
  key; :func:`merge_assignments` folds per-bucket assignments back together
  in deterministic sorted-key order (so results never depend on dict
  insertion order — golden-fixture determinism).
* :class:`PartitionedAssigner` applies them offline with a plain
  square-cell key: workers near a cell border may lose access to feasible
  tasks in the neighbouring cell, so the result is a (usually slight)
  under-assignment relative to the global optimum — the classic
  quality/latency trade-off, quantified in
  ``benchmarks/bench_substrate_partition.py``.
* The streaming :class:`~repro.stream.shards.ShardLayout` /
  ``ShardExecutor`` pair routes whole pools with one array lookup
  (``ShardLayout.shards_of``) over a radius-aware component map whose
  shards never split a feasible pair, and merges through the same
  :func:`merge_assignments`, making the merge exact rather than an
  approximation.

The wrapper preserves the per-instance invariants (each worker and task at
most once) by construction, since the buckets partition both sets.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Iterable, Sequence

from repro.assignment.base import Assigner, PreparedInstance
from repro.entities import Assignment, Task, Worker
from repro.geo import Point, cell_key


def bucket_pools(
    workers: Iterable[Worker],
    tasks: Iterable[Task],
    key_of: Callable[[Point], Hashable],
) -> dict[Hashable, tuple[list[Worker], list[Task]]]:
    """Group workers and tasks by the spatial key of their location.

    The partition step of the offline cells.  Input order is preserved
    inside each bucket.
    """
    buckets: dict[Hashable, tuple[list[Worker], list[Task]]] = defaultdict(
        lambda: ([], [])
    )
    for worker in workers:
        buckets[key_of(worker.location)][0].append(worker)
    for task in tasks:
        buckets[key_of(task.location)][1].append(task)
    return buckets


def merge_assignments(parts: Sequence[Assignment]) -> Assignment:
    """Fold per-bucket assignments into one, in the order given.

    Callers pass parts in sorted bucket-key order, which makes the merged
    pair order a pure function of the event data — never of dict insertion
    or pool-scheduling order.
    """
    merged = Assignment()
    for part in parts:
        merged.extend(part)
    return merged


class PartitionedAssigner(Assigner):
    """Runs a base assigner independently per geographic cell.

    Parameters
    ----------
    base:
        The algorithm solved inside each cell (any :class:`Assigner`).
    cell_km:
        Side length of the square partition cells.  Smaller cells mean
        faster, more parallelizable solves but more border loss; a good
        default is the workers' reachable radius.
    """

    def __init__(self, base: Assigner, cell_km: float = 25.0) -> None:
        if cell_km <= 0:
            raise ValueError(f"cell_km must be positive, got {cell_km}")
        self.base = base
        self.cell_km = cell_km
        self.name = f"{base.name}@{cell_km:g}km"

    def assign(self, prepared: PreparedInstance) -> Assignment:
        instance = prepared.instance
        buckets = bucket_pools(
            instance.workers,
            instance.tasks,
            lambda location: cell_key(location.x, location.y, self.cell_km),
        )
        parts: list[Assignment] = []
        # Cells solve in key order: the merge result must not depend on the
        # insertion order of the buckets (golden-fixture determinism).
        for _key, (workers, tasks) in sorted(buckets.items()):
            if not workers or not tasks:
                continue
            sub_instance = instance.with_workers(workers).with_tasks(tasks)
            sub_prepared = PreparedInstance(sub_instance, prepared.influence)
            parts.append(self.base.assign(sub_prepared))
        return merge_assignments(parts)
