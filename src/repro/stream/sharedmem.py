"""Fork-once shared-memory workers for the process executor backend.

Process-backend rounds never pickle prepared instances.  Each round goes
through :mod:`multiprocessing.shared_memory` instead:

* :class:`ShardScratch` is one reusable shared block per shard holding the
  round's :class:`~repro.assignment.RoundState` rectangles (distance,
  feasibility mask, influence, entropy) plus the pooled entities' attribute
  rows and ids.  It grows geometrically and is rewritten in place each
  round, so the per-round message to a worker shrinks to a tiny header
  dict — block name, shapes and the round clock.
* :func:`solve_shared_shard` runs in the worker: it maps the scratch
  views zero-copy into a :class:`~repro.assignment.PreparedInstance`,
  solves, and returns plain ``(row, column)`` index pairs; the caller
  rebuilds the full-fidelity assignment against its own prepared instance
  via ``build_assignment`` (which re-validates feasibility), keeping the
  merged round bit-identical to the serial backend.

Preparation always stays in the calling process — the incremental round
caches and the influence model's column caches live there — so the solve,
the CPU-bound part, is all that crosses the process boundary.
"""

from __future__ import annotations

from multiprocessing import get_context, shared_memory

import numpy as np

from repro.assignment.base import Assigner, FeasiblePairs, PreparedInstance
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.geo import Point
from repro.obs.trace import Interval, clock_ns

__all__ = [
    "ShardScratch",
    "fork_capable_context",
    "solve_shared_shard",
]


def fork_capable_context():
    """The ``fork`` start method when the platform has it, else the default.

    Fork lets the pool inherit the parent's loaded modules (no re-import
    per worker) and is what makes "fork-once" cheap; spawn platforms still
    work — workers attach each scratch block by name.
    """
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without adopting cleanup responsibility.

    Ownership stays with the :class:`ShardScratch` publisher; attachments
    here are read-only leases.  On Python 3.13+ ``track=False`` expresses
    that directly.  On older versions the attach re-registers the name
    with the resource tracker — harmless here: the pool is forked from the
    publisher, so both sides talk to the *same* tracker process, whose
    per-name cache is a set (the duplicate register is a no-op and the
    publisher's eventual unlink unregisters it once).  Explicitly
    unregistering from the worker instead would corrupt that shared cache
    and make the publisher's unlink raise.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _scratch_fields(workers: int, tasks: int):
    """Field layout of one shard's scratch block, in buffer order.

    The 8-byte dtypes come first and the byte-wide mask last, keeping
    every view aligned.
    """
    return [
        ("distance", np.float64, (workers, tasks)),
        ("influence", np.float64, (workers, tasks)),
        ("entropy", np.float64, (tasks,)),
        ("worker_attrs", np.float64, (workers, 4)),
        ("task_attrs", np.float64, (tasks, 4)),
        ("worker_ids", np.int64, (workers,)),
        ("task_ids", np.int64, (tasks,)),
        ("mask", np.bool_, (workers, tasks)),
    ]


def _scratch_views(buffer, workers: int, tasks: int) -> dict[str, np.ndarray]:
    """Deterministic layout of one shard's round rectangles in a buffer.

    Publisher and solver both derive the views from ``(workers, tasks)``
    alone, so no offsets travel in the per-round message.
    """
    offset = 0
    views: dict[str, np.ndarray] = {}
    for name, dtype, shape in _scratch_fields(workers, tasks):
        view = np.ndarray(shape, dtype=dtype, buffer=buffer, offset=offset)
        views[name] = view
        offset += view.nbytes
    return views


def _scratch_bytes(workers: int, tasks: int) -> int:
    return sum(
        np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64))
        for _, dtype, shape in _scratch_fields(workers, tasks)
    )


class ShardScratch:
    """One shard's reusable shared block for per-round rectangles.

    ``publish`` rewrites the block in place each round and only allocates
    a fresh (larger) segment when the shard outgrows it — the common round
    ships zero new shared memory, just a header dict.
    """

    def __init__(self) -> None:
        self._block: shared_memory.SharedMemory | None = None

    def publish(
        self,
        *,
        shard: int,
        now: float,
        distance: np.ndarray,
        mask: np.ndarray,
        influence: np.ndarray,
        entropy: np.ndarray,
        worker_attrs: np.ndarray,
        worker_ids: np.ndarray,
        task_attrs: np.ndarray,
        task_ids: np.ndarray,
    ) -> dict:
        """Copy one round's rectangles and entity rows in; returns the
        header :func:`solve_shared_shard` needs to map them."""
        workers, tasks = distance.shape
        needed = _scratch_bytes(workers, tasks)
        if self._block is None or self._block.size < needed:
            self.close()
            self._block = shared_memory.SharedMemory(
                create=True, size=max(needed, 4096)
            )
        views = _scratch_views(self._block.buf, workers, tasks)
        views["distance"][...] = distance
        views["influence"][...] = influence
        views["entropy"][...] = entropy
        views["worker_attrs"][...] = worker_attrs
        views["task_attrs"][...] = task_attrs
        views["worker_ids"][...] = worker_ids
        views["task_ids"][...] = task_ids
        views["mask"][...] = mask
        del views
        return {
            "shard": shard,
            "name": self._block.name,
            "workers": workers,
            "tasks": tasks,
            "now": now,
        }

    def close(self) -> None:
        """Release and unlink the block (idempotent)."""
        block, self._block = self._block, None
        if block is not None:
            try:
                block.close()
                block.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


# --------------------------------------------------------------------------
# Worker-process side.  Scratch attachments are cached per shard in each
# worker process (re-attached only when a shard's block was regrown under a
# new name).
_scratch_cache: dict[int, tuple[str, shared_memory.SharedMemory]] = {}


def _attach_scratch(shard: int, name: str) -> shared_memory.SharedMemory:
    cached = _scratch_cache.get(shard)
    if cached is not None:
        if cached[0] == name:
            return cached[1]
        cached[1].close()
    block = _attach(name)
    _scratch_cache[shard] = (name, block)
    return block


def solve_shared_shard(
    assigner: Assigner, header: dict
) -> tuple[int, tuple[np.ndarray, np.ndarray], Interval]:
    """One shard's solve against its scratch block; runs in the pool worker.

    Entities are rebuilt from the attribute rows shipped in the block (in
    shard-row order).  The rebuilt ``Task`` drops ``categories``/
    ``venue_id`` — no assigner consults them at solve time (they only read
    the feasibility/influence/entropy rectangles, ids and publication
    times, all of which ride along) — and the caller materializes the
    returned index pairs against its own full-fidelity prepared instance
    anyway.

    The returned :class:`~repro.obs.trace.Interval` is the solve as the
    worker measured it on the shared monotonic clock; the parent derives
    the round's solve seconds and its ``shard.solve`` span from it,
    attributed to the worker process.
    """
    block = _attach_scratch(header["shard"], header["name"])
    views = _scratch_views(block.buf, header["workers"], header["tasks"])
    worker_attrs = views["worker_attrs"]
    task_attrs = views["task_attrs"]
    workers = tuple(
        Worker(
            worker_id=int(worker_id),
            location=Point(worker_attrs[row, 0], worker_attrs[row, 1]),
            reachable_km=float(worker_attrs[row, 2]),
            speed_kmh=float(worker_attrs[row, 3]),
        )
        for row, worker_id in enumerate(views["worker_ids"])
    )
    tasks = tuple(
        Task(
            task_id=int(task_id),
            location=Point(task_attrs[column, 0], task_attrs[column, 1]),
            publication_time=float(task_attrs[column, 2]),
            valid_hours=float(task_attrs[column, 3]),
        )
        for column, task_id in enumerate(views["task_ids"])
    )
    instance = SCInstance(
        name=f"shard-{header['shard']}",
        current_time=float(header["now"]),
        tasks=list(tasks),
        workers=list(workers),
        histories={},
        social_edges=[],
        all_worker_ids=(),
    )
    prepared = PreparedInstance(instance, None)
    # Inject the shared matrices zero-copy, exactly like RoundState injects
    # the round's matrices — the lazy properties never recompute.
    prepared.__dict__["feasible"] = FeasiblePairs(
        workers=workers,
        tasks=tasks,
        distance_km=views["distance"],
        mask=views["mask"],
    )
    prepared.__dict__["influence_matrix"] = views["influence"]
    prepared.__dict__["entropy_by_task"] = {
        task.task_id: float(value)
        for task, value in zip(tasks, views["entropy"])
    }
    start_ns = clock_ns()
    part = assigner.assign(prepared)
    solved = Interval.since(start_ns)
    row_of = {worker.worker_id: row for row, worker in enumerate(workers)}
    column_of = {task.task_id: column for column, task in enumerate(tasks)}
    rows = np.empty(len(part), dtype=np.int64)
    cols = np.empty(len(part), dtype=np.int64)
    for index, pair in enumerate(part):
        rows[index] = row_of[pair.worker.worker_id]
        cols[index] = column_of[pair.task.task_id]
    # Views die here; only the cached SharedMemory handles persist, so a
    # regrown scratch block can be re-attached without BufferError.
    del views, prepared, part
    return header["shard"], (rows, cols), solved
