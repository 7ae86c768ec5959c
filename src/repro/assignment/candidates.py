"""Output-sensitive feasible-pair enumeration: one round's pair graph.

:func:`~repro.assignment.base.compute_feasible` materializes the dense
``|W| x |S|`` distance and feasibility matrices; it is the batch path and
the reference.  :func:`pair_graph` enumerates only the feasible pairs, as
the paper's Figure-4 network has edges only between workers and tasks in
range: workers and tasks are quantized to grid cells at least as wide as
the largest radius, each worker gathers the tasks of its 3 x 3 cell
neighbourhood with one vectorized pass over a counting-sorted cell table
(``bincount``/``cumsum``, then a ragged ``repeat``), and the exact tests
run on those candidate pairs only.

The exact tests are those of the dense kernel (paper Section IV-A):
``d(w.l, s.l) <= w.r`` and ``t + d/speed <= s.p + s.phi``, evaluated with
the same IEEE operations in the same order as
:func:`~repro.geo.pairwise_euclidean_xy` and the dense mask expression, so
distances and the pair set are bit-identical to the dense reference.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

import numpy as np

from repro.geo import pairwise_euclidean_xy

#: Relative and absolute pads on the cell side.  Rounding in ``x / cell``
#: and in the computed distance can move a pair's cell indices apart by a
#: few ulps of the radius and of the largest coordinate; padding the side
#: by far more than that keeps every accepted pair within one cell of each
#: other on both axes, so the 3 x 3 neighbourhood never drops one.  The
#: absolute pad also bounds every quantized index by ``2**40``.
CELL_PAD = 2.0**-40

#: Rectangles of at most this many cells skip the grid and run the dense
#: kernel: below it the grid's fixed numpy calls cost more than the cells.
DENSE_CELLS = 4096

_DX = np.array([-1, 0, 1])


class PairGraph(NamedTuple):
    """Feasible worker-task pairs in CSR form, sorted by (row, column).

    ``indptr`` holds ``rows + 1`` int64 offsets; row ``i``'s pairs are
    ``columns[indptr[i]:indptr[i + 1]]`` (ascending task columns) with
    their distances in ``distance_km``.
    """

    indptr: np.ndarray
    columns: np.ndarray
    distance_km: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def num_pairs(self) -> int:
        return int(self.indptr[-1])

    def rows(self) -> np.ndarray:
        """The worker row of every pair."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.indptr))

    def block(self, row_start: int, row_stop: int, column_start: int) -> "PairGraph":
        """Rows ``[row_start, row_stop)`` as a graph of their own, with
        columns renumbered from ``column_start``."""
        start, stop = self.indptr[row_start], self.indptr[row_stop]
        return PairGraph(
            self.indptr[row_start:row_stop + 1] - start,
            self.columns[start:stop] - column_start,
            self.distance_km[start:stop],
        )

    def subset(self, keep: np.ndarray) -> "PairGraph":
        """The pairs where the boolean ``keep`` holds."""
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.bincount(self.rows()[keep], minlength=self.num_rows), out=indptr[1:])
        return PairGraph(indptr, self.columns[keep], self.distance_km[keep])

    @classmethod
    def from_mask(cls, mask: np.ndarray, distance_km: np.ndarray) -> "PairGraph":
        """The pairs of a dense boolean ``mask`` with their cells of
        ``distance_km``: row counts give ``indptr``, row-major nonzeros
        the columns."""
        indptr = np.zeros(mask.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
        flat = np.flatnonzero(mask)
        return cls(indptr, flat % mask.shape[1], distance_km.ravel()[flat])


def _grid_candidates(worker_xy: np.ndarray, task_xy: np.ndarray, reach: float):
    """Per worker, the tasks in its 3 x 3 cell neighbourhood: ``(counts,
    columns)``, with ``counts[i]`` candidates of worker ``i`` listed in
    row order.  ``worker_xy`` and ``task_xy`` are ``(2, n)`` coordinate
    rows.

    Cells are at least ``reach`` wide (see :data:`CELL_PAD`), and wider
    where the tasks spread over more than about ``2 sqrt(W + T)`` cells a
    side, which bounds the cell table; wider cells only add candidates.
    The table spans the tasks' cells with two empty cells of margin, and
    workers beyond it are clamped onto the margin, whose neighbourhoods
    hold no task they could reach.
    """
    low, high = task_xy.min(axis=1), task_xy.max(axis=1)
    span = max(np.abs(worker_xy).max(), np.abs(low).max(), np.abs(high).max())
    cell = max(
        reach * (1.0 + CELL_PAD) + span * CELL_PAD,
        float((high - low).max()) / (2 * isqrt(worker_xy.shape[1] + task_xy.shape[1]) + 1),
    )
    if not cell > 0.0:
        cell = 1.0
    origin = (np.floor(low / cell) - 2.0)[:, None]
    width, height = (np.floor(high / cell) - origin[:, 0] + 3.0).astype(np.int64).tolist()
    task_x, task_y = (np.floor(task_xy / cell) - origin).astype(np.int64)
    keys = task_x * height + task_y
    order = np.argsort(keys)
    starts = np.zeros(width * height + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=width * height), out=starts[1:])
    worker_x, worker_y = (
        (np.floor(worker_xy / cell) - origin).clip(1.0, [[width - 2], [height - 2]]).astype(np.int64)
    )
    # Per worker and x offset, cells y-1..y+1 of column x + dx are one run
    # of sorted keys.
    first = (worker_x[:, None] + _DX) * height + (worker_y[:, None] - 1)
    run_starts = starts[first].ravel()
    runs = starts[first + 3].ravel() - run_starts
    # One ragged arange over every run: position p of run k reads
    # order[run_starts[k] + p].
    offsets = np.cumsum(runs) - runs
    positions = np.arange(offsets[-1] + runs[-1]) - np.repeat(offsets - run_starts, runs)
    return runs.reshape(-1, 3).sum(axis=1), order[positions]


def pair_graph(worker_attrs: np.ndarray, task_attrs: np.ndarray, now: float) -> PairGraph:
    """The feasible pairs of one round, sorted by (worker row, task column).

    ``worker_attrs`` rows are ``(x, y, reachable_km, speed_kmh)`` and
    ``task_attrs`` rows start ``(x, y, expiry_time)``
    (:func:`~repro.assignment.base.worker_attributes` /
    :func:`~repro.assignment.base.task_attributes`).  The pair set and the
    distances equal :func:`~repro.assignment.base.compute_feasible`'s,
    bit for bit.
    """
    num_workers, num_tasks = len(worker_attrs), len(task_attrs)
    if num_workers * num_tasks <= DENSE_CELLS:
        # The dense kernel itself, read off its mask.
        distance = pairwise_euclidean_xy(worker_attrs[:, :2], task_attrs[:, :2])
        mask = (distance <= worker_attrs[:, 2:3]) & (
            now + distance / worker_attrs[:, 3:4] <= task_attrs[:, 2]
        )
        return PairGraph.from_mask(mask, distance)
    # Attribute columns as contiguous rows: gathers and reductions over
    # them cost a fraction of the same over strided columns.
    worker_x, worker_y, radius, speed = np.ascontiguousarray(worker_attrs[:, :4].T)
    task_columns = np.ascontiguousarray(task_attrs[:, :3].T)
    task_x, task_y, deadline = task_columns
    counts, columns = _grid_candidates(
        np.stack([worker_x, worker_y]), task_columns[:2], float(radius.max())
    )
    # The exact tests, operation for operation as in pairwise_euclidean_xy
    # and the dense mask expression.
    dx = np.repeat(worker_x, counts) - task_x[columns]
    dy = np.repeat(worker_y, counts) - task_y[columns]
    dx *= dx
    dy *= dy
    dx += dy
    distance = np.sqrt(dx, out=dx)
    feasible = (distance <= np.repeat(radius, counts)) & (
        now + distance / np.repeat(speed, counts) <= deadline[columns]
    )
    rows = np.repeat(np.arange(num_workers), counts)[feasible]
    columns = columns[feasible]
    distance = distance[feasible]
    order = np.argsort(rows * num_tasks + columns)
    indptr = np.zeros(num_workers + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_workers), out=indptr[1:])
    return PairGraph(indptr, columns[order], distance[order])
