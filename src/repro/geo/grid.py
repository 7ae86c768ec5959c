"""A uniform grid index for fast circular range queries over points.

Assignment feasibility ("which tasks lie within a worker's reachable radius")
is a range query answered for every worker at every time instance; a uniform
grid turns the naive O(|W| * |S|) scan into an output-sensitive lookup.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

from repro.exceptions import DataError
from repro.geo.point import Point

T = TypeVar("T", bound=Hashable)

#: Valid quantized cell-index range: ``|k| < MAX_CELL_INDEX``.  Mirrors the
#: int64 packing bound of :meth:`repro.stream.events.EventLog.cell_keys`
#: (``CELL_OFFSET`` there) so the scalar and columnar quantizers reject the
#: same inputs instead of silently aliasing distinct cells.
MAX_CELL_INDEX = 2**25


def cell_key(x: float, y: float, cell_km: float) -> tuple[int, int]:
    """The uniform-grid cell containing planar point ``(x, y)``.

    The one cell quantization shared by every spatial partitioner —
    :class:`GridIndex` buckets, the offline
    :class:`~repro.assignment.PartitionedAssigner` cells, and the streaming
    shard planner — so an entity lands in the same cell no matter which
    layer asks.

    Raises :class:`~repro.exceptions.DataError` when either quantized
    index falls outside ``|k| < MAX_CELL_INDEX`` — a coordinate that far
    out (or a ``cell_km`` that small) would alias distinct cells once
    packed into an int64 key.
    """
    kx = math.floor(x / cell_km)
    ky = math.floor(y / cell_km)
    if abs(kx) >= MAX_CELL_INDEX or abs(ky) >= MAX_CELL_INDEX:
        raise DataError(
            f"coordinate ({x}, {y}) quantizes to cell ({kx}, {ky}) outside "
            f"|k| < {MAX_CELL_INDEX} at cell_km={cell_km}"
        )
    return (kx, ky)


def cell_gap_km(cell_a: tuple[int, int], cell_b: tuple[int, int], cell_km: float) -> float:
    """Minimum distance between any two points of two grid cells.

    Zero for identical or edge/corner-adjacent cells; otherwise the
    Euclidean gap between the squares.  The shard planner links two cells
    exactly when this gap does not exceed the largest worker radius — the
    radius-aware halo that keeps every feasible pair inside one shard.
    """
    gap_x = max(0, abs(cell_a[0] - cell_b[0]) - 1) * cell_km
    gap_y = max(0, abs(cell_a[1] - cell_b[1]) - 1) * cell_km
    return math.hypot(gap_x, gap_y)


class GridIndex(Generic[T]):
    """Buckets items by a uniform grid over the plane.

    Parameters
    ----------
    cell_size_km:
        Side length of each square cell.  A good default is the typical
        query radius so that a range query touches O(9) cells.
    """

    def __init__(self, cell_size_km: float) -> None:
        if cell_size_km <= 0:
            raise ValueError(f"cell_size_km must be positive, got {cell_size_km}")
        self._cell = cell_size_km
        self._buckets: dict[tuple[int, int], list[tuple[Point, T]]] = defaultdict(list)
        self._count = 0

    def _key(self, point: Point) -> tuple[int, int]:
        return cell_key(point.x, point.y, self._cell)

    def insert(self, point: Point, item: T) -> None:
        """Insert ``item`` located at ``point``."""
        self._buckets[self._key(point)].append((point, item))
        self._count += 1

    def insert_many(self, pairs: Iterable[tuple[Point, T]]) -> None:
        """Insert many ``(point, item)`` pairs."""
        for point, item in pairs:
            self.insert(point, item)

    def remove(self, point: Point, item: T) -> None:
        """Remove one ``(point, item)`` pair inserted earlier.

        A live index retires entries as its items leave.  Raises
        :class:`KeyError` if the pair is not present, so callers notice
        bookkeeping bugs instead of silently diverging from their pools.
        """
        key = self._key(point)
        bucket = self._buckets.get(key)
        if bucket is not None:
            for position, (stored_point, stored_item) in enumerate(bucket):
                if stored_item == item and stored_point == point:
                    bucket.pop(position)
                    if not bucket:
                        del self._buckets[key]
                    self._count -= 1
                    return
        raise KeyError(f"({point}, {item!r}) is not in the index")

    def __len__(self) -> int:
        return self._count

    def query_radius(self, center: Point, radius_km: float) -> Iterator[tuple[Point, T]]:
        """Yield every ``(point, item)`` within ``radius_km`` of ``center``.

        Border-inclusive, matching the paper's ``d(w.l, s.l) <= w.r``.
        """
        if radius_km < 0:
            raise ValueError(f"radius_km must be non-negative, got {radius_km}")
        kx_min = math.floor((center.x - radius_km) / self._cell)
        kx_max = math.floor((center.x + radius_km) / self._cell)
        ky_min = math.floor((center.y - radius_km) / self._cell)
        ky_max = math.floor((center.y + radius_km) / self._cell)
        for kx in range(kx_min, kx_max + 1):
            for ky in range(ky_min, ky_max + 1):
                bucket = self._buckets.get((kx, ky))
                if not bucket:
                    continue
                for point, item in bucket:
                    # hypot, not squared comparison: squaring underflows on
                    # subnormal offsets and disagrees with distance_to.
                    if math.hypot(point.x - center.x, point.y - center.y) <= radius_km:
                        yield point, item

    def items(self) -> Iterator[tuple[Point, T]]:
        """Yield every indexed ``(point, item)`` pair."""
        for bucket in self._buckets.values():
            yield from bucket
