"""Cell-partitioned shard planning for the streaming runtime.

:class:`ShardLayout` splits the plane of a run into *shards*: groups of
:func:`~repro.geo.cell_key` grid cells such that **no feasible (worker,
task) pair is ever split across shards**.  Two cells are linked whenever
the minimum distance between them (:func:`~repro.geo.cell_gap_km`) does not
exceed the largest worker radius appearing anywhere in the event log — a
radius-aware halo — and shards are unions of the resulting connected
components.  Any pair with ``d(w.l, s.l) <= w.r`` therefore lands in one
shard, so running the assigner per shard and merging in sorted shard order
(the :func:`~repro.assignment.partitioned.merge_assignments` core shared
with the offline :class:`~repro.assignment.PartitionedAssigner`) is an
*exact* decomposition of the round, not a border-lossy approximation.

The layout is planned once per run from the full columnar
:class:`~repro.stream.events.EventLog` (every location that can ever enter
the pools is known upfront), stays fixed for the run, and serializes into
checkpoints so a resumed run shards identically.

**Relocation and the never-split invariant.**  Relocation rows carry their
new coordinates in the log's ``x``/``y`` columns, so
:meth:`EventLog.cell_keys` — and therefore the set of occupied cells the
planner unions — includes every position a worker can ever occupy, not
just where it first arrived.  That is the layout refresh rule for
multi-day replay: the layout need not change mid-run because it was
planned against all relocation targets upfront; a relocated worker lands
in a planned cell whose halo links it to every task within its radius.
:meth:`ShardLayout.covers` makes the rule checkable.

The flip side of exactness: a world whose occupied cells form one connected
blob yields one component, and the planner honestly reports that nothing
can be split (``num_shards`` collapses to 1).  Sharding pays off on worlds
with spatial structure — multiple cities/clusters separated by more than
the worker radius — which is what
:func:`~repro.stream.events.synthetic_stream` models with ``clusters > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.geo import Point, cell_gap_km, cell_key
from repro.geo.grid import MAX_CELL_INDEX

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.stream.events import EventLog

#: Fallback cell size when the log names no worker radius (no arrivals).
DEFAULT_CELL_KM = 25.0


def _pack_cells(kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """The int64 cell packing of :meth:`EventLog.cell_keys` (whose offset
    equals ``MAX_CELL_INDEX``), which :func:`unpack_cell` inverts; packed
    keys sort like ``(kx, ky)``."""
    return (kx + MAX_CELL_INDEX) * (2 * MAX_CELL_INDEX) + (ky + MAX_CELL_INDEX)


def unpack_cell(packed: int) -> tuple[int, int]:
    """Invert the int64 cell packing of :meth:`EventLog.cell_keys`."""
    from repro.stream.events import CELL_OFFSET

    base = 2 * CELL_OFFSET
    return (int(packed) // base - CELL_OFFSET, int(packed) % base - CELL_OFFSET)


class _UnionFind:
    """Plain union-find by index, path-halving, union by size."""

    def __init__(self, count: int) -> None:
        self.parent = list(range(count))
        self.size = [1] * count

    def find(self, node: int) -> int:
        parent = self.parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self.size[root_a] < self.size[root_b]:
            root_a, root_b = root_b, root_a
        self.parent[root_b] = root_a
        self.size[root_a] += self.size[root_b]


@dataclass
class ShardLayout:
    """A fixed cell→shard map with the no-split-pair guarantee.

    Attributes
    ----------
    cell_km:
        Side length of the planning cells.
    num_shards:
        Number of shard bins actually used (``<=`` the requested count —
        a world with fewer connected components cannot use more shards).
    max_radius_km:
        The radius the halo was planned for; pairs within this distance
        are guaranteed unsplit.
    cells:
        Occupied planning cell → shard id.  Each connected component of
        cells (the never-split unit) lies within one shard.

    ``cells`` is read into a sorted lookup table the first time a location
    is routed, so it must not change afterwards.
    """

    cell_km: float
    num_shards: int
    max_radius_km: float
    cells: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def plan(
        cls,
        log: "EventLog",
        num_shards: int,
        cell_km: float | None = None,
    ) -> "ShardLayout":
        """Plan a layout for ``log`` aiming for ``num_shards`` shards.

        Occupied cells come from every arrival/publish location in the
        log; cells whose gap is within the log's largest worker radius are
        unioned; the resulting components are packed into at most
        ``num_shards`` bins, largest-load first onto the least-loaded bin
        (ties by bin index) — fully deterministic for a given log.

        The planner consumes only the *aggregate* cell occupancy
        (``log.cell_key_counts``), so a
        :class:`~repro.stream.segments.SegmentedEventLog` plans the same
        layout by unioning per-segment occupancy up front — O(occupied
        cells) memory, never the materialized horizon — and the
        never-split invariant holds across every window.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        radius = log.max_reachable_km()
        if cell_km is None:
            # Half the radius: cell-gap linking overestimates closeness by
            # up to two cell widths, so R/2 cells split any two regions
            # separated by more than 2R (R cells would need 3R).
            cell_km = radius / 2.0 if radius > 0 else DEFAULT_CELL_KM
        if cell_km <= 0:
            raise ValueError(f"cell_km must be positive, got {cell_km}")

        occupied, loads = log.cell_key_counts(cell_km)
        keys = [unpack_cell(value) for value in occupied]
        if not keys:
            return cls(cell_km=cell_km, num_shards=1, max_radius_km=radius)

        index_of = {key: position for position, key in enumerate(keys)}
        reach = int(np.ceil(radius / cell_km)) + 1
        offsets = [
            (dx, dy)
            for dx in range(-reach, reach + 1)
            for dy in range(-reach, reach + 1)
            if (dx, dy) > (0, 0)  # half-plane: each unordered pair once
            if cell_gap_km((0, 0), (dx, dy), cell_km) <= radius
        ]
        union = _UnionFind(len(keys))
        for position, (kx, ky) in enumerate(keys):
            for dx, dy in offsets:
                neighbor = index_of.get((kx + dx, ky + dy))
                if neighbor is not None:
                    union.union(position, neighbor)

        components: dict[int, list[int]] = {}
        for position in range(len(keys)):
            components.setdefault(union.find(position), []).append(position)
        # Deterministic packing: heaviest component first, onto the
        # least-loaded bin, ties broken by the component's smallest cell.
        ordered = sorted(
            components.values(),
            key=lambda members: (-int(loads[members].sum()), min(members)),
        )
        bins = min(num_shards, len(ordered))
        bin_load = [0] * bins
        cells: dict[tuple[int, int], int] = {}
        for members in ordered:
            shard = min(range(bins), key=lambda b: (bin_load[b], b))
            bin_load[shard] += int(loads[members].sum())
            for member in members:
                cells[keys[member]] = shard
        return cls(cell_km=cell_km, num_shards=bins, max_radius_km=radius, cells=cells)

    # --------------------------------------------------------------- queries
    def shard_of_cell(self, key: tuple[int, int]) -> int:
        """Shard of a planning cell (deterministic hash for unseen cells).

        Every location reachable through the event log is in ``cells``;
        the hash fallback only exists so hand-mutated pools cannot crash
        the executor, and is as deterministic as the map itself.  The
        scalar statement of the rule :meth:`shards_of` applies to arrays.
        """
        shard = self.cells.get(key)
        if shard is not None:
            return shard
        return ((key[0] * 73856093) ^ (key[1] * 19349663)) % self.num_shards

    @cached_property
    def _cell_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(packed_keys, shards)`` of ``cells``, sorted by key."""
        keys = np.array(list(self.cells), dtype=np.int64).reshape(-1, 2)
        packed = _pack_cells(keys[:, 0], keys[:, 1])
        shards = np.fromiter(self.cells.values(), dtype=np.int64, count=len(keys))
        order = np.argsort(packed)
        return packed[order], shards[order]

    def shards_of(self, x, y) -> np.ndarray:
        """Shard of each planar point ``(x[i], y[i])``, as an int64 array.

        :meth:`shard_of_cell` of each point's cell: a sorted-table lookup
        for planned cells and the same hash for the rest.  Quantizes with
        the same IEEE operations as :func:`~repro.geo.cell_key` and raises
        its :class:`~repro.exceptions.DataError` for the first point
        outside ``|k| < MAX_CELL_INDEX``.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        fx = np.floor(x / self.cell_km)
        fy = np.floor(y / self.cell_km)
        inside = (np.abs(fx) < MAX_CELL_INDEX) & (np.abs(fy) < MAX_CELL_INDEX)
        if not inside.all():
            first = int(np.flatnonzero(~inside)[0])
            cell_key(float(x[first]), float(y[first]), self.cell_km)  # raises
        kx, ky = fx.astype(np.int64), fy.astype(np.int64)
        shards = ((kx * 73856093) ^ (ky * 19349663)) % self.num_shards
        keys, owners = self._cell_table
        if keys.size:
            packed = _pack_cells(kx, ky)
            at = np.searchsorted(keys, packed).clip(max=keys.size - 1)
            found = keys[at] == packed
            shards[found] = owners[at[found]]
        return shards

    def shard_of(self, location: Point) -> int:
        """Shard owning a planar location."""
        return int(self.shards_of([location.x], [location.y])[0])

    def covers(self, log: "EventLog") -> bool:
        """Whether every located event row of ``log`` maps to a planned cell.

        True for any layout planned (with this ``cell_km``) from a log
        containing these rows — arrival, publish *and relocation* positions
        are all planning inputs — so the deterministic-hash fallback of
        :meth:`shard_of_cell` never fires during replay.  False means the
        log was not the one this layout was planned for.
        """
        occupied, _ = log.cell_key_counts(self.cell_km)
        return all(unpack_cell(int(value)) in self.cells for value in occupied)

    # ----------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable description (checkpoint payload)."""
        return {
            "cell_km": self.cell_km,
            "num_shards": self.num_shards,
            "max_radius_km": self.max_radius_km,
            "cells": [[kx, ky, shard] for (kx, ky), shard in sorted(self.cells.items())],
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "ShardLayout":
        """Rebuild a layout from :meth:`state_dict` output."""
        return cls(
            cell_km=float(state["cell_km"]),
            num_shards=int(state["num_shards"]),
            max_radius_km=float(state["max_radius_km"]),
            cells={(int(kx), int(ky)): int(shard) for kx, ky, shard in state["cells"]},
        )

