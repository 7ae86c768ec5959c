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
from typing import TYPE_CHECKING, Any, Callable, Mapping

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
        Occupied planning cell → shard id.
    components:
        Occupied planning cell → connected-component id.  Components are
        the never-split units; ids are assigned in the planner's packing
        order (heaviest first) so they are stable for a given log.  Only
        the component→shard packing may change over a run (see
        :meth:`repacked` and :class:`ShardRebalancer`); the component
        partition itself is immutable.

    ``cells`` and ``components`` are read into a sorted lookup table the
    first time a location is routed, so they must not change afterwards;
    :meth:`repacked` returns a new layout instead.
    """

    cell_km: float
    num_shards: int
    max_radius_km: float
    cells: dict[tuple[int, int], int] = field(default_factory=dict)
    components: dict[tuple[int, int], int] = field(default_factory=dict)

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
        component_of: dict[tuple[int, int], int] = {}
        for component, members in enumerate(ordered):
            shard = min(range(bins), key=lambda b: (bin_load[b], b))
            bin_load[shard] += int(loads[members].sum())
            for member in members:
                cells[keys[member]] = shard
                component_of[keys[member]] = component
        return cls(
            cell_km=cell_km,
            num_shards=bins,
            max_radius_km=radius,
            cells=cells,
            components=component_of,
        )

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
    def _cell_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(packed_keys, shards, components)`` of ``cells``, sorted by key;
        component ``-1`` where a cell has none."""
        keys = np.array(list(self.cells), dtype=np.int64).reshape(-1, 2)
        packed = _pack_cells(keys[:, 0], keys[:, 1])
        shards = np.fromiter(self.cells.values(), dtype=np.int64, count=len(keys))
        components = np.fromiter(
            (self.components.get(key, -1) for key in self.cells),
            dtype=np.int64, count=len(keys),
        )
        order = np.argsort(packed)
        return packed[order], shards[order], components[order]

    def _locate(self, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kx, ky, row)`` per point: its :func:`~repro.geo.cell_key`
        indices and its row of :attr:`_cell_table` (``-1`` if unplanned).

        Quantizes with the same IEEE operations as ``cell_key`` and raises
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
        keys = self._cell_table[0]
        row = np.full(kx.shape, -1, dtype=np.int64)
        if keys.size:
            packed = _pack_cells(kx, ky)
            at = np.searchsorted(keys, packed).clip(max=keys.size - 1)
            found = keys[at] == packed
            row[found] = at[found]
        return kx, ky, row

    def shards_of(self, x, y) -> np.ndarray:
        """Shard of each planar point ``(x[i], y[i])``, as an int64 array.

        :meth:`shard_of_cell` of each point's cell: a sorted-table lookup
        for planned cells and the same hash for the rest.
        """
        kx, ky, row = self._locate(x, y)
        shards = ((kx * 73856093) ^ (ky * 19349663)) % self.num_shards
        planned = row >= 0
        shards[planned] = self._cell_table[1][row[planned]]
        return shards

    def shard_of(self, location: Point) -> int:
        """Shard owning a planar location."""
        return int(self.shards_of([location.x], [location.y])[0])

    def component_count(self) -> int:
        """Distinct shards that actually own at least one cell."""
        return len(set(self.cells.values())) if self.cells else 1

    def components_of(self, x, y) -> np.ndarray:
        """Component of each planar point, ``-1`` where its cell was never
        planned, as an int64 array."""
        _, _, row = self._locate(x, y)
        components = np.full(row.shape, -1, dtype=np.int64)
        planned = row >= 0
        components[planned] = self._cell_table[2][row[planned]]
        return components

    def component_of(self, location: Point) -> int:
        """Component owning a planar location (``-1`` if unplanned)."""
        return int(self.components_of([location.x], [location.y])[0])

    def component_bins(self) -> dict[int, int]:
        """The current component→shard packing, derived from ``cells``."""
        bins: dict[int, int] = {}
        for key, component in self.components.items():
            bins[component] = self.cells[key]
        return bins

    def repacked(self, assignment: dict[int, int]) -> "ShardLayout":
        """A new layout with the same cells/components under a new packing.

        ``assignment`` maps every component id to a shard bin in
        ``range(num_shards)``.  Cells, components, ``cell_km`` and the halo
        radius are untouched, so the never-split-a-feasible-pair guarantee
        carries over verbatim — only which bin solves each component moves.
        """
        missing = set(self.components.values()) - set(assignment)
        if missing:
            raise ValueError(f"assignment misses components {sorted(missing)}")
        bad = [b for b in assignment.values() if not 0 <= b < self.num_shards]
        if bad:
            raise ValueError(
                f"assignment targets out-of-range bins {sorted(set(bad))}"
            )
        return ShardLayout(
            cell_km=self.cell_km,
            num_shards=self.num_shards,
            max_radius_km=self.max_radius_km,
            cells={
                key: assignment[component]
                for key, component in self.components.items()
            },
            components=dict(self.components),
        )

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
            "cells": [
                [kx, ky, shard, self.components.get((kx, ky), -1)]
                for (kx, ky), shard in sorted(self.cells.items())
            ],
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "ShardLayout":
        """Rebuild a layout from :meth:`state_dict` output."""
        cells: dict[tuple[int, int], int] = {}
        components: dict[tuple[int, int], int] = {}
        for row in state["cells"]:
            kx, ky, shard = int(row[0]), int(row[1]), int(row[2])
            cells[(kx, ky)] = shard
            component = int(row[3]) if len(row) > 3 else -1
            if component >= 0:
                components[(kx, ky)] = component
        return cls(
            cell_km=float(state["cell_km"]),
            num_shards=int(state["num_shards"]),
            max_radius_km=float(state["max_radius_km"]),
            cells=cells,
            components=components,
        )


def pack_components(weights: Mapping[int, float], bins: int) -> dict[int, int]:
    """Greedy component→bin packing, heaviest component first.

    The exact packing rule of :meth:`ShardLayout.plan` — components sorted
    by ``(-weight, component_id)``, each placed on the least-loaded bin with
    ties broken by bin index — applied to arbitrary weights instead of
    entity counts.  Fully deterministic for a given weight map.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    ordered = sorted(weights, key=lambda component: (-weights[component], component))
    bin_load = [0.0] * bins
    assignment: dict[int, int] = {}
    for component in ordered:
        shard = min(range(bins), key=lambda b: (bin_load[b], b))
        bin_load[shard] += float(weights[component])
        assignment[component] = shard
    return assignment


class ShardRebalancer:
    """Latency-driven shard repacking on an EWMA of per-component cost.

    The planner packs components by *entity count*, a proxy that can be
    badly off when per-entity solve cost varies across regions.  The
    rebalancer folds each round's observed per-shard solve latency into a
    per-component EWMA (a shard's latency is attributed to its components
    proportionally to their entity counts) and, at deterministic round
    boundaries (``round_index % interval == 0`` — never wall-clock),
    proposes a fresh :func:`pack_components` packing.  The repack is
    applied only when it improves the predicted bottleneck-bin latency by
    more than ``hysteresis`` (relative), so near-ties never thrash;
    ``hysteresis=inf`` never repacks, NaN is rejected.

    Repacking moves whole components between bins; the never-split
    invariant lives in the component partition, which is immutable, so any
    packing — including every intermediate one a resumed run replays —
    yields assignment-equivalent rounds.

    ``latency_of(shard, entities, seconds)`` converts an attributed
    observation into the EWMA sample; the default returns the measured
    seconds.  Tests inject deterministic shapes (e.g. ``lambda s, n, sec:
    float(n)``) to pin repack decisions independent of wall-clock.
    """

    def __init__(
        self,
        interval: int = 16,
        alpha: float = 0.25,
        hysteresis: float = 0.1,
        latency_of: Callable[[int, int, float], float] | None = None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not hysteresis >= 0.0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        self.interval = int(interval)
        self.alpha = float(alpha)
        self.hysteresis = float(hysteresis)
        self.latency_of = latency_of
        self.ewma: dict[int, float] = {}
        self.last_repack = -1
        self.observed_rounds = 0
        #: Telemetry for the most recent *applied* repack: round index and
        #: predicted bottleneck-bin latency before/after.  Observational
        #: only — deliberately absent from :meth:`state_dict`, since the
        #: bottleneck figures derive from wall-clock EWMA samples and the
        #: checkpoint meta must stay timing-free.
        self.last_decision: dict[str, float] | None = None

    # --------------------------------------------------------------- observe
    def observe(
        self,
        layout: ShardLayout,
        shard_seconds: Mapping[int, float],
        component_entities: Mapping[int, int],
    ) -> None:
        """Fold one round's per-shard solve spans into the component EWMA.

        A bin's measured seconds are split across its populated components
        proportionally to entity count — the best attribution available
        without per-component timers inside the solver.
        """
        bins = layout.component_bins()
        bin_entities: dict[int, int] = {}
        for component, entities in component_entities.items():
            shard = bins.get(component)
            if shard is not None and entities > 0:
                bin_entities[shard] = bin_entities.get(shard, 0) + int(entities)
        for component in sorted(component_entities):
            entities = int(component_entities[component])
            shard = bins.get(component)
            if shard is None or entities <= 0:
                continue
            share = shard_seconds.get(shard, 0.0) * entities / bin_entities[shard]
            sample = (
                float(self.latency_of(shard, entities, share))
                if self.latency_of is not None
                else float(share)
            )
            previous = self.ewma.get(component)
            self.ewma[component] = (
                sample
                if previous is None
                else previous + self.alpha * (sample - previous)
            )
        self.observed_rounds += 1

    # ---------------------------------------------------------------- repack
    def maybe_repack(self, round_index: int, layout: ShardLayout) -> ShardLayout | None:
        """A repacked layout for this round boundary, or ``None``.

        Deterministic given the EWMA state: fires only when ``round_index``
        is a positive multiple of ``interval``, the candidate packing
        differs, and the predicted max-bin latency drops by more than
        ``hysteresis`` (relative).
        """
        if round_index <= 0 or round_index % self.interval:
            return None
        if layout.num_shards <= 1 or not self.ewma:
            return None
        current = layout.component_bins()
        weights = {component: self.ewma.get(component, 0.0) for component in current}
        candidate = pack_components(weights, layout.num_shards)
        if candidate == current:
            return None

        def max_bin(assignment: Mapping[int, int]) -> float:
            load: dict[int, float] = {}
            for component, shard in assignment.items():
                load[shard] = load.get(shard, 0.0) + weights[component]
            return max(load.values(), default=0.0)

        current_max = max_bin(current)
        if current_max <= 0.0:
            return None
        candidate_max = max_bin(candidate)
        if (current_max - candidate_max) / current_max <= self.hysteresis:
            return None
        self.last_repack = int(round_index)
        self.last_decision = {
            "round": int(round_index),
            "bottleneck_before": float(current_max),
            "bottleneck_after": float(candidate_max),
        }
        return layout.repacked(candidate)

    # ----------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable EWMA state (checkpoint payload)."""
        return {
            "interval": self.interval,
            "alpha": self.alpha,
            "hysteresis": self.hysteresis,
            "ewma": [
                [component, value] for component, value in sorted(self.ewma.items())
            ],
            "last_repack": self.last_repack,
            "observed_rounds": self.observed_rounds,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output bit-exactly (config untouched)."""
        self.ewma = {
            int(component): float(value) for component, value in state["ewma"]
        }
        self.last_repack = int(state["last_repack"])
        self.observed_rounds = int(state["observed_rounds"])
