"""The naive nearest-worker greedy of the paper's running example (Fig. 1).

Tasks are processed in publication order; each is given to the nearest
still-free feasible worker.  Kept as an illustrative baseline — the
introduction uses it to motivate influence-aware assignment.
"""

from __future__ import annotations

import numpy as np

from repro.assignment.base import Assigner, PreparedInstance
from repro.entities import Assignment


class NearestNeighborAssigner(Assigner):
    """Greedy nearest-worker assignment."""

    name = "NN"

    def assign(self, prepared: PreparedInstance) -> Assignment:
        feasible = prepared.feasible
        if feasible.num_feasible == 0:
            return Assignment()
        # The pair graph by task column: each column's workers in row
        # order, with their distances.
        graph = feasible.graph
        by_column = np.argsort(graph.columns, kind="stable")
        rows = graph.rows()[by_column].tolist()
        distances = graph.distance_km[by_column].tolist()
        starts = np.zeros(len(feasible.tasks) + 1, dtype=np.int64)
        np.cumsum(np.bincount(graph.columns, minlength=len(feasible.tasks)), out=starts[1:])
        starts = starts.tolist()
        order = np.argsort([t.publication_time for t in feasible.tasks], kind="stable")
        used_workers: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for column in order.tolist():
            # The nearest free worker; the lowest row among equals.
            best, best_distance = -1, 0.0
            for at in range(starts[column], starts[column + 1]):
                row = rows[at]
                if row not in used_workers and (best < 0 or distances[at] < best_distance):
                    best, best_distance = row, distances[at]
            if best >= 0:
                used_workers.add(best)
                pairs.append((best, column))
        return prepared.build_assignment(pairs)
