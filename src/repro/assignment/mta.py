"""MTA — the Maximum Task Assignment baseline (Kazemi & Shahabi 2012).

Maximizes the number of assigned tasks by computing a maximum matching on
the assignment graph; worker-task influence plays no role.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.assignment.base import Assigner, PreparedInstance
from repro.entities import Assignment


def pair_matrix(
    indptr: np.ndarray, columns: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """A CSR matrix of ones over the given rows' columns, with the int32
    index arrays Hopcroft-Karp reads, so that scipy neither downcasts nor
    re-checks their dtype."""
    return sparse.csr_matrix(
        (
            np.ones(columns.size, dtype=np.int8),
            columns.astype(np.int32, copy=False),
            indptr.astype(np.int32, copy=False),
        ),
        shape=shape,
    )


class MTAAssigner(Assigner):
    """Max-cardinality assignment, ignoring influence.

    Solves with scipy's Hopcroft-Karp matching on the instance's
    feasible-pair graph, handed over as it is.  The paper's formulation —
    max flow on the Figure-4 network — is kept as the reference:
    :class:`~repro.flow.Dinic` on
    :func:`~repro.assignment.solvers.build_figure4_network` reaches the
    same cardinality, which the test suite checks.
    """

    name = "MTA"

    def assign(self, prepared: PreparedInstance) -> Assignment:
        feasible = prepared.feasible
        if feasible.num_feasible == 0:
            return Assignment()
        graph = pair_matrix(
            feasible.graph.indptr, feasible.graph.columns,
            (len(feasible.workers), len(feasible.tasks)),
        )
        match = maximum_bipartite_matching(graph, perm_type="column")
        rows = np.flatnonzero(match >= 0)
        return prepared.build_assignment((rows, match[rows].astype(np.int64)))
