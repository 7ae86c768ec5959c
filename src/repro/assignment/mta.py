"""MTA — the Maximum Task Assignment baseline (Kazemi & Shahabi 2012).

Maximizes the number of assigned tasks by computing a maximum matching on
the assignment graph; worker-task influence plays no role.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.assignment.base import Assigner, PreparedInstance, mask_nonzero
from repro.entities import Assignment


def feasibility_csr(mask: np.ndarray) -> sparse.csr_matrix:
    """The boolean ``mask`` as a CSR matrix of ones, read straight off it:
    row counts give ``indptr`` and the row-major nonzero columns give
    ``indices``, with no dense copy and no COO round trip."""
    indptr = np.zeros(mask.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    indices = mask_nonzero(mask)[1]
    data = np.ones(indices.size, dtype=np.int8)
    return sparse.csr_matrix((data, indices, indptr), shape=mask.shape)


class MTAAssigner(Assigner):
    """Max-cardinality assignment, ignoring influence.

    Solves with scipy's Hopcroft-Karp matching on the feasibility mask.
    The paper's formulation — max flow on the Figure-4 network — is kept
    as the reference: :class:`~repro.flow.Dinic` on
    :func:`~repro.assignment.solvers.build_figure4_network` reaches the
    same cardinality, which the test suite checks.
    """

    name = "MTA"

    def assign(self, prepared: PreparedInstance) -> Assignment:
        graph = feasibility_csr(prepared.feasible.mask)
        if graph.indptr[-1] == 0:
            return Assignment()
        match = maximum_bipartite_matching(graph, perm_type="column")
        rows = np.flatnonzero(match >= 0)
        return prepared.build_assignment((rows, match[rows].astype(np.int64)))
