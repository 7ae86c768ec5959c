"""Shared base for the lexicographic cost-matrix assigners (IA family).

IA, EIA and DIA differ only in how they price a worker-task edge; the
solve itself — lexicographic max-cardinality-then-min-cost matching over
the feasibility mask, :func:`~repro.assignment.solvers.solve_lexicographic`
— is identical, so :class:`LexicographicCostAssigner` hosts it once.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.assignment.base import Assigner, PreparedInstance
from repro.assignment.solvers import solve_lexicographic
from repro.entities import Assignment


class LexicographicCostAssigner(Assigner):
    """An assigner defined entirely by its dense edge-cost matrix."""

    @abc.abstractmethod
    def edge_costs(self, prepared: PreparedInstance) -> np.ndarray:
        """The ``W x T`` cost matrix this algorithm minimizes over."""

    def assign(self, prepared: PreparedInstance) -> Assignment:
        feasible = prepared.feasible
        if feasible.num_feasible == 0:
            return Assignment()
        return prepared.build_assignment(
            solve_lexicographic(self.edge_costs(prepared), feasible.mask)
        )
