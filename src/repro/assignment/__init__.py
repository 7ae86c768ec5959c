"""Task-assignment algorithms (paper Section IV).

* :class:`MTAAssigner` — Maximum Task Assignment baseline (max cardinality
  only);
* :class:`IAAssigner` — basic Influence-aware Assignment (MCMF with cost
  ``1/(if + 1)``);
* :class:`EIAAssigner` — Entropy-based IA (cost ``(s.e + 1)/(if + 1)``);
* :class:`DIAAssigner` — Distance-based IA (cost ``1/(F * if + 1)``);
* :class:`MIAssigner` — Maximum Influence baseline (greedy on influence);
* :class:`NearestNeighborAssigner` — the naive greedy of Figure 1.

One exact solver per problem runs in production, and the paper's flow
algorithms are kept as the references the tests check it against:

* IA / EIA / DIA — :func:`solve_lexicographic`: per connected component of
  the feasibility graph, scipy's Jonker-Volgenant LSAP with a
  cardinality-first penalty pad; reference :func:`solve_lexicographic_mcmf`
  (successive shortest paths on the Figure-4 network);
* MTA — scipy's Hopcroft-Karp matching; reference :class:`~repro.flow.Dinic`
  on :func:`~repro.assignment.solvers.build_figure4_network`.
"""

from repro.assignment.base import (
    Assigner,
    EntityColumns,
    FeasiblePairs,
    PreparedInstance,
    RoundState,
    compute_feasible,
    entity_columns,
)
from repro.assignment.candidates import PairGraph, pair_graph
from repro.assignment.lexico import LexicographicCostAssigner
from repro.assignment.solvers import (
    solve_lexicographic,
    solve_lexicographic_mcmf,
)
from repro.assignment.mta import MTAAssigner
from repro.assignment.ia import IAAssigner
from repro.assignment.eia import EIAAssigner
from repro.assignment.dia import DIAAssigner
from repro.assignment.mi import MIAssigner
from repro.assignment.greedy import NearestNeighborAssigner
from repro.assignment.partitioned import PartitionedAssigner

__all__ = [
    "Assigner",
    "EntityColumns",
    "FeasiblePairs",
    "PreparedInstance",
    "RoundState",
    "compute_feasible",
    "entity_columns",
    "PairGraph",
    "pair_graph",
    "LexicographicCostAssigner",
    "solve_lexicographic",
    "solve_lexicographic_mcmf",
    "MTAAssigner",
    "IAAssigner",
    "EIAAssigner",
    "DIAAssigner",
    "MIAssigner",
    "NearestNeighborAssigner",
    "PartitionedAssigner",
]
