"""Flow-network substrate: residual graphs, max-flow, min-cost max-flow.

The paper converts task assignment to Minimum-Cost Maximum-Flow on the graph
of Figure 4 and solves it with Ford-Fulkerson plus a cost-minimizing LP.  We
implement the substrate from scratch on flat-CSR arrays (the same layout the
propagation engine uses):

* :class:`FlowNetwork` — a residual network with paired forward/backward
  edges stored as ``(indptr, heads, capacity, cost)`` numpy slabs; bulk
  :meth:`~FlowNetwork.add_edges` builds assignment graphs without Python
  loops;
* :func:`edmonds_karp` — BFS-based Ford-Fulkerson (max flow only), the
  readable reference;
* :class:`Dinic` — level-graph/blocking-flow max flow; the level BFS
  advances whole frontiers with vectorized capacity masks;
* :class:`MinCostMaxFlow` — successive shortest augmenting paths via
  Dijkstra on Johnson-reduced costs (:mod:`repro.flow.potentials`); returns
  exactly the (max flow, min cost) pair the paper's Ford-Fulkerson + LP
  pipeline produces, in one pass, and raises
  :class:`~repro.exceptions.FlowError` on negative-cost cycles instead of
  hanging.

These are the paper's algorithms, kept as readable references: production
assignment solves run through scipy (:mod:`repro.assignment.solvers`,
:class:`~repro.assignment.MTAAssigner`), and the test suite and benches
check them against :class:`Dinic` and :class:`MinCostMaxFlow` on the
Figure-4 network.  Each reference has one plain path and no engine option.
"""

from repro.flow.network import FlowNetwork
from repro.flow.maxflow import edmonds_karp, Dinic
from repro.flow.mincost import MinCostMaxFlow, FlowResult
from repro.flow.potentials import bellman_ford_potentials, dijkstra_reduced

__all__ = [
    "FlowNetwork",
    "edmonds_karp",
    "Dinic",
    "MinCostMaxFlow",
    "FlowResult",
    "bellman_ford_potentials",
    "dijkstra_reduced",
]
