"""Minimum-cost maximum-flow via successive shortest augmenting paths.

Each round finds a minimum-cost path in the residual network and augments
along it; with all original costs finite this terminates with the maximum
flow whose total cost is minimal among all maximum flows — exactly the
objective of the paper's Ford-Fulkerson + LP formulation, computed in one
pass.

The shortest-path phase is one Dijkstra on Johnson-reduced costs
(:func:`~repro.flow.potentials.dijkstra_reduced`): potentials ``h`` keep
every residual cost ``c + h(u) - h(v)`` non-negative, so each phase is
O((V + E) log V) with vectorized per-node relaxation.  Graphs with negative
*original* costs bootstrap their potentials with one guarded Bellman-Ford
pass — a negative-cost cycle raises :class:`FlowError` instead of hanging
the solver.  This is the test reference for the production scipy solves of
:mod:`repro.assignment.solvers`, so it carries no speed-only machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork
from repro.flow.potentials import (
    bellman_ford_potentials,
    dijkstra_reduced,
    extract_path,
)


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a min-cost max-flow computation."""

    max_flow: int
    total_cost: float


class MinCostMaxFlow:
    """Successive-shortest-path MCMF over a :class:`FlowNetwork`.

    After :meth:`solve`, :attr:`potential` holds the final Johnson
    potentials — the complementary-slackness certificate: every residual
    edge has non-negative reduced cost, so the residual graph contains no
    negative-cost cycle and the flow is cost-optimal at its value.

    A network may carry flow already, provided that flow is min-cost for
    its value (e.g. a previous :meth:`solve` — warm restart): the guarded
    Bellman-Ford bootstrap prices the exposed negative twins.  A
    *suboptimal* pre-flow leaves a negative residual cycle and raises
    :class:`FlowError`, like any genuinely negative-cycled cost structure.
    """

    def __init__(self, network: FlowNetwork) -> None:
        self.network = network
        #: Final node potentials; ``None`` until :meth:`solve` runs.
        self.potential: np.ndarray | None = None

    def solve(self, source: int, sink: int) -> FlowResult:
        """Run MCMF from ``source`` to ``sink``; mutates the network."""
        if source == sink:
            raise FlowError("source and sink must differ")
        network = self.network
        cap = network.edge_cap
        cost = network.edge_cost
        # Zero potentials are only valid when no *active* residual edge has
        # negative cost — a network that already carries flow exposes the
        # negated twins of its used edges, so check the residual graph, not
        # just the forward costs.
        active_costs = cost[cap > 0]
        if active_costs.size and active_costs.min() < 0:
            potential = bellman_ford_potentials(network, source)
        else:
            potential = np.zeros(network.num_nodes)
        total_flow = 0
        total_cost = 0.0
        while True:
            distance, in_edge = dijkstra_reduced(
                network, source, potential, sink=sink
            )
            if in_edge[sink] == -1:
                self.potential = potential
                return FlowResult(max_flow=total_flow, total_cost=total_cost)
            # The search stops once the sink settles, so unsettled nodes only
            # carry tentative labels; capping at distance[sink] keeps every
            # residual reduced cost non-negative (Johnson's invariant).
            potential = potential + np.minimum(distance, distance[sink])

            path = extract_path(network, source, sink, in_edge)
            bottleneck = int(cap[path].min())
            assert bottleneck > 0
            cap[path] -= bottleneck
            cap[path ^ 1] += bottleneck
            total_flow += bottleneck
            total_cost += bottleneck * float(cost[path].sum())
