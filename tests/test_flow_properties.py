"""Property-based invariants of the array-native flow core.

Hypothesis-generated networks check, after solving:

* flow conservation at every non-terminal node;
* capacity feasibility (0 <= flow <= capacity on every forward edge);
* antisymmetry of paired edges (forward residual + twin residual = original
  capacity; twin's residual *is* the forward flow);
* complementary slackness on the final MCMF residual graph: the solver's
  final potentials price every residual edge at non-negative reduced cost,
  hence the residual graph has no negative-cost cycle and every cycle of
  tight (zero-reduced-cost) edges certifies optimality;
* the pre-rewrite SPFA hazard: a negative-cost cycle now raises
  :class:`FlowError` instead of relaxing forever.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import FlowError
from repro.flow import Dinic, FlowNetwork, MinCostMaxFlow, bellman_ford_potentials


def build_network(num_nodes, edges):
    network = FlowNetwork(num_nodes)
    original_caps = {}
    for source, target, capacity, cost in edges:
        edge_id = network.add_edge(source, target, capacity, cost)
        original_caps[edge_id] = capacity
    return network, original_caps


@st.composite
def random_networks(draw):
    """A random multigraph with non-negative costs and terminal nodes 0/n-1."""
    num_nodes = draw(st.integers(3, 9))
    num_edges = draw(st.integers(1, 24))
    edges = []
    for _ in range(num_edges):
        source = draw(st.integers(0, num_nodes - 1))
        target = draw(st.integers(0, num_nodes - 1))
        if source == target:
            continue
        capacity = draw(st.integers(0, 7))
        cost = draw(st.integers(0, 9)) / draw(st.sampled_from([1, 2, 4]))
        edges.append((source, target, capacity, cost))
    return num_nodes, edges


def assignment_spec(num_left, num_right, density, seed):
    """A Figure-4 network spec: unit capacities, random pair costs."""
    rng = np.random.default_rng(seed)
    mask = rng.random((num_left, num_right)) < density
    cost = np.round(rng.random((num_left, num_right)) * 9, 3)
    sink = num_left + num_right + 1
    edges = [(0, 1 + i, 1, 0.0) for i in range(num_left)]
    edges += [(1 + num_left + j, sink, 1, 0.0) for j in range(num_right)]
    edges += [
        (1 + i, 1 + num_left + j, 1, float(cost[i, j]))
        for i, j in zip(*np.nonzero(mask))
    ]
    return sink + 1, edges


def check_flow_invariants(network, original_caps, source, sink, flow_value):
    heads = network.edge_to
    net_out = np.zeros(network.num_nodes)
    for edge_id, capacity in original_caps.items():
        flow = network.flow_on(edge_id)
        # Capacity feasibility.
        assert 0 <= flow <= capacity
        # Antisymmetry of the residual pair.
        assert network.residual(edge_id) == capacity - flow
        assert network.residual(edge_id ^ 1) == flow
        tail = int(heads[edge_id ^ 1])
        head = int(heads[edge_id])
        net_out[tail] += flow
        net_out[head] -= flow
    # Conservation everywhere except the terminals.
    for node in range(network.num_nodes):
        if node == source:
            assert net_out[node] == flow_value
        elif node == sink:
            assert net_out[node] == -flow_value
        else:
            assert net_out[node] == 0


class TestMaxFlowInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_dinic_flow_is_feasible_and_conserved(self, network_spec):
        num_nodes, edges = network_spec
        network, original_caps = build_network(num_nodes, edges)
        value = Dinic(network).max_flow(0, num_nodes - 1)
        check_flow_invariants(network, original_caps, 0, num_nodes - 1, value)

    @settings(max_examples=40, deadline=None)
    @given(random_networks())
    def test_dinic_residual_has_no_augmenting_path(self, network_spec):
        """Max-flow certificate: the sink is BFS-unreachable afterwards."""
        num_nodes, edges = network_spec
        network, _ = build_network(num_nodes, edges)
        Dinic(network).max_flow(0, num_nodes - 1)
        indptr, csr_edges = network.csr()
        cap = network.edge_cap
        heads = network.edge_to
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for position in range(indptr[node], indptr[node + 1]):
                edge_id = int(csr_edges[position])
                target = int(heads[edge_id])
                if cap[edge_id] > 0 and target not in seen:
                    seen.add(target)
                    stack.append(target)
        assert (num_nodes - 1) not in seen


class TestMinCostInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    @example(assignment_spec(6, 7, 0.5, seed=3))
    @example(assignment_spec(5, 5, 0.6, seed=11))
    def test_mcmf_flow_is_feasible_and_conserved(self, network_spec):
        num_nodes, edges = network_spec
        network, original_caps = build_network(num_nodes, edges)
        result = MinCostMaxFlow(network).solve(0, num_nodes - 1)
        check_flow_invariants(
            network, original_caps, 0, num_nodes - 1, result.max_flow
        )

    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_complementary_slackness_on_final_residual(self, network_spec):
        """Every residual edge prices non-negative under the final
        potentials, so the residual graph carries no negative-cost cycle:
        the certificate that the flow is cost-minimal at its value."""
        num_nodes, edges = network_spec
        network, _ = build_network(num_nodes, edges)
        solver = MinCostMaxFlow(network)
        solver.solve(0, num_nodes - 1)
        potential = solver.potential
        assert potential is not None
        cap = network.edge_cap
        cost = network.edge_cost
        heads = network.edge_to
        tails = network.edge_tail
        residual = np.nonzero(cap[: len(heads)] > 0)[0]
        reduced = (
            cost[residual] + potential[tails[residual]] - potential[heads[residual]]
        )
        assert (reduced >= -1e-9).all()


class TestNegativeCycleGuard:
    """Regression for the latent SPFA hazard: the pre-rewrite solver spun
    forever on a negative-cost residual cycle; the rewrite must raise."""

    def negative_cycle_network(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, capacity=2, cost=1.0)
        # 1 -> 2 -> 1 is a capacity-positive cycle of total cost -3.
        network.add_edge(1, 2, capacity=3, cost=-5.0)
        network.add_edge(2, 1, capacity=3, cost=2.0)
        network.add_edge(2, 3, capacity=1, cost=1.0)
        return network

    def test_mcmf_raises_instead_of_hanging(self):
        network = self.negative_cycle_network()
        with pytest.raises(FlowError, match="negative-cost cycle"):
            MinCostMaxFlow(network).solve(0, 3)

    def test_bellman_ford_guard_raises(self):
        network = self.negative_cycle_network()
        with pytest.raises(FlowError, match="negative-cost cycle"):
            bellman_ford_potentials(network, 0)

    def test_negative_costs_without_cycle_still_solve(self):
        """Plain negative costs (no cycle) stay supported: Bellman-Ford
        bootstraps valid potentials."""
        network = FlowNetwork(4)
        network.add_edge(0, 1, capacity=1, cost=-2.0)
        network.add_edge(0, 2, capacity=1, cost=1.0)
        network.add_edge(1, 3, capacity=1, cost=1.0)
        network.add_edge(2, 3, capacity=1, cost=-3.0)
        result = MinCostMaxFlow(network).solve(0, 3)
        assert result.max_flow == 2
        assert result.total_cost == pytest.approx(-3.0)

class TestPreFlowedNetwork:
    """The Johnson bootstrap must look at *active residual* costs: a network
    that already carries flow exposes negated twins of its used edges, which
    zero potentials would mis-price (and the clamp would silently mask).

    SSP's precondition is that the existing flow is min-cost for its value.
    A *suboptimal* pre-flow leaves a negative-cost cycle in the residual
    graph; pre-fix, the solver silently returned a cost-suboptimal result
    (and the pre-rewrite SPFA relaxed that cycle forever).  Post-fix the
    bootstrap prices the residual graph and raises.  An *optimal* pre-flow
    (warm restart) solves on correctly.
    """

    def figure4(self):
        # Workers a=1, b=2; tasks x=3, y=4; source 0, sink 5.
        network = FlowNetwork(6)
        edge = {}
        edge["sa"] = network.add_edge(0, 1, 1)
        edge["sb"] = network.add_edge(0, 2, 1)
        edge["ax"] = network.add_edge(1, 3, 1, cost=5.0)
        edge["ay"] = network.add_edge(1, 4, 1, cost=4.0)
        edge["bx"] = network.add_edge(2, 3, 1, cost=0.0)
        edge["by"] = network.add_edge(2, 4, 1, cost=3.0)
        edge["xt"] = network.add_edge(3, 5, 1)
        edge["yt"] = network.add_edge(4, 5, 1)
        return network, edge

    def test_suboptimal_preflow_raises(self):
        network, edge = self.figure4()
        # Pre-push one unit along s -> a -> x -> t (cost 5, suboptimal): the
        # residual then carries the negative cycle x ~> a -> y -> t ~> x
        # (-5 + 4 + 0 + 0 = -1), which SSP cannot price.
        for name in ("sa", "ax", "xt"):
            network.push(edge[name], 1)
        with pytest.raises(FlowError, match="negative-cost cycle"):
            MinCostMaxFlow(network).solve(0, 5)

    def test_optimal_preflow_warm_restarts(self):
        network, edge = self.figure4()
        # Pre-push the min-cost unit s -> b -> x -> t (cost 0): residual
        # twins are negative but cycle-free, so Bellman-Ford bootstraps
        # valid potentials and the solve completes the optimum.
        for name in ("sb", "bx", "xt"):
            network.push(edge[name], 1)
        result = MinCostMaxFlow(network).solve(0, 5)
        assert result.max_flow == 1
        assert result.total_cost == pytest.approx(4.0)
        assert network.flow_on(edge["ay"]) == 1
        assert network.flow_on(edge["bx"]) == 1
