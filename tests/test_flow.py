"""Tests for the flow substrate: network, max-flow, min-cost max-flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment.solvers import build_figure4_network
from repro.exceptions import FlowError
from repro.flow import Dinic, FlowNetwork, MinCostMaxFlow, edmonds_karp


def classic_network():
    """The CLRS example network with max flow 23."""
    network = FlowNetwork(6)
    edges = [
        (0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4), (1, 3, 12),
        (3, 2, 9), (2, 4, 14), (4, 3, 7), (3, 5, 20), (4, 5, 4),
    ]
    for u, v, c in edges:
        network.add_edge(u, v, c)
    return network


def diamond_network():
    """Source 0 -> {1, 2} -> sink 3 with asymmetric costs."""
    network = FlowNetwork(4)
    network.add_edge(0, 1, capacity=1, cost=0.0)
    network.add_edge(0, 2, capacity=1, cost=0.0)
    network.add_edge(1, 3, capacity=1, cost=5.0)
    network.add_edge(2, 3, capacity=1, cost=1.0)
    return network


def random_assignment_network(num_workers, num_tasks, density, seed):
    """A Figure-4 network over a random feasibility mask and costs."""
    rng = np.random.default_rng(seed)
    feasible = rng.random((num_workers, num_tasks)) < density
    cost = np.round(rng.random((num_workers, num_tasks)) * 9, 3)
    network, _, _, _ = build_figure4_network(feasible, cost)
    return network


class TestFlowNetwork:
    def test_needs_two_nodes(self):
        with pytest.raises(FlowError):
            FlowNetwork(1)

    def test_rejects_bad_edges(self):
        network = FlowNetwork(3)
        with pytest.raises(FlowError):
            network.add_edge(0, 0, 1)
        with pytest.raises(FlowError):
            network.add_edge(0, 5, 1)
        with pytest.raises(FlowError):
            network.add_edge(0, 1, -1)

    def test_residual_twin(self):
        network = FlowNetwork(2)
        edge = network.add_edge(0, 1, 5, cost=2.0)
        assert network.edge_cap[edge] == 5
        assert network.edge_cap[edge ^ 1] == 0
        assert network.edge_cost[edge ^ 1] == -2.0

    def test_push_updates_both_directions(self):
        network = FlowNetwork(2)
        edge = network.add_edge(0, 1, 5)
        network.push(edge, 3)
        assert network.residual(edge) == 2
        assert network.flow_on(edge) == 3

    def test_push_over_capacity_rejected(self):
        network = FlowNetwork(2)
        edge = network.add_edge(0, 1, 5)
        with pytest.raises(FlowError):
            network.push(edge, 6)

    def test_flow_on_rejects_residual_id(self):
        network = FlowNetwork(2)
        edge = network.add_edge(0, 1, 5)
        with pytest.raises(FlowError):
            network.flow_on(edge + 1)


class TestMaxFlow:
    def test_edmonds_karp_classic(self):
        assert edmonds_karp(classic_network(), 0, 5) == 23

    def test_dinic_classic(self):
        assert Dinic(classic_network()).max_flow(0, 5) == 23

    def test_source_equals_sink_rejected(self):
        with pytest.raises(FlowError):
            edmonds_karp(classic_network(), 0, 0)
        with pytest.raises(FlowError):
            Dinic(classic_network()).max_flow(1, 1)

    def test_disconnected_gives_zero(self):
        def disconnected():
            network = FlowNetwork(4)
            network.add_edge(0, 1, 5, cost=1.0)
            network.add_edge(2, 3, 5, cost=1.0)
            return network

        assert edmonds_karp(disconnected(), 0, 3) == 0
        assert Dinic(disconnected()).max_flow(0, 3) == 0
        result = MinCostMaxFlow(disconnected()).solve(0, 3)
        assert result.max_flow == 0
        assert result.total_cost == 0.0

    def test_bipartite_unit_matching(self):
        # 2 workers, 2 tasks, full bipartite -> matching 2.
        network = FlowNetwork(6)
        network.add_edge(0, 1, 1)
        network.add_edge(0, 2, 1)
        for w in (1, 2):
            for t in (3, 4):
                network.add_edge(w, t, 1)
        network.add_edge(3, 5, 1)
        network.add_edge(4, 5, 1)
        assert Dinic(network).max_flow(0, 5) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_dinic_agrees_with_edmonds_karp(self, n, data):
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and data.draw(st.booleans()):
                    edges.append((u, v, data.draw(st.integers(0, 10))))
        net_a = FlowNetwork(n)
        net_b = FlowNetwork(n)
        for u, v, c in edges:
            net_a.add_edge(u, v, c)
            net_b.add_edge(u, v, c)
        assert edmonds_karp(net_a, 0, n - 1) == Dinic(net_b).max_flow(0, n - 1)

    def test_dinic_parallel_source_arcs(self):
        # Two parallel unit source arcs into one middle node still carry
        # only one unit through that node's single onward arc.
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1)
        network.add_edge(0, 1, 1)
        network.add_edge(1, 2, 1)
        network.add_edge(2, 3, 1)
        assert Dinic(network).max_flow(0, 3) == 1

    def test_dinic_parallel_sink_arcs(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1)
        network.add_edge(1, 2, 1)
        network.add_edge(2, 3, 1)
        network.add_edge(2, 3, 1)
        assert Dinic(network).max_flow(0, 3) == 1


class TestMinCostMaxFlow:
    def test_prefers_cheap_path(self):
        # Two parallel unit paths with different costs; flow 2 uses both,
        # flow accounting must price them correctly.
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1, cost=1.0)
        network.add_edge(0, 2, 1, cost=5.0)
        network.add_edge(1, 3, 1, cost=1.0)
        network.add_edge(2, 3, 1, cost=5.0)
        result = MinCostMaxFlow(network).solve(0, 3)
        assert result.max_flow == 2
        assert result.total_cost == pytest.approx(12.0)
        # Diamond: both unit paths are needed, priced 5 and 1.
        result = MinCostMaxFlow(diamond_network()).solve(0, 3)
        assert result.max_flow == 2
        assert result.total_cost == pytest.approx(6.0)

    def test_max_flow_takes_priority_over_cost(self):
        # The expensive edge must still be used to achieve max flow.
        network = FlowNetwork(4)
        network.add_edge(0, 1, 2, cost=0.0)
        network.add_edge(1, 2, 1, cost=0.0)
        network.add_edge(1, 3, 1, cost=100.0)
        network.add_edge(2, 3, 1, cost=0.0)
        result = MinCostMaxFlow(network).solve(0, 3)
        assert result.max_flow == 2
        assert result.total_cost == pytest.approx(100.0)

    def test_rerouting_through_residual_edges(self):
        # Classic case where SSP must push flow back along a residual arc.
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1, cost=1.0)
        network.add_edge(0, 2, 1, cost=2.0)
        network.add_edge(1, 2, 1, cost=0.0)
        network.add_edge(1, 3, 1, cost=4.0)
        network.add_edge(2, 3, 2, cost=1.0)
        result = MinCostMaxFlow(network).solve(0, 3)
        assert result.max_flow == 2
        # Cheapest max flow: 0-1-2-3 (2) and 0-2-3 (3) = 5.
        assert result.total_cost == pytest.approx(5.0)

    def test_flow_value_matches_dinic(self):
        net_a = classic_network()
        net_b = classic_network()
        assert MinCostMaxFlow(net_a).solve(0, 5).max_flow == Dinic(net_b).max_flow(0, 5)
        for seed, (num_workers, num_tasks) in enumerate(
            [(1, 1), (1, 8), (8, 1), (3, 5), (6, 7), (8, 8)]
        ):
            net_a = random_assignment_network(num_workers, num_tasks, 0.5, seed)
            net_b = random_assignment_network(num_workers, num_tasks, 0.5, seed)
            sink = net_a.num_nodes - 1
            assert (
                MinCostMaxFlow(net_a).solve(0, sink).max_flow
                == Dinic(net_b).max_flow(0, sink)
            ), (num_workers, num_tasks)

    def test_source_equals_sink_rejected(self):
        with pytest.raises(FlowError):
            MinCostMaxFlow(classic_network()).solve(2, 2)


class TestArraySubstrate:
    """The flat-CSR network API added by the array rewrite."""

    def test_add_edges_bulk_matches_scalar(self):
        bulk = FlowNetwork(5)
        ids = bulk.add_edges(
            np.array([0, 1, 2]), np.array([1, 2, 4]),
            np.array([3, 2, 1]), np.array([1.0, 2.0, 3.0]),
        )
        scalar = FlowNetwork(5)
        expected = [
            scalar.add_edge(0, 1, 3, 1.0),
            scalar.add_edge(1, 2, 2, 2.0),
            scalar.add_edge(2, 4, 1, 3.0),
        ]
        assert ids.tolist() == expected
        assert bulk.edge_to.tolist() == scalar.edge_to.tolist()
        assert bulk.edge_cap.tolist() == scalar.edge_cap.tolist()
        assert bulk.edge_cost.tolist() == scalar.edge_cost.tolist()

    def test_add_edges_validation(self):
        network = FlowNetwork(3)
        with pytest.raises(FlowError):
            network.add_edges(np.array([0]), np.array([0]), np.array([1]))
        with pytest.raises(FlowError):
            network.add_edges(np.array([0]), np.array([9]), np.array([1]))
        with pytest.raises(FlowError):
            network.add_edges(np.array([0]), np.array([1]), np.array([-2]))
        with pytest.raises(FlowError):
            network.add_edges(np.array([0, 1]), np.array([1]), np.array([1]))

    def test_csr_insertion_order_per_node(self):
        network = FlowNetwork(4)
        first = network.add_edge(0, 1, 1)
        second = network.add_edge(0, 2, 1)
        third = network.add_edge(0, 3, 1)
        indptr, csr_edges = network.csr()
        assert csr_edges[indptr[0] : indptr[1]].tolist() == [first, second, third]
        # Adding edges invalidates and rebuilds the CSR lazily.
        fourth = network.add_edge(0, 1, 2)
        indptr, csr_edges = network.csr()
        assert csr_edges[indptr[0] : indptr[1]].tolist() == [first, second, third, fourth]

    def test_adjacency_compatibility_view(self):
        network = FlowNetwork(3)
        edge = network.add_edge(0, 1, 1)
        other = network.add_edge(1, 2, 1)
        adjacency = network.adjacency
        assert adjacency[0] == [edge]
        assert adjacency[1] == [edge ^ 1, other]
        assert adjacency[2] == [other ^ 1]

    def test_edge_tail_mirrors_edge_to(self):
        network = FlowNetwork(3)
        edge = network.add_edge(0, 2, 1)
        assert network.edge_tail[edge] == 0
        assert network.edge_to[edge] == 2
        assert network.edge_tail[edge ^ 1] == 2
        assert network.edge_to[edge ^ 1] == 0

    def test_flows_vectorized(self):
        network = FlowNetwork(4)
        ids = network.add_edges(
            np.array([0, 0]), np.array([1, 2]), np.array([2, 2])
        )
        network.push(int(ids[0]), 2)
        assert network.flows(ids).tolist() == [2, 0]
        with pytest.raises(FlowError):
            network.flows(ids + 1)

    def test_push_negative_amount_rejected(self):
        network = FlowNetwork(2)
        edge = network.add_edge(0, 1, 5)
        with pytest.raises(FlowError):
            network.push(edge, -1)

    def test_capacity_doubling_preserves_edges(self):
        network = FlowNetwork(3)
        ids = [network.add_edge(0, 1, i + 1) for i in range(50)]
        assert network.num_edges == 50
        assert [network.residual(e) for e in ids] == list(range(1, 51))

    def test_fractional_capacity_rejected(self):
        network = FlowNetwork(3)
        with pytest.raises(FlowError):
            network.add_edge(0, 1, 1.9)
        with pytest.raises(FlowError):
            network.add_edges(np.array([0]), np.array([2]), np.array([0.5]))
        # Integral floats are accepted and stored exactly.
        edge = network.add_edge(0, 1, 2.0)
        assert network.residual(edge) == 2
