"""Randomized oracle suite: the from-scratch flow solvers vs scipy.

~200 seeded random instances cross-check the exact combinatorial engines
against independent implementations:

* ``Dinic.max_flow`` (and ``edmonds_karp`` on a subset) against
  ``scipy.sparse.csgraph.maximum_flow`` on random digraphs and bipartite
  assignment graphs, unit and integer capacities, sparse through dense;
* ``MinCostMaxFlow`` and the production per-component solver
  (``repro.assignment.solve_lexicographic``) against a whole-matrix
  ``scipy.optimize.linear_sum_assignment`` via the standard lexicographic
  big-penalty reduction — asserting equal flow value *and* equal optimal
  cost.

Integer costs are used on half the MCMF instances so ties are exercised,
not just the generic unique-optimum case.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import maximum_flow

from repro.assignment import solve_lexicographic
from repro.flow import Dinic, FlowNetwork, MinCostMaxFlow, edmonds_karp


def random_digraph(rng, max_nodes=12, max_capacity=10):
    """A random capacity matrix without self-loops; returns (matrix, s, t)."""
    num_nodes = int(rng.integers(2, max_nodes + 1))
    density = float(rng.uniform(0.15, 0.9))
    capacity = rng.integers(1, max_capacity + 1, size=(num_nodes, num_nodes))
    keep = rng.random((num_nodes, num_nodes)) < density
    np.fill_diagonal(keep, False)
    capacity = np.where(keep, capacity, 0)
    return capacity, 0, num_nodes - 1


def random_bipartite_matrix(rng, max_side=14, unit=True, max_capacity=5):
    """Capacity matrix of a source/workers/tasks/sink assignment graph."""
    num_left = int(rng.integers(1, max_side + 1))
    num_right = int(rng.integers(1, max_side + 1))
    density = float(rng.uniform(0.1, 1.0))
    num_nodes = num_left + num_right + 2
    source, sink = 0, num_nodes - 1
    capacity = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    capacity[source, 1 : 1 + num_left] = 1 if unit else rng.integers(
        1, max_capacity + 1, num_left
    )
    capacity[1 + num_left : 1 + num_left + num_right, sink] = 1 if unit else (
        rng.integers(1, max_capacity + 1, num_right)
    )
    mask = rng.random((num_left, num_right)) < density
    pair_caps = (
        np.ones((num_left, num_right), dtype=np.int64)
        if unit
        else rng.integers(1, max_capacity + 1, (num_left, num_right))
    )
    capacity[1 : 1 + num_left, 1 + num_left : 1 + num_left + num_right] = np.where(
        mask, pair_caps, 0
    )
    return capacity, source, sink


def network_from_matrix(capacity):
    """Build a :class:`FlowNetwork` from a dense capacity matrix."""
    network = FlowNetwork(capacity.shape[0])
    rows, columns = np.nonzero(capacity)
    if rows.size:
        network.add_edges(rows, columns, capacity[rows, columns])
    return network


def scipy_max_flow(capacity, source, sink):
    graph = sparse.csr_matrix(capacity.astype(np.int32))
    return int(maximum_flow(graph, source, sink).flow_value)


class TestMaxFlowOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_dinic_on_random_digraphs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        capacity, source, sink = random_digraph(rng)
        expected = scipy_max_flow(capacity, source, sink)
        network = network_from_matrix(capacity)
        assert Dinic(network).max_flow(source, sink) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_dinic_on_unit_bipartite(self, seed):
        rng = np.random.default_rng(2000 + seed)
        capacity, source, sink = random_bipartite_matrix(rng, unit=True)
        expected = scipy_max_flow(capacity, source, sink)
        network = network_from_matrix(capacity)
        assert Dinic(network).max_flow(source, sink) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_dinic_on_integer_bipartite(self, seed):
        rng = np.random.default_rng(3000 + seed)
        capacity, source, sink = random_bipartite_matrix(rng, unit=False)
        expected = scipy_max_flow(capacity, source, sink)
        network = network_from_matrix(capacity)
        assert Dinic(network).max_flow(source, sink) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_edmonds_karp_agrees(self, seed):
        rng = np.random.default_rng(4000 + seed)
        capacity, source, sink = random_digraph(rng, max_nodes=9)
        expected = scipy_max_flow(capacity, source, sink)
        network = network_from_matrix(capacity)
        assert edmonds_karp(network, source, sink) == expected


def lexicographic_oracle(cost, mask):
    """Max-cardinality-then-min-cost via scipy's Jonker-Volgenant solver."""
    if not mask.any():
        return 0, 0.0
    finite = cost[mask]
    big = (float(finite.max(initial=0.0)) + 1.0) * (min(cost.shape) + 1)
    padded = np.where(mask, cost, big)
    rows, columns = linear_sum_assignment(padded)
    keep = mask[rows, columns]
    return int(keep.sum()), float(cost[rows[keep], columns[keep]].sum())


def random_costs(rng, max_side=12):
    num_left = int(rng.integers(1, max_side + 1))
    num_right = int(rng.integers(1, max_side + 1))
    density = float(rng.uniform(0.1, 1.0))
    mask = rng.random((num_left, num_right)) < density
    if rng.random() < 0.5:
        # Integer costs: exercises ties between distinct optima.
        cost = rng.integers(0, 8, size=(num_left, num_right)).astype(float)
    else:
        cost = rng.random((num_left, num_right)) * 9
    return cost, mask


def mcmf_on_figure4(cost, mask):
    """Flow value and total cost of the general solver on the Figure-4 graph."""
    num_left, num_right = cost.shape
    source, sink = 0, num_left + num_right + 1
    network = FlowNetwork(num_left + num_right + 2)
    network.add_edges(
        np.zeros(num_left, dtype=np.int64),
        1 + np.arange(num_left),
        np.ones(num_left, dtype=np.int64),
    )
    network.add_edges(
        1 + num_left + np.arange(num_right),
        np.full(num_right, sink, dtype=np.int64),
        np.ones(num_right, dtype=np.int64),
    )
    rows, columns = np.nonzero(mask)
    if rows.size:
        network.add_edges(
            1 + rows,
            1 + num_left + columns,
            np.ones(len(rows), dtype=np.int64),
            cost[rows, columns],
        )
    result = MinCostMaxFlow(network).solve(source, sink)
    return result.max_flow, result.total_cost


class TestMinCostOracle:
    @pytest.mark.parametrize("seed", range(50))
    def test_general_solver_vs_linear_sum_assignment(self, seed):
        rng = np.random.default_rng(5000 + seed)
        cost, mask = random_costs(rng)
        expected_flow, expected_cost = lexicographic_oracle(cost, mask)
        flow, total = mcmf_on_figure4(cost, mask)
        assert flow == expected_flow
        assert total == pytest.approx(expected_cost, abs=1e-8)

    @pytest.mark.parametrize("seed", range(50))
    def test_production_vs_linear_sum_assignment(self, seed):
        rng = np.random.default_rng(6000 + seed)
        cost, mask = random_costs(rng)
        expected_flow, expected_cost = lexicographic_oracle(cost, mask)
        pairs = solve_lexicographic(cost, mask)
        assert len(pairs) == expected_flow
        total = sum(cost[row, column] for row, column in pairs)
        assert total == pytest.approx(expected_cost, abs=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_engines_agree_with_each_other(self, seed):
        """Belt and braces: production solver and MCMF, same instance."""
        rng = np.random.default_rng(7000 + seed)
        cost, mask = random_costs(rng, max_side=18)
        flow, total = mcmf_on_figure4(cost, mask)
        pairs = solve_lexicographic(cost, mask)
        assert flow == len(pairs)
        production = sum(cost[row, column] for row, column in pairs)
        assert total == pytest.approx(production, abs=1e-8)
