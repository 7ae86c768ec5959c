"""Tests for the lexicographic matching solvers.

The critical property: the production solver (per-component scipy LSAP)
and the Figure-4 MCMF reference both return (1) a maximum-cardinality
matching that (2) has minimum total cost among such matchings.  They are
cross-validated on random instances, across cost scales and near-ties, and
against brute force on small ones.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import solve_lexicographic, solve_lexicographic_mcmf

SOLVERS = [solve_lexicographic, solve_lexicographic_mcmf]


def brute_force(cost, feasible):
    """Exhaustive lexicographic optimum for tiny instances."""
    n_workers, n_tasks = cost.shape
    best_size, best_cost = -1, float("inf")
    workers = range(n_workers)
    tasks = list(range(n_tasks))
    for k in range(min(n_workers, n_tasks), -1, -1):
        found_any = False
        for worker_subset in itertools.combinations(workers, k):
            for task_perm in itertools.permutations(tasks, k):
                if all(feasible[w, t] for w, t in zip(worker_subset, task_perm)):
                    found_any = True
                    total = sum(cost[w, t] for w, t in zip(worker_subset, task_perm))
                    if total < best_cost:
                        best_cost = total
        if found_any:
            best_size = k
            break
    return best_size, (0.0 if best_size <= 0 else best_cost)


def check_solution(pairs, cost, feasible, expected_size, expected_cost):
    assert len(pairs) == expected_size
    assert len({w for w, _ in pairs}) == len(pairs)
    assert len({t for _, t in pairs}) == len(pairs)
    for w, t in pairs:
        assert feasible[w, t]
    total = sum(cost[w, t] for w, t in pairs)
    assert total == pytest.approx(expected_cost, abs=1e-9)


class TestSolversExact:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_empty(self, solver):
        assert solver(np.zeros((0, 0)), np.zeros((0, 0), dtype=bool)) == []

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_no_feasible_pairs(self, solver):
        cost = np.ones((2, 2))
        assert solver(cost, np.zeros((2, 2), dtype=bool)) == []

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_negative_cost_rejected(self, solver):
        cost = np.array([[-1.0]])
        with pytest.raises(ValueError):
            solver(cost, np.array([[True]]))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_shape_mismatch_rejected(self, solver):
        with pytest.raises(ValueError):
            solver(np.ones((2, 2)), np.ones((2, 3), dtype=bool))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_cardinality_beats_cost(self, solver):
        """A huge-cost pair must still be taken if it raises cardinality."""
        cost = np.array([
            [0.0, 1000.0],
            [np.nan, np.nan],  # infeasible row values are never read
        ])
        feasible = np.array([[True, True], [True, False]])
        cost = np.nan_to_num(cost, nan=0.0)
        pairs = solver(cost, feasible)
        # Max cardinality is 2: worker1->task0 forces worker0->task1 (cost 1000).
        assert sorted(pairs) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_min_cost_among_max_matchings(self, solver):
        cost = np.array([
            [1.0, 9.0],
            [2.0, 3.0],
        ])
        feasible = np.ones((2, 2), dtype=bool)
        pairs = solver(cost, feasible)
        # Optimal: (0,0)+(1,1) = 4 over (0,1)+(1,0) = 11.
        assert sorted(pairs) == [(0, 0), (1, 1)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_both_match_brute_force(self, n_workers, n_tasks, data):
        cost = np.array([
            [data.draw(st.floats(0, 10)) for _ in range(n_tasks)]
            for _ in range(n_workers)
        ])
        feasible = np.array([
            [data.draw(st.booleans()) for _ in range(n_tasks)]
            for _ in range(n_workers)
        ])
        expected_size, expected_cost = brute_force(cost, feasible)
        expected_size = max(expected_size, 0)
        for solver in SOLVERS:
            pairs = solver(cost, feasible)
            check_solution(pairs, cost, feasible, expected_size, expected_cost)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 10_000))
    def test_engines_agree_on_random_instances(self, n_workers, n_tasks, seed):
        rng = np.random.default_rng(seed)
        cost = rng.random((n_workers, n_tasks))
        feasible = rng.random((n_workers, n_tasks)) < 0.6
        pairs = solve_lexicographic(cost, feasible)
        pairs_mcmf = solve_lexicographic_mcmf(cost, feasible)
        assert len(pairs) == len(pairs_mcmf)
        total = sum(cost[w, t] for w, t in pairs)
        total_mcmf = sum(cost[w, t] for w, t in pairs_mcmf)
        assert total == pytest.approx(total_mcmf, abs=1e-6)


def objective(pairs, cost):
    return len(pairs), float(sum(cost[w, t] for w, t in pairs))


def assert_matches_oracle(cost, feasible):
    """Production and the MCMF reference agree on the lexicographic optimum."""
    pairs = solve_lexicographic(cost, feasible)
    size, total = objective(pairs, cost)
    oracle_size, oracle_total = objective(
        solve_lexicographic_mcmf(cost, feasible), cost
    )
    assert size == oracle_size
    assert total == pytest.approx(oracle_total, rel=1e-9, abs=0.0)
    assert pairs == sorted(pairs)
    return pairs


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(-9, 9),
        st.floats(0.1, 1.0), st.integers(0, 2**32 - 1),
    )
    def test_cost_scales(self, n_workers, n_tasks, exponent, density, seed):
        """Cost magnitudes 1e-9 ... 1e9 leave the penalty pad exact."""
        rng = np.random.default_rng(seed)
        cost = rng.random((n_workers, n_tasks)) * 10.0 ** exponent
        feasible = rng.random((n_workers, n_tasks)) < density
        assert_matches_oracle(cost, feasible)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(-9, 9),
        st.floats(0.1, 1.0), st.integers(0, 2**32 - 1),
    )
    def test_near_ties(self, n_workers, n_tasks, exponent, density, seed):
        """Costs one relative ulp-scale step apart, or exactly equal."""
        rng = np.random.default_rng(seed)
        base = 10.0 ** exponent
        steps = rng.integers(0, 3, size=(n_workers, n_tasks))
        cost = base * (1.0 + steps * 1e-12)
        feasible = rng.random((n_workers, n_tasks)) < density
        assert_matches_oracle(cost, feasible)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            min_size=1, max_size=5,
        ),
        st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_block_diagonal_is_union_of_blocks(self, shapes, equal_costs, seed):
        """Disconnected blocks solve independently, pair for pair."""
        rng = np.random.default_rng(seed)
        n_workers = sum(rows for rows, _ in shapes)
        n_tasks = sum(columns for _, columns in shapes)
        cost = np.ones((n_workers, n_tasks))
        feasible = np.zeros((n_workers, n_tasks), dtype=bool)
        expected = []
        row_offset = column_offset = 0
        for rows, columns in shapes:
            block_cost = (
                np.ones((rows, columns)) if equal_costs
                else rng.random((rows, columns))
            )
            block_feasible = rng.random((rows, columns)) < 0.6
            window = (
                slice(row_offset, row_offset + rows),
                slice(column_offset, column_offset + columns),
            )
            cost[window] = block_cost
            feasible[window] = block_feasible
            expected.extend(
                (row_offset + w, column_offset + t)
                for w, t in solve_lexicographic(block_cost, block_feasible)
            )
            row_offset += rows
            column_offset += columns
        pairs = assert_matches_oracle(cost, feasible)
        assert pairs == sorted(expected)


class TestNonFiniteCosts:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_rejected_on_feasible_pair(self, solver, value):
        cost = np.random.default_rng(1).random((4, 5))
        cost[0, 0] = value
        with pytest.raises(ValueError, match=r"finite.*cost\[0, 0\]"):
            solver(cost, np.ones((4, 5), dtype=bool))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_ignored_on_infeasible_pair(self, value):
        cost = np.array([[value, 1.0], [2.0, 3.0]])
        feasible = np.array([[False, True], [True, True]])
        assert solve_lexicographic(cost, feasible) == [(0, 1), (1, 0)]
