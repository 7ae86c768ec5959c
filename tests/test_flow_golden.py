"""Golden regression fixtures for the flow-substrate rewrite.

``tests/golden/flow_golden.json`` freezes the assignment outputs of the
reference solvers — Dinic max flow and ``solve_lexicographic_mcmf`` on the
Figure-4 network — on three seeded end-to-end instances (synthetic
dataset -> day instance -> feasibility -> solver), captured with the
*pre-rewrite* object-graph solvers.  The array-native core must reproduce them bit-identically.

Determinism notes: the Dinic rewrite keeps the exact current-arc discipline
of the old recursive solver over the same per-node edge order (CSR is
stable-sorted by insertion), so the max-flow matching is unchanged pair for
pair.  The MCMF instances use continuous distance costs, but co-located
workers (same venue) create exact cost ties, so the optimal *pair set* is
not unique; the general solver's tie-breaking changed with the rewrite
(SPFA relaxation order -> frontier-scan order).  The regression contract is
therefore: objective values (cardinality and total cost) bit-stable for
every engine, and pair sets bit-stable per reference engine (each is
deterministic).  The production solvers (Hopcroft-Karp for MTA,
per-component LSAP for the lexicographic problem) must reach the frozen
cardinality, and the lexicographic one the frozen total cost.
"""

import json
from pathlib import Path

import pytest

from repro import InstanceBuilder, SyntheticConfig, generate_dataset
from repro.assignment import (
    MTAAssigner,
    PreparedInstance,
    solve_lexicographic,
    solve_lexicographic_mcmf,
)
from repro.assignment.solvers import build_figure4_network
from repro.flow import Dinic

GOLDEN_PATH = Path(__file__).parent / "golden" / "flow_golden.json"

CONFIGS = {
    "golden-a": dict(
        name="golden-a", num_users=40, num_venues=30, num_days=10, area_km=25.0,
        num_clusters=3, ba_attachment=2, mean_checkins_per_user_day=2.0,
        active_probability=0.7, seed=5,
    ),
    "golden-b": dict(
        name="golden-b", num_users=55, num_venues=35, num_days=10, area_km=35.0,
        num_clusters=4, ba_attachment=2, mean_checkins_per_user_day=1.5,
        active_probability=0.6, seed=17,
    ),
    "golden-c": dict(
        name="golden-c", num_users=70, num_venues=45, num_days=10, area_km=30.0,
        num_clusters=5, ba_attachment=3, mean_checkins_per_user_day=2.5,
        active_probability=0.8, seed=29,
    ),
}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _prepare(config_name):
    dataset = generate_dataset(SyntheticConfig(**CONFIGS[config_name]))
    builder = InstanceBuilder(dataset, valid_hours=5.0, reachable_km=20.0)
    instance = builder.build_day(day=5)
    return PreparedInstance(instance)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
class TestGoldenFixtures:
    def test_instance_shape_unchanged(self, config_name, golden):
        """The end-to-end instance itself must rebuild identically."""
        expected = golden[config_name]
        feasible = _prepare(config_name).feasible
        assert len(feasible.workers) == expected["num_workers"]
        assert len(feasible.tasks) == expected["num_tasks"]
        assert feasible.num_feasible == expected["num_feasible"]

    def test_mta_flow_pairs_bit_identical(self, config_name, golden):
        expected = [tuple(pair) for pair in golden[config_name]["mta_pairs"]]
        feasible = _prepare(config_name).feasible
        network, rows, columns, pair_edges = build_figure4_network(feasible.mask)
        Dinic(network).max_flow(0, network.num_nodes - 1)
        used = network.flows(pair_edges) > 0
        pairs = sorted(
            (feasible.workers[row].worker_id, feasible.tasks[column].task_id)
            for row, column in zip(rows[used], columns[used])
        )
        assert pairs == expected

    def test_production_mta_matches_golden_cardinality(self, config_name, golden):
        expected = golden[config_name]["mta_pairs"]
        assignment = MTAAssigner().assign(_prepare(config_name))
        assert len(assignment) == len(expected)

    def test_mcmf_objective_bit_stable(self, config_name, golden):
        expected = [tuple(pair) for pair in golden[config_name]["mcmf_pairs"]]
        expected_cost = float(golden[config_name]["mcmf_total_cost"])
        feasible = _prepare(config_name).feasible
        cost = feasible.distance_km
        pairs = sorted(solve_lexicographic_mcmf(cost, feasible.mask))
        assert len(pairs) == len(expected)
        total = sum(cost[row, column] for row, column in pairs)
        assert total == pytest.approx(expected_cost, abs=1e-12)
        # The engine itself is deterministic: re-solving returns the same
        # pairs, and every pair is feasible and one-to-one.
        assert pairs == sorted(solve_lexicographic_mcmf(cost, feasible.mask))
        assert all(feasible.mask[row, column] for row, column in pairs)
        assert len({row for row, _ in pairs}) == len(pairs)
        assert len({column for _, column in pairs}) == len(pairs)

    def test_production_matches_golden_optimum(self, config_name, golden):
        """The production solver reaches the frozen cardinality and cost."""
        expected = golden[config_name]["mcmf_pairs"]
        expected_cost = float(golden[config_name]["mcmf_total_cost"])
        feasible = _prepare(config_name).feasible
        cost = feasible.distance_km
        pairs = solve_lexicographic(cost, feasible.mask)
        assert len(pairs) == len(expected)
        total = sum(cost[row, column] for row, column in pairs)
        assert total == pytest.approx(expected_cost, rel=1e-12)
