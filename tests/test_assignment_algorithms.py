"""Tests for the six assignment algorithms (MTA, IA, EIA, DIA, MI, NN)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from repro.assignment import (
    DIAAssigner,
    EIAAssigner,
    IAAssigner,
    MIAssigner,
    MTAAssigner,
    NearestNeighborAssigner,
    PreparedInstance,
    solve_lexicographic_mcmf,
)
from repro.assignment.candidates import PairGraph
from repro.assignment.mta import pair_matrix
from repro.assignment.solvers import build_figure4_network
from repro.flow import Dinic
from repro.framework.metrics import evaluate_assignment

ALL_ASSIGNERS = [
    MTAAssigner(),
    IAAssigner(),
    EIAAssigner(),
    DIAAssigner(),
    MIAssigner(),
    NearestNeighborAssigner(),
]


class TestCommonProperties:
    @pytest.mark.parametrize("assigner", ALL_ASSIGNERS, ids=lambda a: a.name)
    def test_assignment_valid(self, assigner, prepared):
        assignment = assigner.assign(prepared)
        workers = [p.worker.worker_id for p in assignment]
        tasks = [p.task.task_id for p in assignment]
        assert len(workers) == len(set(workers))
        assert len(tasks) == len(set(tasks))
        # Every pair must satisfy both spatio-temporal constraints.
        for pair in assignment:
            distance = pair.worker.location.distance_to(pair.task.location)
            assert distance <= pair.worker.reachable_km + 1e-9
            arrival = prepared.instance.current_time + distance / pair.worker.speed_kmh
            assert arrival <= pair.task.expiry_time + 1e-9

    @pytest.mark.parametrize("assigner", ALL_ASSIGNERS, ids=lambda a: a.name)
    def test_empty_instance(self, assigner, tiny_instance, full_influence):
        empty = tiny_instance.with_tasks([])
        prepared = PreparedInstance(empty, full_influence)
        assert len(assigner.assign(prepared)) == 0

    @pytest.mark.parametrize("assigner", ALL_ASSIGNERS, ids=lambda a: a.name)
    def test_deterministic(self, assigner, tiny_instance, full_influence):
        a = assigner.assign(PreparedInstance(tiny_instance, full_influence))
        b = assigner.assign(PreparedInstance(tiny_instance, full_influence))
        pairs_a = sorted((p.worker.worker_id, p.task.task_id) for p in a)
        pairs_b = sorted((p.worker.worker_id, p.task.task_id) for p in b)
        assert pairs_a == pairs_b


class TestCardinalityRelations:
    def test_mcmf_algorithms_match_mta_cardinality(self, prepared):
        """IA/EIA/DIA keep max-flow as the primary objective, so their
        cardinality equals MTA's maximum."""
        mta = len(MTAAssigner().assign(prepared))
        for assigner in (IAAssigner(), EIAAssigner(), DIAAssigner()):
            assert len(assigner.assign(prepared)) == mta

    def test_mi_and_nn_cannot_beat_maximum(self, prepared):
        mta = len(MTAAssigner().assign(prepared))
        assert len(MIAssigner().assign(prepared)) <= mta
        assert len(NearestNeighborAssigner().assign(prepared)) <= mta

    def test_mta_engines_agree(self, prepared):
        """Production Hopcroft-Karp reaches the Dinic reference's max flow."""
        network, _, _, _ = build_figure4_network(prepared.feasible.mask)
        max_flow = Dinic(network).max_flow(0, network.num_nodes - 1)
        assert len(MTAAssigner().assign(prepared)) == max_flow


class TestObjectiveRelations:
    def test_ia_beats_mta_on_influence(self, prepared, full_influence):
        ia = evaluate_assignment("IA", IAAssigner().assign(prepared), prepared)
        mta = evaluate_assignment("MTA", MTAAssigner().assign(prepared), prepared)
        assert ia.average_influence >= mta.average_influence - 1e-12

    def test_mi_has_best_average_influence(self, prepared):
        mi = evaluate_assignment("MI", MIAssigner().assign(prepared), prepared)
        for assigner in (MTAAssigner(), IAAssigner(), EIAAssigner(), DIAAssigner()):
            other = evaluate_assignment(
                assigner.name, assigner.assign(prepared), prepared
            )
            # MI ignores coverage and keeps only locally best pairs, so its
            # AI dominates the coverage-constrained algorithms (greedy is
            # not provably optimal, hence the small empirical tolerance).
            assert mi.average_influence >= other.average_influence * 0.95

    def test_mi_assigns_no_more_than_mcmf(self, prepared):
        mi = len(MIAssigner().assign(prepared))
        ia = len(IAAssigner().assign(prepared))
        assert mi <= ia

    def test_mi_pairs_are_each_workers_best_task(self, prepared):
        import numpy as np

        assignment = MIAssigner().assign(prepared)
        feasible = prepared.feasible
        influence = np.where(feasible.mask, prepared.influence_matrix, -np.inf)
        workers = {w.worker_id: i for i, w in enumerate(feasible.workers)}
        tasks = {t.task_id: j for j, t in enumerate(feasible.tasks)}
        for pair in assignment:
            row = workers[pair.worker.worker_id]
            column = tasks[pair.task.task_id]
            assert influence[row, column] == pytest.approx(float(influence[row].max()))

    def test_dia_minimizes_travel_among_influence_aware(self, prepared):
        dia = evaluate_assignment("DIA", DIAAssigner().assign(prepared), prepared)
        ia = evaluate_assignment("IA", IAAssigner().assign(prepared), prepared)
        eia = evaluate_assignment("EIA", EIAAssigner().assign(prepared), prepared)
        assert dia.average_travel_km <= ia.average_travel_km + 1e-9
        assert dia.average_travel_km <= eia.average_travel_km + 1e-9

    def test_ia_minimizes_its_cost_objective(self, prepared):
        """IA's solution must have minimal total 1/(if+1) among the max
        matchings; EIA's solution over the same cost can only be >=."""
        ia = IAAssigner()
        costs = ia.edge_costs(prepared)
        workers = {w.worker_id: i for i, w in enumerate(prepared.feasible.workers)}
        tasks = {t.task_id: j for j, t in enumerate(prepared.feasible.tasks)}

        def total_cost(assignment):
            return sum(
                costs[workers[p.worker.worker_id], tasks[p.task.task_id]]
                for p in assignment
            )

        ia_cost = total_cost(ia.assign(prepared))
        eia_cost = total_cost(EIAAssigner().assign(prepared))
        assert ia_cost <= eia_cost + 1e-9


class TestEngineConsistency:
    @pytest.mark.parametrize("assigner_cls", [IAAssigner, EIAAssigner, DIAAssigner])
    def test_dense_and_mcmf_equivalent(self, assigner_cls, tiny_instance, full_influence):
        """The production LSAP reduction vs the Figure-4 MCMF reference."""
        small = tiny_instance.with_tasks(tiny_instance.tasks[:8]).with_workers(
            tiny_instance.workers[:8]
        )
        prepared = PreparedInstance(small, full_influence)
        dense = assigner_cls().assign(prepared)
        costs = assigner_cls().edge_costs(prepared)
        mcmf = solve_lexicographic_mcmf(costs, prepared.feasible.mask)
        assert len(dense) == len(mcmf)
        workers = {w.worker_id: i for i, w in enumerate(prepared.feasible.workers)}
        tasks = {t.task_id: j for j, t in enumerate(prepared.feasible.tasks)}
        cost_dense = sum(
            costs[workers[p.worker.worker_id], tasks[p.task.task_id]] for p in dense
        )
        cost_mcmf = sum(costs[row, column] for row, column in mcmf)
        assert cost_dense == pytest.approx(cost_mcmf, abs=1e-6)


def feasibility_csr(mask):
    """MTA's matrix of the pair graph that compute_feasible reads off a mask."""
    graph = PairGraph.from_mask(mask, np.zeros(mask.shape))
    return pair_matrix(graph.indptr, graph.columns, mask.shape)


class TestFeasibilityCSR:
    """MTA's graph, read straight off the mask, is scipy's CSR of it."""

    @staticmethod
    def assert_same_csr(mask):
        got, want = feasibility_csr(mask), sparse.csr_matrix(mask)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.nnz == got.indptr[-1] == np.count_nonzero(mask)
        assert got.has_sorted_indices
        np.testing.assert_array_equal(got.toarray() != 0, mask)

    @pytest.mark.parametrize(
        "mask",
        [
            np.zeros((4, 5), dtype=bool),
            np.zeros((0, 3), dtype=bool),
            np.zeros((3, 0), dtype=bool),
            np.ones((3, 4), dtype=bool),
            np.array([[0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=bool),
        ],
        ids=["all-false", "no-rows", "no-columns", "all-true", "empty-rows"],
    )
    def test_edge_masks(self, mask):
        self.assert_same_csr(mask)

    @settings(max_examples=150)
    @given(arrays(np.bool_, st.tuples(st.integers(0, 9), st.integers(0, 9))))
    def test_random_masks(self, mask):
        self.assert_same_csr(mask)

    def test_all_false_mask_assigns_nothing(self, prepared):
        blocked = PreparedInstance(prepared.instance, prepared.influence)
        feasible = prepared.feasible
        blocked.__dict__["feasible"] = type(feasible).from_dense(
            feasible.workers, feasible.tasks, feasible.distance_km,
            np.zeros_like(feasible.mask),
        )
        assert len(MTAAssigner().assign(blocked)) == 0


class TestCostMatrices:
    def test_ia_cost_formula(self, prepared):
        costs = IAAssigner().edge_costs(prepared)
        expected = 1.0 / (prepared.influence_matrix + 1.0)
        np.testing.assert_allclose(costs, expected)
        assert ((costs > 0) & (costs <= 1.0)).all()

    def test_eia_cost_formula(self, prepared):
        costs = EIAAssigner().edge_costs(prepared)
        entropy = prepared.entropy_vector()[None, :]
        expected = (entropy + 1.0) / (prepared.influence_matrix + 1.0)
        np.testing.assert_allclose(costs, expected)

    def test_dia_cost_formula(self, prepared):
        costs = DIAAssigner().edge_costs(prepared)
        feasible = prepared.feasible
        radius = np.array([w.reachable_km for w in feasible.workers])[:, None]
        discount = 1.0 - np.minimum(1.0, feasible.distance_km / radius)
        expected = 1.0 / (discount * prepared.influence_matrix + 1.0)
        np.testing.assert_allclose(costs, expected)

    def test_dia_discount_zero_at_radius_edge(self, prepared):
        """A task exactly at the reachable radius gets F = 0 -> cost 1."""
        costs = DIAAssigner().edge_costs(prepared)
        feasible = prepared.feasible
        radius = np.array([w.reachable_km for w in feasible.workers])[:, None]
        at_edge = np.isclose(feasible.distance_km, radius)
        if at_edge.any():
            np.testing.assert_allclose(costs[at_edge], 1.0)


class TestNearestNeighbor:
    def test_assigns_nearest_free_worker(self, square_workers, square_tasks):
        from repro.assignment import compute_feasible
        from repro.data.instance import SCInstance

        instance = SCInstance(
            name="manual", current_time=0.0, tasks=square_tasks,
            workers=square_workers, histories={}, social_edges=[],
            all_worker_ids=tuple(w.worker_id for w in square_workers),
        )
        prepared = PreparedInstance(instance, influence=None)
        assignment = NearestNeighborAssigner().assign(prepared)
        by_task = {p.task.task_id: p.worker.worker_id for p in assignment}
        # Task 0 at (1,1): nearest is worker 0 at (0,0).
        assert by_task[0] == 0
        # Task 1 at (9,1): nearest is worker 1 at (10,0).
        assert by_task[1] == 1

    @staticmethod
    def dense_nearest_neighbor(feasible):
        """The dense-matrix greedy: per task in publication order, the
        first free worker of least distance down its mask column."""
        order = np.argsort([t.publication_time for t in feasible.tasks], kind="stable")
        used, pairs = set(), []
        for column in order.tolist():
            candidates = [
                int(c) for c in np.nonzero(feasible.mask[:, column])[0] if int(c) not in used
            ]
            if candidates:
                best = candidates[int(np.argmin(feasible.distance_km[candidates, column]))]
                used.add(best)
                pairs.append((best, column))
        return pairs

    @settings(max_examples=60, deadline=None)
    @given(
        worker_points=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=25),
        task_points=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3)), min_size=1, max_size=25
        ),
    )
    def test_pair_graph_greedy_matches_dense_greedy(self, worker_points, task_points):
        """On integer grids, with repeated locations, equal distances and
        equal publication times: the same pairs as the dense greedy."""
        from repro.assignment import RoundState, compute_feasible
        from repro.data.instance import SCInstance
        from repro.entities import Task, Worker
        from repro.geo import Point

        workers = [
            Worker(worker_id=i, location=Point(x, y), reachable_km=3.0)
            for i, (x, y) in enumerate(worker_points)
        ]
        tasks = [
            Task(task_id=j, location=Point(x, y), publication_time=float(p), valid_hours=9.0)
            for j, (x, y, p) in enumerate(task_points)
        ]
        instance = SCInstance(
            name="nn", current_time=3.0, tasks=tasks, workers=workers, histories={},
            social_edges=[], all_worker_ids=tuple(range(len(workers))),
        )
        prepared = RoundState().prepare(instance)
        got = [
            (w.worker_id, t.task_id)
            for t, w in ((p.task, p.worker) for p in NearestNeighborAssigner().assign(prepared))
        ]
        assert got == self.dense_nearest_neighbor(compute_feasible(workers, tasks, 3.0))
