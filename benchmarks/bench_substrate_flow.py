"""Flow bench: production assignment solvers vs the paper's flow references.

Each problem has one production solver and one reference, the paper's own
algorithm on its Figure-4 network:

* lexicographic (IA/EIA/DIA): per-component scipy LSAP
  (:func:`repro.assignment.solve_lexicographic`) vs successive shortest
  paths (:func:`repro.assignment.solve_lexicographic_mcmf`);
* max cardinality (MTA): scipy Hopcroft-Karp, the call
  :class:`~repro.assignment.MTAAssigner` makes, vs :class:`~repro.flow.Dinic`.

The table asserts equal cardinality and objective on every row before it
reports any time.  A second column times Dinic's vectorized blocking flow
against the per-edge walk it replaced.

Instance sizes scale with ``REPRO_BENCH_SCALE`` like the rest of the bench
suite (default 0.15 — the paper-scale grid); the blocking-flow speedup
assertion only applies at the default scale or above, since tiny instances
under-use the vectorized kernels.
"""

import os
import time

import numpy as np
import pytest
from figutil import bench_artifact
from scipy import sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.assignment import solve_lexicographic, solve_lexicographic_mcmf
from repro.assignment.solvers import build_figure4_network
from repro.flow.maxflow import Dinic

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))


def scaled(base: int) -> int:
    return max(8, int(round(base * BENCH_SCALE / 0.15)))


def make_instance(num_workers, num_tasks, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    cost = rng.random((num_workers, num_tasks))
    feasible = rng.random((num_workers, num_tasks)) < density
    return cost, feasible


SIZES = [(scaled(40), scaled(50)), (scaled(80), scaled(100)), (scaled(400), scaled(500))]
LARGEST = SIZES[-1]


def hopcroft_karp(feasible):
    """Matched-pair count of the production MTA solve."""
    graph = sparse.csr_matrix(feasible.astype(np.int8))
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def dinic(feasible):
    """Max flow of the reference MTA solve on the Figure-4 network."""
    network, _, _, _ = build_figure4_network(feasible)
    return Dinic(network).max_flow(0, network.num_nodes - 1)


def timed(solve, repeats):
    """Best-of-``repeats`` wall time and the last result."""
    result, seconds = None, float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = solve()
        seconds = min(seconds, time.perf_counter() - started)
    return result, seconds


def test_production_vs_reference_table(benchmark):
    """Production and reference agree on every size; then the times."""
    rows = []
    for size in SIZES:
        cost, feasible = make_instance(*size)
        lsap, lsap_s = timed(lambda: solve_lexicographic(cost, feasible), 3)
        mcmf, mcmf_s = timed(lambda: solve_lexicographic_mcmf(cost, feasible), 1)
        assert lsap, size
        assert len(lsap) == len(mcmf), size
        lsap_cost = float(sum(cost[w, t] for w, t in lsap))
        mcmf_cost = float(sum(cost[w, t] for w, t in mcmf))
        assert lsap_cost == pytest.approx(mcmf_cost, rel=1e-9), size
        matched, hk_s = timed(lambda: hopcroft_karp(feasible), 3)
        flow, dinic_s = timed(lambda: dinic(feasible), 1)
        assert matched == flow, size
        rows.append({
            "size": list(size), "cardinality": len(lsap), "cost": lsap_cost,
            "lsap_s": lsap_s, "mcmf_s": mcmf_s,
            "max_cardinality": matched, "hopcroft_karp_s": hk_s,
            "dinic_s": dinic_s,
        })
    cost, feasible = make_instance(*LARGEST)
    benchmark.pedantic(
        lambda: solve_lexicographic(cost, feasible), rounds=1, iterations=1
    )
    print(f"\n{'size':>10} {'pairs':>6} {'LSAP':>9} {'MCMF':>9} "
          f"{'HK':>9} {'Dinic':>9}")
    for row in rows:
        print(f"{'x'.join(map(str, row['size'])):>10} {row['cardinality']:>6} "
              f"{row['lsap_s'] * 1e3:>7.2f}ms {row['mcmf_s'] * 1e3:>7.1f}ms "
              f"{row['hopcroft_karp_s'] * 1e3:>7.2f}ms "
              f"{row['dinic_s'] * 1e3:>7.1f}ms")
    bench_artifact(
        "flow_production_vs_reference",
        {"bench_scale": BENCH_SCALE, "rows": rows},
    )


class _WalkDinic(Dinic):
    """The pre-vectorization Dinic: per-edge Python-walk blocking flow.

    Verbatim behaviour of the previous ``_blocking_flow`` — full
    ``tolist()`` of the CSR/capacity arrays every phase, no level-graph
    compaction, no unit-capacity fast path — kept as the honest baseline
    for the vectorized column.  The level BFS is shared (it was already
    array-native), so the comparison isolates the blocking-flow rewrite.
    """

    def _blocking_flow(self, source: int, sink: int) -> int:
        network = self.network
        indptr_arr, csr_edges_arr = network.csr()
        indptr = indptr_arr.tolist()
        csr_edges = csr_edges_arr.tolist()
        heads = network.edge_to.tolist()
        cap = network.edge_cap.tolist()
        level = self._level.tolist()
        it = indptr[: network.num_nodes]
        total = 0
        path: list[int] = []
        node = source
        while True:
            if node == sink:
                bottleneck = min(cap[edge_id] for edge_id in path)
                for edge_id in path:
                    cap[edge_id] -= bottleneck
                    cap[edge_id ^ 1] += bottleneck
                total += bottleneck
                path = []
                node = source
                continue
            advanced = False
            next_level = level[node] + 1
            end = indptr[node + 1]
            while it[node] < end:
                edge_id = csr_edges[it[node]]
                target = heads[edge_id]
                if cap[edge_id] > 0 and level[target] == next_level:
                    path.append(edge_id)
                    node = target
                    advanced = True
                    break
                it[node] += 1
            if not advanced:
                if node == source:
                    break
                edge_id = path.pop()
                node = heads[edge_id ^ 1]
                it[node] += 1
        network.edge_cap[:] = cap
        return total


def test_blocking_flow_vectorized_vs_walk(benchmark):
    """The Dinic column: compacted/batched blocking flow vs the edge walk.

    Both sides run the identical level BFS over identical Figure-4
    networks; only the blocking-flow phase differs.  The >= 2x gate arms
    at paper scale, where the phases are large enough for the compaction
    to amortize.
    """
    _, feasible = make_instance(*LARGEST, density=0.3, seed=42)

    def best_of(engine, repeats=3):
        """Best-of-N timings of ``max_flow`` alone: the network build is
        identical on both sides and would only dilute the ratio, and single
        runs of tens of milliseconds are noisy under the full session."""
        value, seconds = None, float("inf")
        for _ in range(repeats):
            network, _, _, _ = build_figure4_network(feasible)
            solver = engine(network)
            started = time.perf_counter()
            value = solver.max_flow(0, network.num_nodes - 1)
            seconds = min(seconds, time.perf_counter() - started)
        return value, seconds

    walk_value, walk_seconds = best_of(_WalkDinic)
    new_value, new_seconds = best_of(Dinic)

    def solve_new():
        fresh, _, _, _ = build_figure4_network(feasible)
        return Dinic(fresh).max_flow(0, fresh.num_nodes - 1)

    benchmark.pedantic(solve_new, rounds=1, iterations=1)

    assert new_value == walk_value
    speedup = walk_seconds / new_seconds
    print(
        f"\nlargest instance {LARGEST}: walk dinic={walk_seconds:.3f}s "
        f"vectorized dinic={new_seconds:.3f}s speedup={speedup:.1f}x "
        f"(flow={new_value})"
    )
    bench_artifact(
        "flow_blocking_vectorized",
        {"size": list(LARGEST), "bench_scale": BENCH_SCALE,
         "walk_seconds": walk_seconds, "vectorized_seconds": new_seconds,
         "speedup": speedup, "flow": int(new_value)},
    )
    if BENCH_SCALE >= 0.15:
        assert speedup >= 2.0, (
            f"vectorized blocking flow regressed: {speedup:.1f}x < 2x"
        )
