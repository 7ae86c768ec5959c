"""Flow bench: production assignment solvers vs the paper's flow references.

Each problem has one production solver and one reference, the paper's own
algorithm on its Figure-4 network:

* lexicographic (IA/EIA/DIA): per-component scipy LSAP
  (:func:`repro.assignment.solve_lexicographic`) vs successive shortest
  paths (:func:`repro.assignment.solve_lexicographic_mcmf`);
* max cardinality (MTA): scipy Hopcroft-Karp, the call
  :class:`~repro.assignment.MTAAssigner` makes, vs :class:`~repro.flow.Dinic`.

The table asserts equal cardinality and objective on every row before it
reports any time.  The times are reported, never gated: the references
carry no speed-only machinery, so their columns show what plain Dinic and
plain Dijkstra MCMF cost next to production.

Instance sizes scale with ``REPRO_BENCH_SCALE`` like the rest of the bench
suite (default 0.15 — the paper-scale grid).
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
