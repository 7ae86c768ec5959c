"""Reduced-cost machinery for min-cost max-flow.

Successive-shortest-path MCMF needs, per augmentation, a cheapest residual
path.  The classic Johnson trick maintains node potentials ``h`` so the
reduced costs

    c'(u, v) = c(u, v) + h(u) - h(v) >= 0

stay non-negative on every residual edge, which lets each phase run Dijkstra
(O((V + E) log V)) instead of Bellman-Ford (O(V * E)).  This module hosts
the pieces :class:`~repro.flow.mincost.MinCostMaxFlow` is built from:

* :func:`dijkstra_reduced` — reduced-cost Dijkstra over the CSR arrays with
  vectorized per-node relaxation;
* :func:`bellman_ford_potentials` — a queue-based Bellman-Ford (SPFA) that
  bootstraps valid potentials when original costs may be negative, with an
  explicit relaxation-count guard that raises :class:`FlowError` on a
  negative-cost cycle instead of looping forever;
* :func:`extract_path` — walk the ``in_edge`` tree, returning the edge ids
  from source to sink.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork

#: Slack used when comparing float path costs.
COST_EPS = 1e-12


def _compact_reduced(
    network: FlowNetwork, potential: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency compacted to active edges, priced at reduced cost.

    Returns ``(act_indptr, act_edges, act_heads, act_reduced)``, with tiny
    float negatives in the reduced costs clamped to zero.
    """
    indptr, csr_edges = network.csr()
    active = network.edge_cap[csr_edges] > 0
    act_edges = csr_edges[active]
    cumulative = np.concatenate(([0], np.cumsum(active, dtype=np.int64)))
    act_indptr = cumulative[indptr]
    act_heads = network.edge_to[act_edges]
    act_reduced = (
        network.edge_cost[act_edges]
        + potential[network.edge_tail[act_edges]]
        - potential[act_heads]
    )
    np.maximum(act_reduced, 0.0, out=act_reduced)
    return act_indptr, act_edges, act_heads, act_reduced


def dijkstra_reduced(
    network: FlowNetwork,
    source: int,
    potential: np.ndarray,
    sink: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shortest reduced-cost distances from ``source`` over residual edges.

    Returns ``(distance, in_edge)``; unreachable nodes keep ``inf`` /
    ``-1``.  ``potential`` must make every residual reduced cost
    non-negative (tiny float negatives are clamped to zero).

    The potentials and the residual mask are fixed for the whole run, so the
    run starts by compacting the CSR adjacency down to the active edges and
    pricing every one of them in a handful of vectorized passes; the heap
    loop then only slices pre-priced views.  When ``sink`` is given the
    search stops as soon as the sink settles — tentative labels of unsettled
    nodes are then lower-bounded by ``distance[sink]``, which is exactly the
    cap the caller must apply when folding distances back into potentials.
    """
    act_indptr, act_edges, act_heads, act_reduced = _compact_reduced(
        network, potential
    )
    distance = np.full(network.num_nodes, np.inf)
    in_edge = np.full(network.num_nodes, -1, dtype=np.int64)
    done = np.zeros(network.num_nodes, dtype=bool)
    distance[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        node_distance, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        if node == sink:
            break
        low, high = act_indptr[node], act_indptr[node + 1]
        if low == high:
            continue
        targets = act_heads[low:high]
        candidates = node_distance + act_reduced[low:high]
        edge_ids = act_edges[low:high]
        better = np.nonzero(candidates < distance[targets] - COST_EPS)[0]
        for position in better:
            target = int(targets[position])
            candidate = float(candidates[position])
            # Re-check: the batch may relax the same target twice.
            if candidate < distance[target] - COST_EPS:
                distance[target] = candidate
                in_edge[target] = int(edge_ids[position])
                heapq.heappush(heap, (candidate, target))
    return distance, in_edge


def bellman_ford_potentials(network: FlowNetwork, source: int) -> np.ndarray:
    """Valid starting potentials when original costs may be negative.

    Queue-based Bellman-Ford (SPFA) over the residual edges.  A node
    re-entering the queue more than ``num_nodes`` times proves a
    negative-cost cycle, which successive-shortest-path MCMF cannot price —
    the guard raises :class:`FlowError` instead of relaxing forever (the
    latent hazard of the pre-rewrite SPFA solver).  Nodes unreachable from
    ``source`` get potential 0; they can never join an augmenting path.
    """
    indptr, csr_edges = network.csr()
    heads = network.edge_to
    cap = network.edge_cap
    cost = network.edge_cost
    num_nodes = network.num_nodes
    distance = np.full(num_nodes, np.inf)
    distance[source] = 0.0
    in_queue = np.zeros(num_nodes, dtype=bool)
    visits = np.zeros(num_nodes, dtype=np.int64)
    queue = [source]
    in_queue[source] = True
    while queue:
        next_queue: list[int] = []
        for node in queue:
            in_queue[node] = False
        for node in queue:
            node_distance = distance[node]
            edges = csr_edges[indptr[node] : indptr[node + 1]]
            edges = edges[cap[edges] > 0]
            if edges.size == 0:
                continue
            targets = heads[edges]
            candidates = node_distance + cost[edges]
            improved = candidates < distance[targets] - COST_EPS
            for target, candidate in zip(targets[improved], candidates[improved]):
                target = int(target)
                if candidate < distance[target] - COST_EPS:
                    distance[target] = candidate
                    if not in_queue[target]:
                        visits[target] += 1
                        if visits[target] > num_nodes:
                            raise FlowError(
                                "negative-cost cycle detected while computing "
                                f"potentials (node {target} relaxed more than "
                                f"{num_nodes} times)"
                            )
                        in_queue[target] = True
                        next_queue.append(target)
        queue = next_queue
    np.nan_to_num(distance, copy=False, posinf=0.0)
    return distance


def extract_path(network: FlowNetwork, source: int, sink: int, in_edge: np.ndarray) -> np.ndarray:
    """Edge ids of the found augmenting path, sink-to-source order reversed."""
    heads = network.edge_to
    path: list[int] = []
    node = sink
    while node != source:
        edge_id = int(in_edge[node])
        path.append(edge_id)
        node = int(heads[edge_id ^ 1])
    return np.asarray(path[::-1], dtype=np.int64)
