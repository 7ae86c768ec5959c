"""Lexicographic (max cardinality, then min cost) matching solvers.

The ITA objective is lexicographic: maximize ``|A|`` first, minimize total
edge cost second.  One production solver and one reference are provided:

* :func:`solve_lexicographic` — the production path.  It splits the
  feasibility graph into connected components and embeds each component in
  a rectangular assignment problem: infeasible pairs get a penalty ``BIG``
  chosen so that one avoided penalty always outweighs the sum of all the
  component's real costs; scipy's Jonker-Volgenant solver then returns a
  matching that first maximizes the number of feasible pairs and then
  minimizes their cost.  Solving per component keeps each LSAP small and
  makes the result independent of what else shares the matrix, so a
  sharded round (shards never split a component) returns exactly the
  unsharded pairs, ties included.

* :func:`solve_lexicographic_mcmf` — the reference: builds the paper's
  Figure-4 flow graph (:func:`build_figure4_network`) and runs the
  from-scratch successive-shortest-path MCMF
  (:class:`repro.flow.MinCostMaxFlow`).  Since every augmentation increases
  flow by one and SSP minimizes cost at maximum flow, the result is exactly
  the lexicographic optimum.  Tests and benches check production against it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from repro.assignment.base import mask_nonzero
from repro.flow import FlowNetwork, MinCostMaxFlow


def _validated(
    cost: np.ndarray, feasible: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce the inputs and reject what no solver can price."""
    cost = np.asarray(cost, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    if cost.shape != feasible.shape:
        raise ValueError(f"shape mismatch: cost {cost.shape} vs mask {feasible.shape}")
    real = cost[feasible]
    if not np.isfinite(real).all():
        bad = np.argwhere(feasible & ~np.isfinite(cost))[0]
        raise ValueError(
            f"costs must be finite on feasible pairs: cost[{bad[0]}, {bad[1]}] "
            f"is {cost[bad[0], bad[1]]}"
        )
    if np.any(real < 0):
        raise ValueError("costs must be non-negative")
    return cost, feasible


def solve_lexicographic(
    cost: np.ndarray, feasible: np.ndarray
) -> list[tuple[int, int]]:
    """Solve max-cardinality-then-min-cost matching on a dense cost matrix.

    Parameters
    ----------
    cost:
        ``C x T`` non-negative costs, finite on feasible pairs (entries at
        infeasible positions are ignored).
    feasible:
        ``C x T`` boolean mask of allowed pairs.

    Returns
    -------
    list of ``(worker_row, task_column)`` pairs, feasible only, ascending.
    """
    cost, feasible = _validated(cost, feasible)
    if not feasible.any():
        return []
    n_workers, n_tasks = feasible.shape
    rows, columns = mask_nonzero(feasible)
    graph = sparse.coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, n_workers + columns)),
        shape=(n_workers + n_tasks,) * 2,
    )
    _, labels = connected_components(graph, directed=False)
    # Group both axes by component; stable sorts keep each component's
    # rows and columns in matrix order.
    worker_order = np.argsort(labels[:n_workers], kind="stable")
    task_order = np.argsort(labels[n_workers:], kind="stable")
    worker_labels = labels[:n_workers][worker_order]
    task_labels = labels[n_workers:][task_order]
    matched_rows: list[np.ndarray] = []
    matched_columns: list[np.ndarray] = []
    for component in np.unique(labels[rows]):
        lo, hi = np.searchsorted(worker_labels, [component, component + 1])
        block_rows = worker_order[lo:hi]
        lo, hi = np.searchsorted(task_labels, [component, component + 1])
        block_columns = task_order[lo:hi]
        block = np.ix_(block_rows, block_columns)
        block_feasible = feasible[block]
        padded = cost[block]
        padded[~block_feasible] = (
            (padded[block_feasible].max() + 1.0) * (min(padded.shape) + 1)
        )
        picked_rows, picked_columns = linear_sum_assignment(padded)
        keep = block_feasible[picked_rows, picked_columns]
        matched_rows.append(block_rows[picked_rows[keep]])
        matched_columns.append(block_columns[picked_columns[keep]])
    out_rows = np.concatenate(matched_rows)
    out_columns = np.concatenate(matched_columns)
    order = np.argsort(out_rows)
    return list(zip(out_rows[order].tolist(), out_columns[order].tolist()))


def build_figure4_network(
    feasible: np.ndarray, cost: np.ndarray | None = None
) -> tuple[FlowNetwork, np.ndarray, np.ndarray, np.ndarray]:
    """Build the paper's Figure-4 flow network over a feasibility mask.

    Node layout: ``0`` = source, ``1..C`` = workers, ``C+1..C+T`` = tasks,
    ``C+T+1`` = sink.  All capacities are 1; worker-task edges carry the
    given costs (zero when ``cost`` is ``None``); source/sink edges cost 0.
    Returns ``(network, rows, columns, pair_edges)`` with the feasible pairs
    in row-major order aligned with their forward edge ids — the shared
    scaffolding of the max-flow and MCMF references.
    """
    n_workers, n_tasks = feasible.shape
    sink = n_workers + n_tasks + 1
    network = FlowNetwork(num_nodes=n_workers + n_tasks + 2)
    network.add_edges(
        np.zeros(n_workers, dtype=np.int64),
        1 + np.arange(n_workers),
        np.ones(n_workers, dtype=np.int64),
    )
    network.add_edges(
        1 + n_workers + np.arange(n_tasks),
        np.full(n_tasks, sink, dtype=np.int64),
        np.ones(n_tasks, dtype=np.int64),
    )
    rows, columns = mask_nonzero(feasible)
    pair_edges = network.add_edges(
        1 + rows,
        1 + n_workers + columns,
        np.ones(len(rows), dtype=np.int64),
        None if cost is None else cost[rows, columns],
    )
    return network, rows, columns, pair_edges


def solve_lexicographic_mcmf(
    cost: np.ndarray, feasible: np.ndarray
) -> list[tuple[int, int]]:
    """Solve the same problem through the Figure-4 flow network."""
    cost, feasible = _validated(cost, feasible)
    if not feasible.any():
        return []
    network, rows, columns, pair_edges = build_figure4_network(feasible, cost)
    MinCostMaxFlow(network).solve(0, network.num_nodes - 1)
    used = network.flows(pair_edges) > 0
    return list(zip(rows[used].tolist(), columns[used].tolist()))
