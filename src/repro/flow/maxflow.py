"""Maximum-flow algorithms: Edmonds-Karp and Dinic.

Edmonds-Karp is the BFS instantiation of Ford-Fulkerson the paper cites; it
is kept as the readable reference.  Dinic is the reference the MTA baseline's
Hopcroft-Karp matching is checked against (unit capacities make it
O(E * sqrt(V))).

Dinic runs over the :meth:`~repro.flow.network.FlowNetwork.csr` arrays: the
level BFS advances whole frontiers with one vectorized capacity mask per
level, and each blocking-flow phase first *compacts* the level graph with
one vectorized mask — an arc is usable for the whole phase iff it had
residual capacity at phase start and advances exactly one level (its twin
is level-backward, so mid-phase pushes can only remove capacity from the
compacted set, never add it).  The current-arc DFS spine then walks only
the compacted arcs, and the capacity deltas fold back into the network in
one fancy-indexed update per phase.  On unit-capacity networks (the
Figure-4 assignment graphs) level BFS + current-arc DFS is exactly
Hopcroft-Karp.  Dinic is a test reference, so it carries no speed-only
machinery beyond these two passes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork, csr_gather


def edmonds_karp(network: FlowNetwork, source: int, sink: int) -> int:
    """Compute the maximum flow from ``source`` to ``sink`` (Edmonds-Karp).

    Mutates ``network`` (pushes flow); returns the max-flow value.
    """
    if source == sink:
        raise FlowError("source and sink must differ")
    indptr, csr_edges = network.csr()
    heads = network.edge_to
    cap = network.edge_cap
    total = 0
    while True:
        parent_edge = [-1] * network.num_nodes
        parent_edge[source] = -2
        queue: deque[int] = deque([source])
        while queue and parent_edge[sink] == -1:
            node = queue.popleft()
            for position in range(indptr[node], indptr[node + 1]):
                edge_id = int(csr_edges[position])
                target = int(heads[edge_id])
                if parent_edge[target] == -1 and cap[edge_id] > 0:
                    parent_edge[target] = edge_id
                    queue.append(target)
        if parent_edge[sink] == -1:
            return total
        # Find the bottleneck, then push.
        bottleneck = None
        node = sink
        while node != source:
            edge_id = parent_edge[node]
            residual = int(cap[edge_id])
            bottleneck = residual if bottleneck is None else min(bottleneck, residual)
            node = int(heads[edge_id ^ 1])
        assert bottleneck is not None and bottleneck > 0
        node = sink
        while node != source:
            edge_id = parent_edge[node]
            network.push(edge_id, bottleneck)
            node = int(heads[edge_id ^ 1])
        total += bottleneck


class Dinic:
    """Dinic's algorithm: vectorized BFS level graph + DFS blocking flow."""

    def __init__(self, network: FlowNetwork) -> None:
        self.network = network
        self._level: np.ndarray = np.empty(0, dtype=np.int64)

    def _bfs(self, source: int, sink: int) -> bool:
        """Level the residual graph, advancing whole frontiers per step."""
        network = self.network
        indptr, csr_edges = network.csr()
        heads = network.edge_to
        cap = network.edge_cap
        level = np.full(network.num_nodes, -1, dtype=np.int64)
        level[source] = 0
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            positions, _counts = csr_gather(indptr, frontier)
            if positions.size == 0:
                break
            edges = csr_edges[positions]
            edges = edges[cap[edges] > 0]
            targets = heads[edges]
            targets = targets[level[targets] < 0]
            if targets.size == 0:
                break
            # Dedup through a flag array: O(V + hits) beats the O(n log n)
            # sort of np.unique on the multi-million-arc frontiers, and
            # flatnonzero yields the same ascending order.
            seen = np.zeros(network.num_nodes, dtype=bool)
            seen[targets] = True
            frontier = np.flatnonzero(seen)
            level[frontier] = depth
        self._level = level
        return level[sink] >= 0

    def _blocking_flow(self, source: int, sink: int) -> int:
        """Current-arc DFS blocking flow over one *compacted* level graph.

        The admissible arc set is fixed for the whole phase: an arc is
        usable iff it had residual capacity at phase start and advances
        exactly one level.  (Its twin is level-backward, so no augmentation
        within the phase can give it capacity back — pushes only remove
        arcs from the set.)  One vectorized mask compacts the CSR down to
        those arcs, the DFS spine walks the compacted lists (scalar list
        indexing beats ndarray scalar indexing several-fold, and the walk
        skips every level-inadmissible arc for free), and the capacity
        deltas fold back into the network with one fancy-indexed update.
        """
        network = self.network
        num_nodes = network.num_nodes
        indptr, csr_edges = network.csr()
        heads = network.edge_to
        cap = network.edge_cap
        level = self._level
        tails = network.edge_tail[csr_edges]
        tail_levels = level[tails]
        usable = (
            (cap[csr_edges] > 0)
            & (tail_levels >= 0)
            & (level[heads[csr_edges]] == tail_levels + 1)
        )
        arc_edges = csr_edges[usable]
        if arc_edges.size == 0:
            return 0
        # csr_edges is grouped by tail in insertion order, so the mask keeps
        # both the grouping and the per-node arc order the walk relies on.
        arc_tails = tails[usable]
        arc_heads = heads[arc_edges]
        offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(arc_tails, minlength=num_nodes)))
        )
        start_cap = cap[arc_edges]
        arc_cap = start_cap.tolist()
        arc_heads = arc_heads.tolist()
        arc_tails = arc_tails.tolist()
        it = offsets[:num_nodes].tolist()
        ends = offsets[1:].tolist()

        total = 0
        path: list[int] = []  # positions into the compacted arrays
        node = source
        while True:
            if node == sink:
                bottleneck = min(arc_cap[position] for position in path)
                for position in path:
                    arc_cap[position] -= bottleneck
                total += bottleneck
                # Restart from the source with current arcs retained.
                path = []
                node = source
                continue
            advanced = False
            position = it[node]
            end = ends[node]
            while position < end:
                if arc_cap[position] > 0:
                    it[node] = position
                    path.append(position)
                    node = arc_heads[position]
                    advanced = True
                    break
                position += 1
            if not advanced:
                it[node] = end
                if node == source:
                    break
                # Dead end: retreat and advance the parent's current arc.
                position = path.pop()
                node = arc_tails[position]
                it[node] = position + 1
        # Fold the deltas back: arc ids are unique per CSR position and an
        # admissible arc's twin is never admissible, so plain fancy-indexed
        # updates suffice.
        new_cap = np.asarray(arc_cap, dtype=cap.dtype)
        pushed = start_cap - new_cap
        cap[arc_edges] = new_cap
        cap[arc_edges ^ 1] += pushed
        return total

    def max_flow(self, source: int, sink: int) -> int:
        """Compute the maximum flow; mutates the underlying network."""
        if source == sink:
            raise FlowError("source and sink must differ")
        total = 0
        while self._bfs(source, sink):
            total += self._blocking_flow(source, sink)
        return total
