"""Random Reverse Reachable (RRR) set generation and queries (Definition 5).

An RRR set is sampled by (1) picking a root worker uniformly at random and
(2) performing a reverse BFS in which each in-arc of a visited node ``v`` is
live independently with probability ``1 / indeg(v)``.  The set contains every
worker that reaches the root through live arcs — including the root itself
(zero arcs is a finite path).

Storage is flat-CSR: :class:`RRRCollection` keeps one ``(indptr, flat
members, roots)`` array triple for the whole bag of sets instead of a Python
list of per-set arrays.  Appends go into capacity-doubled buffers, so
repeated :meth:`RRRCollection.extend` calls (the RPO ladder) are amortized
O(new data) with no per-call concatenation, and cover counts are maintained
incrementally on append.  All queries (``coverage_fraction``, ``sigma``,
``ppro`` / ``ppro_matrix_row``, ``propagation_kernel``,
``weighted_root_cover``) run on the CSR structure without touching Python
loops over sets.

Sampling is frontier-batched: :func:`sample_rrr_sets_batched` advances the
reverse BFS of *all* pending sets at once, drawing the Bernoulli outcomes of
every frontier node's in-arc slice in one vectorized pass per level.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.propagation.graph import SocialGraph

_EMPTY_INT = np.zeros(0, dtype=np.int64)


def merge_sorted(universe: np.ndarray, fresh_sorted: np.ndarray) -> np.ndarray:
    """Merge sorted, disjoint ``fresh_sorted`` keys into a sorted universe."""
    return np.insert(universe, np.searchsorted(universe, fresh_sorted), fresh_sorted)


def not_in_sorted(universe: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean mask of ``keys`` entries absent from the sorted universe."""
    if universe.size == 0:
        return np.ones(len(keys), dtype=bool)
    positions = np.minimum(np.searchsorted(universe, keys), universe.size - 1)
    return universe[positions] != keys


class RRRCollection:
    """A bag of RRR sets in flat-CSR form with vectorized coverage queries.

    The public contract is unchanged from the historical list-based
    implementation: ``roots`` is an ``(N,)`` array of root indices,
    ``members`` yields one sorted member array per set, and every query
    returns the same values.  Internally the member arrays are slices of a
    single flat buffer delimited by ``indptr``.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self._num_sets = 0
        self._flat_size = 0
        self._roots_buf = np.zeros(8, dtype=np.int64)
        self._indptr_buf = np.zeros(9, dtype=np.int64)
        self._flat_buf = np.zeros(64, dtype=np.int64)
        # Incrementally maintained: updated on every extend, reset on clear.
        self._cover_counts = np.zeros(self.num_workers, dtype=np.int64)
        self._membership: sparse.csr_matrix | None = None
        self._kernel: sparse.csr_matrix | None = None
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on every mutation — lets consumers detect staleness even
        when ``len`` is unchanged (e.g. clear + resample to the same count)."""
        return self._version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RRRCollection(num_workers={self.num_workers}, "
            f"num_sets={self._num_sets}, total_members={self._flat_size})"
        )

    def __len__(self) -> int:
        return self._num_sets

    # ------------------------------------------------------------- raw views
    @property
    def roots(self) -> np.ndarray:
        """Root worker index of every set, shape ``(N,)``."""
        return self._roots_buf[: self._num_sets]

    @property
    def indptr(self) -> np.ndarray:
        """CSR delimiters: set ``j`` owns ``flat_members[indptr[j]:indptr[j+1]]``."""
        return self._indptr_buf[: self._num_sets + 1]

    @property
    def flat_members(self) -> np.ndarray:
        """All member indices concatenated set-by-set (sorted within a set)."""
        return self._flat_buf[: self._flat_size]

    @property
    def members(self) -> list[np.ndarray]:
        """Per-set member arrays (views into the flat buffer; do not mutate)."""
        indptr = self.indptr
        flat = self.flat_members
        return [flat[indptr[j]: indptr[j + 1]] for j in range(self._num_sets)]

    # -------------------------------------------------------------- mutation
    @staticmethod
    def _grown(buffer: np.ndarray, needed: int) -> np.ndarray:
        if needed <= len(buffer):
            return buffer
        capacity = max(len(buffer), 1)
        while capacity < needed:
            capacity *= 2
        grown = np.zeros(capacity, dtype=buffer.dtype)
        grown[: len(buffer)] = buffer
        return grown

    def extend_flat(self, roots: np.ndarray, indptr: np.ndarray, flat: np.ndarray) -> None:
        """Append pre-flattened sets: ``flat[indptr[j]:indptr[j+1]]`` is set
        ``j``'s sorted member array.  Amortized O(appended data)."""
        roots = np.asarray(roots, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        count = len(roots)
        if len(indptr) != count + 1:
            raise ValueError(
                f"indptr must have {count + 1} entries for {count} roots, got {len(indptr)}"
            )
        if count == 0:
            return
        if indptr[0] != 0 or indptr[-1] != len(flat) or np.any(np.diff(indptr) < 0):
            raise ValueError(
                f"inconsistent indptr: must start at 0, be non-decreasing and "
                f"end at len(flat)={len(flat)}, got [{indptr[0]}, ..., {indptr[-1]}]"
            )
        self._roots_buf = self._grown(self._roots_buf, self._num_sets + count)
        self._indptr_buf = self._grown(self._indptr_buf, self._num_sets + count + 1)
        self._flat_buf = self._grown(self._flat_buf, self._flat_size + len(flat))

        self._roots_buf[self._num_sets: self._num_sets + count] = roots
        self._indptr_buf[self._num_sets + 1: self._num_sets + count + 1] = (
            indptr[1:] + self._flat_size
        )
        self._flat_buf[self._flat_size: self._flat_size + len(flat)] = flat
        self._num_sets += count
        self._flat_size += len(flat)

        self._cover_counts += np.bincount(flat, minlength=self.num_workers)
        self._membership = None
        self._kernel = None
        self._version += 1

    def extend(self, roots: np.ndarray, members: list[np.ndarray]) -> None:
        """Append newly sampled sets given as a list of sorted member arrays."""
        lengths = np.fromiter(
            (len(m) for m in members), dtype=np.int64, count=len(members)
        )
        indptr = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = (
            np.concatenate(members) if members else _EMPTY_INT
        )
        self.extend_flat(np.asarray(roots, dtype=np.int64), indptr, flat)

    def clear(self) -> None:
        """Drop every set (Algorithm 1 resets R between k-iterations).

        Allocates fresh buffers rather than rewinding the counters, so any
        member views handed out before the clear keep reading the data they
        were created over instead of being silently overwritten.
        """
        self._num_sets = 0
        self._flat_size = 0
        self._roots_buf = np.zeros(8, dtype=np.int64)
        self._indptr_buf = np.zeros(9, dtype=np.int64)
        self._flat_buf = np.zeros(64, dtype=np.int64)
        self._cover_counts = np.zeros(self.num_workers, dtype=np.int64)
        self._membership = None
        self._kernel = None
        self._version += 1

    # ------------------------------------------------------------ membership
    def membership_matrix(self) -> sparse.csr_matrix:
        """Sparse ``|W| x N`` indicator: entry (w, j) = 1 iff set j covers w.

        Built straight from the flat-CSR slabs: the ``(indptr, flat)`` pair
        *is* the CSC form of the indicator (sets as columns), so construction
        is O(nnz) with no per-set Python work and no coordinate sort.
        """
        if self._membership is None:
            if self._num_sets:
                csc = sparse.csc_matrix(
                    (
                        np.ones(self._flat_size),
                        self.flat_members.copy(),
                        self.indptr.copy(),
                    ),
                    shape=(self.num_workers, self._num_sets),
                )
                self._membership = csc.tocsr()
            else:
                self._membership = sparse.csr_matrix((self.num_workers, 0))
        return self._membership

    def sets_covering(self, worker_index: int) -> np.ndarray:
        """Ids of the sets containing ``worker_index`` (ascending)."""
        matrix = self.membership_matrix()
        return matrix.indices[
            matrix.indptr[worker_index]: matrix.indptr[worker_index + 1]
        ]

    # -------------------------------------------------------------- coverage
    def cover_counts(self) -> np.ndarray:
        """``count[w]`` = number of sets containing ``w`` (maintained on append)."""
        return self._cover_counts

    def coverage_fraction(self) -> np.ndarray:
        """``f_R(w)`` for every worker; zeros if the collection is empty."""
        if not self._num_sets:
            return np.zeros(self.num_workers)
        return self._cover_counts / self._num_sets

    def greedy_informed_worker(self) -> int:
        """Dense index of the worker maximizing ``f_R`` (Definition 8)."""
        if not self._num_sets:
            raise ValueError("empty RRR collection has no greedy informed worker")
        return int(np.argmax(self._cover_counts))

    def sigma(self, worker_index: int) -> float:
        """Informed-range estimate ``sigma(w) = |W|/N * count[w]`` (Def. 6)."""
        if not self._num_sets:
            return 0.0
        return self.num_workers * float(self._cover_counts[worker_index]) / self._num_sets

    def sigma_all(self) -> np.ndarray:
        """``sigma(w)`` for every worker at once."""
        if not self._num_sets:
            return np.zeros(self.num_workers)
        return self.num_workers * self._cover_counts.astype(float) / self._num_sets

    # -------------------------------------------------------------- pairwise
    def ppro(self, source_index: int, target_index: int) -> float:
        """Equation 3: ``P_pro(w_s, w_i)`` — probability that ``target`` is
        informed by ``source`` = ``|W|/N *`` (number of target-rooted sets
        covering the source)."""
        if not self._num_sets:
            return 0.0
        covering = self.sets_covering(source_index)
        count = int(np.count_nonzero(self.roots[covering] == target_index))
        return self.num_workers * count / self._num_sets

    def ppro_matrix_row(self, source_index: int) -> np.ndarray:
        """``P_pro(w_s, w_i)`` for a fixed source against every target.

        One gather over the sets covering the source: each contributes its
        root, so the row is a scaled bincount of those roots.
        """
        if not self._num_sets:
            return np.zeros(self.num_workers)
        covering = self.sets_covering(source_index)
        counts = np.bincount(self.roots[covering], minlength=self.num_workers)
        return self.num_workers * counts / self._num_sets

    def propagation_kernel(self) -> sparse.csr_matrix:
        """Sparse ``|W| x |W|`` matrix with entry ``(s, i) = P_pro(s, i)``.

        It is ``M @ R`` for the membership indicator ``M`` and the ``N x |W|``
        root indicator ``R``: every set counts one at (member, root) for each
        of its members, duplicates summed.  Row ``s`` equals
        :meth:`ppro_matrix_row` bit for bit.  Cached until the next mutation.
        """
        if self._kernel is None:
            n = self.num_workers
            roots = np.repeat(self.roots, np.diff(self.indptr))
            kernel = sparse.csr_matrix(
                (np.ones(self._flat_size), (self.flat_members, roots)), shape=(n, n)
            )
            kernel.sum_duplicates()
            kernel.data = n * kernel.data / self._num_sets
            self._kernel = kernel
        return self._kernel

    def weighted_root_cover(self, weight_by_root: np.ndarray) -> np.ndarray:
        """Vectorized inner sum of the influence formula.

        Given per-worker weights ``weight_by_root`` (e.g. ``P_wil(w_i, s)``),
        returns for every candidate source ``w_s``

            out[w_s] = |W|/N * sum_{sets j covering w_s} weight_by_root[root_j]

        which equals ``sum_i weight[i] * P_pro(w_s, w_i)``.
        """
        out = self.weighted_root_cover_batch(np.asarray(weight_by_root)[:, None])
        return out[:, 0]

    def weighted_root_cover_batch(self, weights: np.ndarray) -> np.ndarray:
        """Batched :meth:`weighted_root_cover` over many weight vectors.

        ``weights`` has shape ``(|W|, T)`` (one column per task); the result
        has the same shape, where

            out[w_s, t] = sum_i weights[i, t] * P_pro(w_s, w_i)

        computed as one sparse matrix product: ``scale * M @ weights[roots]``
        with ``M`` the membership indicator.  The readable reference for
        :meth:`propagation_kernel`, which serves the same sum in production.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        if weights.shape[0] != self.num_workers:
            raise ValueError(
                f"weights must have {self.num_workers} rows, got {weights.shape[0]}"
            )
        if not self._num_sets:
            return np.zeros_like(weights)
        scale = self.num_workers / self._num_sets
        per_set = weights[self.roots, :]  # (N, T)
        return scale * (self.membership_matrix() @ per_set)


#: Largest ``processes x nodes`` key space served by the O(1)-lookup stamp
#: bitmap (64M cells = 64 MB of bool); beyond it the sorted-merge path keeps
#: memory proportional to the visited set instead.
STAMP_ARRAY_LIMIT = 1 << 26


def batched_cascade(
    indptr: np.ndarray,
    flat: np.ndarray,
    arc_probs: np.ndarray,
    num_nodes: int,
    start_nodes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance many independent-cascade BFS processes simultaneously.

    Process ``j`` starts at ``start_nodes[j]`` and repeatedly expands its
    frontier over the CSR adjacency ``(indptr, flat)``: every arc in a
    frontier node's slice fires independently with its ``arc_probs`` entry.
    Per level, the arc slices of *all* frontiers are concatenated, their
    Bernoulli outcomes drawn in one vectorized pass, and the surviving
    ``(process, node)`` pairs deduped against the visited universe — no
    per-process Python loop anywhere.

    Visited-set maintenance is a preallocated process-major stamp bitmap
    (one flag per ``process * num_nodes + node`` key, reused across levels):
    membership tests are O(level size) gathers and nothing is merged until a
    single final sort.  When the key space exceeds
    :data:`STAMP_ARRAY_LIMIT` cells, the engine falls back to the sorted
    merge (``np.insert`` + ``searchsorted``) whose memory tracks the visited
    set; both paths are bit-identical, including every RNG draw.

    The same engine serves reverse-reachability sampling (in-adjacency) and
    forward IC simulation (out-adjacency).  Returns ``(result_indptr,
    result_flat)``: process ``j`` reached the sorted nodes
    ``result_flat[result_indptr[j]:result_indptr[j+1]]``.
    """
    count = len(start_nodes)
    if count == 0:
        return np.zeros(1, dtype=np.int64), _EMPTY_INT
    n = num_nodes
    use_stamp = count * n <= STAMP_ARRAY_LIMIT

    # Keys are process_id * n + node; start nodes are visited from the
    # start, and ascending process ids keep the initial array sorted.
    start_keys = np.arange(count, dtype=np.int64) * n + start_nodes
    if use_stamp:
        stamp = np.zeros(count * n, dtype=bool)
        stamp[start_keys] = True
        visited_chunks = [start_keys]
        visited = _EMPTY_INT  # unused on this path
    else:
        visited = start_keys
        visited_chunks = []
    frontier_procs = np.arange(count, dtype=np.int64)
    frontier_nodes = start_nodes

    while frontier_nodes.size:
        starts = indptr[frontier_nodes]
        lengths = indptr[frontier_nodes + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            break
        # Positions of every frontier node's arcs in the flat arc arrays.
        offsets = np.cumsum(lengths) - lengths
        arc_pos = np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)
        live = rng.random(total) < arc_probs[arc_pos]
        candidate_procs = np.repeat(frontier_procs, lengths)[live]
        candidate_nodes = flat[arc_pos[live]]
        if candidate_nodes.size == 0:
            break
        keys = np.sort(candidate_procs * n + candidate_nodes)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        if use_stamp:
            fresh = keys[~stamp[keys]]
            if fresh.size == 0:
                break
            stamp[fresh] = True
            visited_chunks.append(fresh)
        else:
            fresh = keys[not_in_sorted(visited, keys)]
            if fresh.size == 0:
                break
            visited = merge_sorted(visited, fresh)
        frontier_procs = fresh // n
        frontier_nodes = fresh % n

    if use_stamp:
        # One sort at the end instead of one merge per level.
        visited = np.sort(np.concatenate(visited_chunks))

    # visited is sorted process-major with ascending nodes inside each
    # process, which is exactly the flat-CSR layout with sorted slices.
    proc_ids = visited // n
    result_flat = visited % n
    result_indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(proc_ids, minlength=count), out=result_indptr[1:])
    return result_indptr, result_flat


def sample_rrr_sets_batched(
    graph: SocialGraph, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``count`` RRR sets with all reverse BFS frontiers advanced at
    once (see :func:`batched_cascade`).

    Returns ``(roots, indptr, flat)`` in the flat-CSR layout of
    :meth:`RRRCollection.extend_flat`; member slices are sorted.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    n = graph.num_workers
    roots = rng.integers(n, size=count).astype(np.int64)
    in_indptr, in_flat, in_probs = graph.in_csr()
    indptr, flat = batched_cascade(in_indptr, in_flat, in_probs, n, roots, rng)
    return roots, indptr, flat


def sample_rrr_sets(
    graph: SocialGraph, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sample ``count`` RRR sets with uniformly random roots.

    Compatibility wrapper around :func:`sample_rrr_sets_batched`: returns
    ``(roots, members)`` where each member array is **sorted** so that
    membership tests can binary-search.  The member arrays are views into one
    flat buffer.
    """
    roots, indptr, flat = sample_rrr_sets_batched(graph, count, rng)
    members = [flat[indptr[j]: indptr[j + 1]] for j in range(count)]
    return roots, members
