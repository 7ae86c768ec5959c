"""Random Walk with Restart over a worker's historical task locations.

The paper (Section III-B1) builds, per worker, a weight matrix over the
locations of the worker's performed tasks and computes the stationary
distribution ``P_w(w, s_i)`` — the probability the worker "stays at" each
historical location.  We realise this with the standard RWR fixed point

    p = (1 - c) * T^T p + c * q

where ``T`` is the row-stochastic transition matrix derived from the
worker's chronological movements (observed transitions between distinct
locations), ``q`` is the restart distribution (uniform over visited
locations), and ``c`` is the restart probability.

:func:`stationary_distributions` is the production path: it stacks every
worker's chain into one block-diagonal sparse matrix and runs a single
power iteration over all of them, each block stopping on the iteration
where it alone would.  :func:`random_walk_with_restart` solves one worker
with a dense matrix and is kept as the readable reference the batched
solve is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.geo import Point

# Power-iteration stopping rule shared by the batched solver and its
# reference: stop once the L1 change of an iteration falls below _TOL, or
# after _MAX_ITER iterations.
_TOL = 1e-10
_MAX_ITER = 500


@dataclass(frozen=True)
class StationaryDistribution:
    """The RWR output: distinct locations and their stationary probabilities."""

    locations: tuple[Point, ...]
    probabilities: np.ndarray  # aligned with locations; sums to 1

    def probability_of(self, location: Point) -> float:
        """Return the stationary mass at ``location`` (0.0 if never visited)."""
        for i, visited in enumerate(self.locations):
            if visited == location:
                return float(self.probabilities[i])
        return 0.0


def _transition_matrix(visit_sequence: list[int], num_states: int) -> np.ndarray:
    """Row-stochastic matrix of observed transitions between distinct states.

    States never left (or terminal) get a uniform row, keeping the chain
    irreducible together with the restart term.
    """
    counts = np.zeros((num_states, num_states), dtype=float)
    for a, b in zip(visit_sequence, visit_sequence[1:]):
        counts[a, b] += 1.0
    row_sums = counts.sum(axis=1, keepdims=True)
    uniform = np.full((1, num_states), 1.0 / num_states)
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.where(row_sums > 0, counts / np.where(row_sums == 0, 1, row_sums), uniform)
    return matrix


def _validate(locations: Sequence[Point], restart: float) -> None:
    if not locations:
        raise ValueError("cannot compute a stationary distribution of zero locations")
    if not 0.0 < restart <= 1.0:
        raise ValueError(f"restart must be in (0, 1], got {restart}")


def random_walk_with_restart(
    locations: list[Point],
    restart: float = 0.15,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> StationaryDistribution:
    """Compute the RWR stationary distribution of a location sequence.

    The dense one-worker reference for :func:`stationary_distributions`.

    Parameters
    ----------
    locations:
        The worker's chronological task locations (may repeat).
    restart:
        Restart probability ``c`` in (0, 1]; higher values pull the
        distribution towards the uniform restart vector.

    Raises
    ------
    ValueError
        If ``locations`` is empty or ``restart`` is out of range.
    """
    _validate(locations, restart)
    distinct: list[Point] = []
    index: dict[Point, int] = {}
    sequence: list[int] = []
    for location in locations:
        state = index.get(location)
        if state is None:
            state = len(distinct)
            index[location] = state
            distinct.append(location)
        sequence.append(state)

    n = len(distinct)
    if n == 1:
        return StationaryDistribution(locations=tuple(distinct), probabilities=np.array([1.0]))

    transition = _transition_matrix(sequence, n)
    q = np.full(n, 1.0 / n)
    p = q.copy()
    for _ in range(max_iter):
        new_p = (1.0 - restart) * (transition.T @ p) + restart * q
        if float(np.abs(new_p - p).sum()) < tol:
            p = new_p
            break
        p = new_p
    p = np.maximum(p, 0.0)
    p /= p.sum()
    return StationaryDistribution(locations=tuple(distinct), probabilities=p)


def stationary_distributions(
    sequences: Sequence[Sequence[Point]],
    restart: float = 0.15,
) -> list[StationaryDistribution]:
    """RWR stationary distributions of many location sequences at once.

    Equal, up to floating-point rounding, to calling
    :func:`random_walk_with_restart` on each sequence.  Each sequence's
    distinct locations are one block of states; observed transitions fill
    a block-diagonal sparse matrix, and states never left spread their
    mass uniformly over their own block.  One power iteration runs over
    every block, and a block stops on the iteration where the reference,
    run with its default stopping rule, would stop.

    Raises
    ------
    ValueError
        If any sequence is empty or ``restart`` is out of range.
    """
    distinct: list[Point] = []
    ends: list[int] = []
    sources: list[int] = []
    targets: list[int] = []
    for locations in sequences:
        _validate(locations, restart)
        index: dict[Point, int] = {}
        visits = []
        for location in locations:
            state = index.get(location)
            if state is None:
                state = index[location] = len(distinct)
                distinct.append(location)
            visits.append(state)
        sources.extend(visits[:-1])
        targets.extend(visits[1:])
        ends.append(len(distinct))

    bounds = np.array([0] + ends)
    sizes = np.diff(bounds)
    num_blocks, num_states = len(ends), len(distinct)
    block_of = np.repeat(np.arange(num_blocks), sizes)
    # Column a of ``transposed`` is state a's row of T: jump counts out of
    # a (duplicate jumps summed by the CSR conversion) over a's out-degree.
    out_degree = np.bincount(sources, minlength=num_states).astype(float)
    transposed = csr_matrix(
        (np.ones(len(sources)), (targets, sources)), shape=(num_states, num_states)
    )
    transposed.data /= out_degree[transposed.indices]
    dangling = np.flatnonzero(out_degree == 0)
    dangling_block = block_of[dangling]
    state_size = sizes[block_of].astype(float)

    q = 1.0 / state_size
    p = q.copy()
    active = np.ones(num_blocks, dtype=bool)
    for _ in range(_MAX_ITER):
        spread = np.bincount(dangling_block, weights=p[dangling], minlength=num_blocks)
        new_p = (1.0 - restart) * (transposed @ p + spread[block_of] / state_size) + restart * q
        change = np.bincount(block_of, weights=np.abs(new_p - p), minlength=num_blocks)
        p = np.where(active[block_of], new_p, p)
        active &= change >= _TOL
        if not active.any():
            break
    p = np.maximum(p, 0.0)
    p /= np.bincount(block_of, weights=p, minlength=num_blocks)[block_of]
    return [
        StationaryDistribution(locations=tuple(distinct[lo:hi]), probabilities=p[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
