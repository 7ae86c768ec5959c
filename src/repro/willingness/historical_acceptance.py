"""The Historical Acceptance (HA) willingness model (paper Section III-B).

Combines the RWR stationary distribution over a worker's historical task
locations with the per-worker Pareto movement model into Eq. 2:

    P_wil(w, s) = sum_i  P_w(w, s_i) * (d(s_i, s) + 1)^(-pi_w)

The module offers both a per-pair API (:meth:`HistoricalAcceptance.willingness`)
and a vectorized bulk API (:meth:`HistoricalAcceptance.willingness_all`) that
evaluates every worker against one task location in a handful of numpy
operations — the influence model needs willingness of *all* workers for each
task, which would be quadratically slow pairwise.

Fitting solves every eligible worker's RWR in one batched sparse power
iteration (:func:`~repro.willingness.rwr.stationary_distributions`);
:func:`~repro.willingness.rwr.random_walk_with_restart` is its per-worker
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.entities import TaskHistory
from repro.exceptions import NotFittedError
from repro.geo import Point
from repro.willingness.pareto import fit_pareto_shape
from repro.willingness.rwr import StationaryDistribution, stationary_distributions


@dataclass(frozen=True)
class WorkerMobilityModel:
    """Per-worker fitted mobility: stationary distribution + Pareto shape."""

    worker_id: int
    stationary: StationaryDistribution
    pareto_shape: float

    def willingness(self, target: Point) -> float:
        """Evaluate Eq. 2 for one target location."""
        total = 0.0
        for location, probability in zip(
            self.stationary.locations, self.stationary.probabilities
        ):
            distance = location.distance_to(target)
            total += float(probability) * (distance + 1.0) ** (-self.pareto_shape)
        return total


class HistoricalAcceptance:
    """Fits and evaluates the HA willingness model for a worker population.

    Parameters
    ----------
    restart:
        RWR restart probability.
    min_history:
        Workers with fewer performed tasks than this get willingness 0
        everywhere (no evidence of mobility).  Two records are needed for at
        least one observed jump, hence the default.
    """

    def __init__(self, restart: float = 0.15, min_history: int = 2) -> None:
        self.restart = restart
        self.min_history = min_history
        self.models: dict[int, WorkerMobilityModel] = {}
        # Flattened arrays over all workers' distinct historical locations,
        # for the vectorized bulk path.
        self._flat_xy: np.ndarray | None = None
        self._flat_weight: np.ndarray | None = None
        self._flat_shape: np.ndarray | None = None
        self._flat_owner_row: np.ndarray | None = None
        self._worker_ids: list[int] = []
        self._row_of: dict[int, int] = {}

    def fit(self, histories: Mapping[int, TaskHistory]) -> "HistoricalAcceptance":
        """Fit one mobility model per worker with sufficient history."""
        self.models.clear()
        self._worker_ids = sorted(histories)
        self._row_of = {w: i for i, w in enumerate(self._worker_ids)}

        xy_chunks: list[np.ndarray] = []
        weight_chunks: list[np.ndarray] = []
        shape_chunks: list[np.ndarray] = []
        owner_chunks: list[np.ndarray] = []

        eligible = [
            w for w in self._worker_ids if len(histories[w]) >= self.min_history
        ]
        sequences = [histories[w].locations for w in eligible]
        stationaries = stationary_distributions(sequences, restart=self.restart)
        for worker_id, locations, stationary in zip(eligible, sequences, stationaries):
            jumps = [
                a.distance_to(b) for a, b in zip(locations, locations[1:])
            ]
            shape = fit_pareto_shape(jumps)
            model = WorkerMobilityModel(
                worker_id=worker_id, stationary=stationary, pareto_shape=shape
            )
            self.models[worker_id] = model

            n = len(stationary.locations)
            xy_chunks.append(
                np.array([(p.x, p.y) for p in stationary.locations], dtype=float)
            )
            weight_chunks.append(np.asarray(stationary.probabilities, dtype=float))
            shape_chunks.append(np.full(n, shape, dtype=float))
            owner_chunks.append(np.full(n, self._row_of[worker_id], dtype=np.int64))

        if xy_chunks:
            self._flat_xy = np.concatenate(xy_chunks)
            self._flat_weight = np.concatenate(weight_chunks)
            self._flat_shape = np.concatenate(shape_chunks)
            self._flat_owner_row = np.concatenate(owner_chunks)
        else:
            self._flat_xy = np.zeros((0, 2))
            self._flat_weight = np.zeros(0)
            self._flat_shape = np.zeros(0)
            self._flat_owner_row = np.zeros(0, dtype=np.int64)
        return self

    def _require_fitted(self) -> None:
        if self._flat_xy is None:
            raise NotFittedError("HistoricalAcceptance.fit must be called first")

    @property
    def worker_ids(self) -> list[int]:
        """All worker ids seen at fit time, sorted."""
        self._require_fitted()
        return list(self._worker_ids)

    def willingness(self, worker_id: int, target: Point) -> float:
        """``P_wil(w, s)`` for one pair (0.0 for workers without a model)."""
        self._require_fitted()
        model = self.models.get(worker_id)
        if model is None:
            return 0.0
        return model.willingness(target)

    def willingness_all(self, target: Point) -> np.ndarray:
        """``P_wil(w, s)`` for *every* fitted worker against one location.

        Returns a vector aligned with :attr:`worker_ids`.  Internally a
        single pass over the flattened (location, weight, shape, owner)
        arrays followed by a segmented sum.
        """
        self._require_fitted()
        assert self._flat_xy is not None
        out = np.zeros(len(self._worker_ids))
        if len(self._flat_xy) == 0:
            return out
        dx = self._flat_xy[:, 0] - target.x
        dy = self._flat_xy[:, 1] - target.y
        distance = np.sqrt(dx * dx + dy * dy)
        contribution = self._flat_weight * (distance + 1.0) ** (-self._flat_shape)
        np.add.at(out, self._flat_owner_row, contribution)
        return out

    def row_of(self, worker_id: int) -> int:
        """Index of ``worker_id`` in the vectors of :meth:`willingness_all`."""
        self._require_fitted()
        return self._row_of[worker_id]
