"""Alternative movement-probability families for willingness (extension).

The paper justifies the Pareto jump-length distribution with the
self-similarity of human movement; this module makes that modeling choice an
ablation knob.  Every family fits its parameter(s) by maximum likelihood on
the same shifted jumps ``x_i = d_i + 1 >= 1`` the Pareto fit uses, and
exposes the tail mass ``P[jump >= d]`` that Eq. 2 plugs in.

Families
--------
* :class:`ParetoMovement` — the paper's model; tail ``(d + 1)^(-pi)``.
* :class:`ExponentialMovement` — memoryless jumps; tail ``exp(-lambda * d)``.
* :class:`LognormalMovement` — heavy-ish tail with a mode; tail by the
  complementary normal CDF of ``ln(d + 1)``.
* :class:`RayleighMovement` — 2-d Gaussian displacement magnitude; tail
  ``exp(-d^2 / (2 sigma^2))``.

:class:`GeneralizedHistoricalAcceptance` re-implements Eq. 2 with a plug-in
family; with the Pareto family it reproduces
:class:`~repro.willingness.historical_acceptance.HistoricalAcceptance`
exactly (tested).
"""

from __future__ import annotations

import abc
import math
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from repro.entities import TaskHistory
from repro.exceptions import NotFittedError
from repro.geo import Point
from repro.willingness.pareto import MAX_SHAPE, fit_pareto_shape
from repro.willingness.rwr import StationaryDistribution, stationary_distributions


def _validate_jumps(jumps: Sequence[float]) -> np.ndarray:
    if len(jumps) == 0:
        raise ValueError("need at least one consecutive distance to fit")
    array = np.asarray(jumps, dtype=float)
    if np.any(array < 0):
        raise ValueError("distances must be non-negative")
    return array


class MovementModel(abc.ABC):
    """One parametric family of jump-length distributions."""

    #: Family name used in configuration and experiment tables.
    name: str = "base"

    @abc.abstractmethod
    def fit(self, jumps: Sequence[float]) -> "MovementModel":
        """Fit the family's parameters to consecutive jump distances."""

    @abc.abstractmethod
    def tail(self, distance_km: np.ndarray | float) -> np.ndarray | float:
        """``P[jump >= distance]`` under the fitted parameters."""


class ParetoMovement(MovementModel):
    """The paper's Pareto family (Eq. 1 MLE, tail ``(d + 1)^(-pi)``)."""

    name = "pareto"

    def __init__(self) -> None:
        self.shape: float | None = None

    def fit(self, jumps: Sequence[float]) -> "ParetoMovement":
        self.shape = fit_pareto_shape(list(jumps))
        return self

    def tail(self, distance_km):
        if self.shape is None:
            raise NotFittedError("ParetoMovement.fit must be called first")
        return (np.asarray(distance_km, dtype=float) + 1.0) ** (-self.shape)


class ExponentialMovement(MovementModel):
    """Exponential jumps: MLE rate ``1 / mean``; tail ``exp(-rate * d)``."""

    name = "exponential"

    def __init__(self) -> None:
        self.rate: float | None = None

    def fit(self, jumps: Sequence[float]) -> "ExponentialMovement":
        array = _validate_jumps(jumps)
        mean = float(array.mean())
        # All-zero jumps degenerate to "never travels", mirroring the
        # Pareto DEGENERATE_SHAPE convention.
        self.rate = MAX_SHAPE if mean <= 0.0 else 1.0 / mean
        return self

    def tail(self, distance_km):
        if self.rate is None:
            raise NotFittedError("ExponentialMovement.fit must be called first")
        return np.exp(-self.rate * np.asarray(distance_km, dtype=float))


class LognormalMovement(MovementModel):
    """Lognormal over shifted jumps ``x = d + 1``: MLE of ``mu, sigma``."""

    name = "lognormal"

    #: Floor on sigma so a constant history still yields a proper tail.
    MIN_SIGMA = 1e-3

    def __init__(self) -> None:
        self.mu: float | None = None
        self.sigma: float | None = None

    def fit(self, jumps: Sequence[float]) -> "LognormalMovement":
        array = _validate_jumps(jumps)
        logs = np.log(array + 1.0)
        self.mu = float(logs.mean())
        self.sigma = max(float(logs.std()), self.MIN_SIGMA)
        return self

    def tail(self, distance_km):
        if self.mu is None or self.sigma is None:
            raise NotFittedError("LognormalMovement.fit must be called first")
        z = (np.log(np.asarray(distance_km, dtype=float) + 1.0) - self.mu) / self.sigma
        # Survival function of the standard normal.
        return 0.5 * special.erfc(z / math.sqrt(2.0))


class RayleighMovement(MovementModel):
    """Rayleigh jumps (2-d Gaussian displacement): MLE ``sigma^2 = mean(d^2)/2``."""

    name = "rayleigh"

    #: Floor on sigma^2, for the all-zero-jump degenerate history.
    MIN_SIGMA_SQ = 1e-6

    def __init__(self) -> None:
        self.sigma_sq: float | None = None

    def fit(self, jumps: Sequence[float]) -> "RayleighMovement":
        array = _validate_jumps(jumps)
        self.sigma_sq = max(float((array**2).mean()) / 2.0, self.MIN_SIGMA_SQ)
        return self

    def tail(self, distance_km):
        if self.sigma_sq is None:
            raise NotFittedError("RayleighMovement.fit must be called first")
        d = np.asarray(distance_km, dtype=float)
        return np.exp(-(d * d) / (2.0 * self.sigma_sq))


#: Registry used by configuration surfaces (CLI, experiment settings).
MOVEMENT_FAMILIES: dict[str, type[MovementModel]] = {
    cls.name: cls
    for cls in (ParetoMovement, ExponentialMovement, LognormalMovement, RayleighMovement)
}


def make_movement_model(family: str) -> MovementModel:
    """Instantiate a movement family by name; raises on unknown names."""
    try:
        return MOVEMENT_FAMILIES[family]()
    except KeyError:
        raise ValueError(
            f"unknown movement family {family!r}; choose from {sorted(MOVEMENT_FAMILIES)}"
        ) from None


class GeneralizedHistoricalAcceptance:
    """Eq. 2 willingness with a pluggable movement family.

    With ``family="pareto"`` this is numerically identical to
    :class:`~repro.willingness.historical_acceptance.HistoricalAcceptance`;
    the other families quantify how sensitive downstream influence (and the
    assignment metrics) are to the paper's self-similarity assumption.
    """

    def __init__(
        self, family: str = "pareto", restart: float = 0.15, min_history: int = 2
    ) -> None:
        if family not in MOVEMENT_FAMILIES:
            raise ValueError(
                f"unknown movement family {family!r}; choose from {sorted(MOVEMENT_FAMILIES)}"
            )
        self.family = family
        self.restart = restart
        self.min_history = min_history
        self._stationary: dict[int, StationaryDistribution] = {}
        self._movement: dict[int, MovementModel] = {}
        self._worker_ids: list[int] = []
        self._fitted = False

    def fit(self, histories: Mapping[int, TaskHistory]) -> "GeneralizedHistoricalAcceptance":
        """Fit one (stationary distribution, movement model) pair per worker."""
        self._stationary.clear()
        self._movement.clear()
        self._worker_ids = sorted(histories)
        eligible = [
            w for w in self._worker_ids if len(histories[w]) >= self.min_history
        ]
        sequences = [histories[w].locations for w in eligible]
        stationaries = stationary_distributions(sequences, restart=self.restart)
        for worker_id, locations, stationary in zip(eligible, sequences, stationaries):
            jumps = [a.distance_to(b) for a, b in zip(locations, locations[1:])]
            self._stationary[worker_id] = stationary
            self._movement[worker_id] = make_movement_model(self.family).fit(jumps)
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("GeneralizedHistoricalAcceptance.fit must be called first")

    @property
    def worker_ids(self) -> list[int]:
        """All worker ids seen at fit time, sorted."""
        self._require_fitted()
        return list(self._worker_ids)

    def willingness(self, worker_id: int, target: Point) -> float:
        """``P_wil(w, s)`` for one pair (0.0 for workers without a model)."""
        self._require_fitted()
        stationary = self._stationary.get(worker_id)
        if stationary is None:
            return 0.0
        movement = self._movement[worker_id]
        xy = np.array([(p.x, p.y) for p in stationary.locations])
        distance = np.hypot(xy[:, 0] - target.x, xy[:, 1] - target.y)
        tails = np.asarray(movement.tail(distance))
        return float(np.asarray(stationary.probabilities) @ tails)

    def willingness_all(self, target: Point) -> np.ndarray:
        """``P_wil(w, s)`` for every worker against one location."""
        self._require_fitted()
        return np.array([self.willingness(w, target) for w in self._worker_ids])
