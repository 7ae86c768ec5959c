"""Worker willingness via Historical Acceptance (paper Section III-B).

``P_wil(w, s)`` — the probability that worker ``w`` travels to task ``s`` —
combines (1) a Random-Walk-with-Restart stationary distribution over the
worker's historical task locations with (2) a Pareto-tailed movement
probability whose shape is fitted per worker by maximum likelihood (Eq. 1),
yielding Eq. 2:

    P_wil(w, s) = sum_i  P_w(w, s_i) * (d(s_i, s) + 1)^(-pi_w)
"""

from repro.willingness.rwr import (
    StationaryDistribution,
    random_walk_with_restart,
    stationary_distributions,
)
from repro.willingness.pareto import fit_pareto_shape, pareto_tail_probability
from repro.willingness.historical_acceptance import HistoricalAcceptance, WorkerMobilityModel
from repro.willingness.movement import (
    MOVEMENT_FAMILIES,
    ExponentialMovement,
    GeneralizedHistoricalAcceptance,
    LognormalMovement,
    MovementModel,
    ParetoMovement,
    RayleighMovement,
    make_movement_model,
)

__all__ = [
    "StationaryDistribution",
    "random_walk_with_restart",
    "stationary_distributions",
    "fit_pareto_shape",
    "pareto_tail_probability",
    "HistoricalAcceptance",
    "WorkerMobilityModel",
    "MovementModel",
    "ParetoMovement",
    "ExponentialMovement",
    "LognormalMovement",
    "RayleighMovement",
    "MOVEMENT_FAMILIES",
    "make_movement_model",
    "GeneralizedHistoricalAcceptance",
]
