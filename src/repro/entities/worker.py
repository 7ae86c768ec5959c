"""Workers (paper Definition 2)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geo import Point


@dataclass(frozen=True, slots=True)
class Worker:
    """A worker ``w = (l, r)`` with a location and a reachable radius.

    The reachable range of a worker is the circle centred at ``location``
    with radius ``reachable_km`` within which the worker accepts assignments.

    Attributes
    ----------
    worker_id:
        Unique identifier; doubles as the node id in the social network.
    location:
        Current location ``w.l`` (planar km).
    reachable_km:
        Reachable radius ``w.r`` in kilometres.
    speed_kmh:
        Travel speed; the paper sets a common 5 km/h but the algorithms
        support per-worker speeds.
    """

    worker_id: int
    location: Point
    reachable_km: float
    speed_kmh: float = 5.0

    def __post_init__(self) -> None:
        if not (0 <= self.reachable_km < math.inf):
            raise ValueError(f"reachable_km must be finite and >= 0, got {self.reachable_km}")
        if not (0 < self.speed_kmh < math.inf):
            raise ValueError(f"speed_kmh must be finite and > 0, got {self.speed_kmh}")
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise ValueError(f"worker location must be finite, got {self.location}")

    def can_reach(self, point: Point) -> bool:
        """Return whether ``point`` lies within the worker's reachable circle."""
        return self.location.distance_to(point) <= self.reachable_km

    def travel_hours_to(self, point: Point) -> float:
        """Return the travel time in hours from the worker to ``point``."""
        return self.location.distance_to(point) / self.speed_kmh

    def with_radius(self, reachable_km: float) -> "Worker":
        """Return a copy with a different reachable radius (for r sweeps)."""
        return Worker(
            worker_id=self.worker_id,
            location=self.location,
            reachable_km=reachable_km,
            speed_kmh=self.speed_kmh,
        )

    def moved_to(self, location: Point) -> "Worker":
        """Return a copy relocated to ``location``."""
        return Worker(
            worker_id=self.worker_id,
            location=location,
            reachable_km=self.reachable_km,
            speed_kmh=self.speed_kmh,
        )
