"""Distance and travel-time computations.

The paper (Section V-A) measures travel cost with Euclidean distance and
assumes a common worker speed of 5 km/h, so travel time and distance are
interchangeable up to a constant.  ``haversine_km`` supports real
latitude/longitude check-in dumps.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geo.point import Point

#: Mean Earth radius in kilometres (IUGG value), used by :func:`haversine_km`.
EARTH_RADIUS_KM = 6371.0088

#: Default worker travel speed in km/h (paper Section V-A).
DEFAULT_SPEED_KMH = 5.0


def euclidean(a: Point, b: Point) -> float:
    """Return the Euclidean distance between two planar points (km)."""
    return math.hypot(a.x - b.x, a.y - b.y)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Return the great-circle distance between two lat/lon pairs in km.

    Used when loading real check-in datasets whose coordinates are WGS-84
    degrees; synthetic datasets use planar kilometre coordinates directly.
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlambda = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def travel_time_hours(a: Point, b: Point, speed_kmh: float = DEFAULT_SPEED_KMH) -> float:
    """Return the travel time in hours between ``a`` and ``b``.

    Raises :class:`ValueError` for a non-positive speed.
    """
    if speed_kmh <= 0.0:
        raise ValueError(f"speed_kmh must be positive, got {speed_kmh}")
    return euclidean(a, b) / speed_kmh


def pairwise_euclidean(points_a: Sequence[Point], points_b: Sequence[Point]) -> np.ndarray:
    """Return the ``len(points_a) x len(points_b)`` Euclidean distance matrix.

    Vectorized with numpy; used by the assignment-graph builder to test
    reachability of every worker-task pair in one shot.
    """
    if not points_a or not points_b:
        return np.zeros((len(points_a), len(points_b)))
    return pairwise_euclidean_xy(
        np.array([(p.x, p.y) for p in points_a], dtype=float),
        np.array([(p.x, p.y) for p in points_b], dtype=float),
    )


def pairwise_euclidean_xy(xy_a: np.ndarray, xy_b: np.ndarray) -> np.ndarray:
    """:func:`pairwise_euclidean` of two ``(n, 2)`` coordinate arrays."""
    diff = xy_a[:, None, :] - xy_b[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))
