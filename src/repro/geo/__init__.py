"""Spatial primitives: points, distances, bounding boxes, and a grid index.

This subpackage is the geometric substrate for the whole library.  The paper
measures distances in kilometres over city-scale regions, so the default
metric is Euclidean distance over planar (x, y) kilometre coordinates, with a
haversine implementation available for latitude/longitude data loaded from
the real Brightkite/FourSquare dumps.
"""

from repro.geo.point import Point
from repro.geo.distance import (
    euclidean,
    haversine_km,
    travel_time_hours,
    pairwise_euclidean,
    pairwise_euclidean_xy,
)
from repro.geo.bbox import BoundingBox
from repro.geo.grid import GridIndex, cell_gap_km, cell_key

__all__ = [
    "Point",
    "BoundingBox",
    "GridIndex",
    "cell_key",
    "cell_gap_km",
    "euclidean",
    "haversine_km",
    "travel_time_hours",
    "pairwise_euclidean",
    "pairwise_euclidean_xy",
]
