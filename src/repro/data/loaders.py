"""Loaders for the real SNAP-format Brightkite/FourSquare dumps.

These let the identical pipeline run on the paper's genuine datasets when
they are available on disk.  Formats supported:

* **edges file** — one undirected edge per line: ``user_a<TAB>user_b``;
* **check-ins file** — ``user<TAB>iso_time<TAB>lat<TAB>lon<TAB>venue_id`` per
  line (the SNAP ``loc-brightkite_totalCheckins.txt`` layout);
* optional **categories file** — ``venue_id<TAB>cat1,cat2,...`` per line
  (the paper obtained these through the FourSquare API).

Latitude/longitude pairs are projected to a local planar kilometre frame
with an equirectangular projection around the dataset centroid, which is
accurate at city scale and keeps the rest of the library purely Euclidean.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from repro.data.dataset import CheckInDataset, Venue
from repro.entities import CheckIn
from repro.exceptions import DataError
from repro.geo.distance import EARTH_RADIUS_KM


def load_snap_edges(path: str | Path) -> list[tuple[int, int]]:
    """Parse a SNAP edge list (``user_a<TAB>user_b`` per line).

    Blank lines and ``#`` comments are skipped; malformed lines raise
    :class:`DataError` with the offending line number.
    """
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected two fields, got {len(parts)}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer user id") from exc
    return edges


def _parse_time_hours(token: str, epoch: datetime | None) -> tuple[float, datetime]:
    """Parse an ISO timestamp into hours since ``epoch`` (establishing the
    epoch from the first record when ``epoch`` is None)."""
    token = token.replace("Z", "+00:00")
    moment = datetime.fromisoformat(token)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    if epoch is None:
        epoch = moment.replace(hour=0, minute=0, second=0, microsecond=0)
    delta = moment - epoch
    return delta.total_seconds() / 3600.0, epoch


def load_snap_checkins(
    path: str | Path,
    categories: Mapping[str, tuple[str, ...]] | None = None,
) -> tuple[list[CheckIn], dict[int, Venue], dict[str, int]]:
    """Parse a SNAP check-ins file.

    Returns ``(checkins, venues, venue_key_to_id)``.  Venue string keys are
    mapped to dense integer ids; lat/lon coordinates are projected to planar
    kilometres around the dataset centroid.  ``categories`` optionally maps
    the *original* venue key to its category labels.
    """
    rows: list[tuple[int, float, float, float, str]] = []
    epoch: datetime | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) < 5:
                raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            try:
                user_id = int(parts[0])
                hours, epoch = _parse_time_hours(parts[1], epoch)
                lat, lon = float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed record") from exc
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise DataError(
                    f"{path}:{lineno}: non-finite coordinates lat={lat}, lon={lon}"
                )
            rows.append((user_id, hours, lat, lon, parts[4]))

    if not rows:
        raise DataError(f"{path}: no check-in records")

    mean_lat = sum(r[2] for r in rows) / len(rows)
    mean_lon = sum(r[3] for r in rows) / len(rows)
    cos_lat = math.cos(math.radians(mean_lat))

    def project(lat: float, lon: float) -> tuple[float, float]:
        x = math.radians(lon - mean_lon) * EARTH_RADIUS_KM * cos_lat
        y = math.radians(lat - mean_lat) * EARTH_RADIUS_KM
        return x, y

    venue_key_to_id: dict[str, int] = {}
    venues: dict[int, Venue] = {}
    checkins: list[CheckIn] = []
    min_hours = min(r[1] for r in rows)
    from repro.geo import Point  # local import to avoid cycle at module load

    for user_id, hours, lat, lon, venue_key in rows:
        if venue_key not in venue_key_to_id:
            venue_id = len(venue_key_to_id)
            venue_key_to_id[venue_key] = venue_id
            x, y = project(lat, lon)
            cats = tuple(categories.get(venue_key, ())) if categories else ()
            venues[venue_id] = Venue(venue_id=venue_id, location=Point(x, y), categories=cats)
        venue_id = venue_key_to_id[venue_key]
        checkins.append(
            CheckIn(
                user_id=user_id,
                venue_id=venue_id,
                location=venues[venue_id].location,
                time=hours - min_hours,
                categories=venues[venue_id].categories,
            )
        )
    return checkins, venues, venue_key_to_id


def load_venue_categories(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parse a ``venue_key<TAB>cat1,cat2,...`` categories file."""
    mapping: dict[str, tuple[str, ...]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected two tab-separated fields")
            mapping[parts[0]] = tuple(c.strip() for c in parts[1].split(",") if c.strip())
    return mapping


def load_dataset_from_snap(
    name: str,
    edges_path: str | Path,
    checkins_path: str | Path,
    categories_path: str | Path | None = None,
) -> CheckInDataset:
    """Assemble a :class:`CheckInDataset` from SNAP-format files.

    Social edges referencing users with no check-ins are dropped (the SNAP
    dumps contain users who never checked in; they cannot act as workers).
    """
    categories = load_venue_categories(categories_path) if categories_path else None
    checkins, venues, _ = load_snap_checkins(checkins_path, categories)
    users = {c.user_id for c in checkins}
    edges = [(u, v) for u, v in load_snap_edges(edges_path) if u in users and v in users]
    return CheckInDataset.build(
        name=name,
        venues=venues.values(),
        checkins=checkins,
        social_edges=edges,
        user_ids=users,
    )
