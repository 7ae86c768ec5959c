"""Spatial tasks (paper Definition 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geo import Point


@dataclass(frozen=True, slots=True)
class Task:
    """A spatial task ``s = (l, p, phi, C)``.

    Attributes
    ----------
    task_id:
        Unique identifier within an instance.
    location:
        Task location ``s.l`` in planar km coordinates.
    publication_time:
        ``s.p`` — the time (hours since epoch of the instance) at which the
        task becomes available.
    valid_hours:
        ``s.phi`` — the task expires at ``publication_time + valid_hours``.
    categories:
        ``s.C`` — the task's category labels (e.g. venue categories).
    venue_id:
        Optional id of the venue the task was derived from; ties the task to
        historical visit counts for location entropy.
    """

    task_id: int
    location: Point
    publication_time: float
    valid_hours: float
    categories: tuple[str, ...] = field(default=())
    venue_id: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.publication_time):
            raise ValueError(f"publication_time must be finite, got {self.publication_time}")
        if not (0 <= self.valid_hours < math.inf):
            raise ValueError(f"valid_hours must be finite and >= 0, got {self.valid_hours}")
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise ValueError(f"task location must be finite, got {self.location}")

    @property
    def expiry_time(self) -> float:
        """The deadline ``s.p + s.phi`` after which the task cannot be done."""
        return self.publication_time + self.valid_hours

    def is_expired_at(self, time: float) -> bool:
        """Return whether the task has expired at ``time``."""
        return time > self.expiry_time

    def with_valid_hours(self, valid_hours: float) -> "Task":
        """Return a copy with a different validity window (for ϕ sweeps)."""
        return Task(
            task_id=self.task_id,
            location=self.location,
            publication_time=self.publication_time,
            valid_hours=valid_hours,
            categories=self.categories,
            venue_id=self.venue_id,
        )
