"""Location entropy (paper Section IV-B).

For a task location with historical visitors ``W_s`` and visit counts
``Num_w`` (total ``Num_s``):

    s.e = - sum_{w in W_s} P_s(w) * ln P_s(w),    P_s(w) = Num_w / Num_s

Low entropy means visits concentrate on few workers, so EIA prioritizes
such tasks (they are hard to get done opportunistically).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.entities import Task


def location_entropy(visit_counts: Mapping[int, int]) -> float:
    """Entropy of the visitor distribution of one location.

    ``visit_counts`` maps worker id to visit count; zero-count entries are
    ignored.  An unvisited location has entropy 0 by convention.
    """
    total = sum(c for c in visit_counts.values() if c > 0)
    if total <= 0:
        return 0.0
    entropy = 0.0
    for count in visit_counts.values():
        if count <= 0:
            continue
        p = count / total
        entropy -= p * math.log(p)
    return entropy


class VenueEntropy:
    """Location entropy of a task, looked up through its venue and computed
    once per venue.

    A task without a venue or without history gets entropy 0.  The cache
    holds at most one value per venue of ``venue_visits``, which must not
    change while the object is in use.
    """

    def __init__(self, venue_visits: Mapping[int, Mapping[int, int]]) -> None:
        self.venue_visits = venue_visits
        self._by_venue: dict[int, float] = {}

    def __call__(self, task: Task) -> float:
        venue = task.venue_id
        if venue is None:
            return 0.0
        entropy = self._by_venue.get(venue)
        if entropy is None:
            visits = self.venue_visits.get(venue)
            entropy = self._by_venue[venue] = location_entropy(visits) if visits else 0.0
        return entropy


def entropy_of_tasks(
    tasks: Sequence[Task], venue_visits: Mapping[int, Mapping[int, int]]
) -> dict[int, float]:
    """Location entropy per task id (see :class:`VenueEntropy`)."""
    entropy = VenueEntropy(venue_visits)
    return {task.task_id: entropy(task) for task in tasks}
