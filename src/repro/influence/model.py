"""The worker-task influence model (paper Section III-D).

The full influence of a candidate worker ``w_s`` for task ``s`` is

    if(w_s, s) = P_aff(w_s, s) * sum_{w_i != w_s} P_wil(w_i, s) * P_pro(w_s, w_i)

Each input is computed once, keyed by what it depends on.  The willingness
column ``P_wil(., s)`` depends only on the task's location, so it is cached
per location.  ``P_pro`` depends only on the RRR collection, which serves it
as one sparse ``|W| x |W|`` kernel (see
:meth:`~repro.propagation.RRRCollection.propagation_kernel`).  The inner sum
for every candidate and task of a call is then the candidates' kernel rows
times the call's willingness columns: one sparse/dense product.

Ablations (Section V-B1) drop one factor:

* ``IA-WP`` — no affinity:      ``if = sum_i P_wil * P_pro``
* ``IA-AP`` — no willingness:   ``if = P_aff * sigma(w_s)``
* ``IA-AW`` — no propagation:   ``if = P_aff * sum_{i != s} P_wil(w_i, s)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.affinity import AffinityModel
from repro.entities import Task, Worker
from repro.exceptions import ConfigurationError
from repro.geo import Point
from repro.propagation import RRRCollection, SocialGraph
from repro.willingness import HistoricalAcceptance


@dataclass(frozen=True)
class InfluenceComponents:
    """Which of the three factors participate (for the paper's ablations)."""

    affinity: bool = True
    willingness: bool = True
    propagation: bool = True

    def __post_init__(self) -> None:
        if not (self.affinity or self.willingness or self.propagation):
            raise ConfigurationError("at least one influence component is required")

    @staticmethod
    def full() -> "InfluenceComponents":
        """All three factors — the IA configuration."""
        return InfluenceComponents()

    @staticmethod
    def without_affinity() -> "InfluenceComponents":
        """IA-WP: willingness + propagation."""
        return InfluenceComponents(affinity=False)

    @staticmethod
    def without_willingness() -> "InfluenceComponents":
        """IA-AP: affinity + propagation."""
        return InfluenceComponents(willingness=False)

    @staticmethod
    def without_propagation() -> "InfluenceComponents":
        """IA-AW: affinity + willingness."""
        return InfluenceComponents(propagation=False)


class InfluenceModel:
    """Combines affinity, willingness and propagation into ``if(w, s)``.

    Parameters
    ----------
    graph:
        The social network over all workers.
    affinity / willingness:
        Fitted component models.
    propagation:
        The RRR collection estimating ``P_pro`` (from
        :class:`~repro.propagation.RPO` or fixed-count sampling).
    components:
        Ablation switch; defaults to the full model.
    """

    def __init__(
        self,
        graph: SocialGraph,
        affinity: AffinityModel,
        willingness: HistoricalAcceptance,
        propagation: RRRCollection,
        components: InfluenceComponents | None = None,
    ) -> None:
        self.graph = graph
        self.affinity = affinity
        self.willingness = willingness
        self.propagation = propagation
        self.components = components or InfluenceComponents.full()
        self._sigma_cache: np.ndarray | None = None
        # P_pro(w, w) for the self-term correction: the kernel's diagonal.
        self._self_pro: np.ndarray | None = None
        # Location-keyed willingness cache: the |W|-sized column P_wil(., l)
        # over all network workers and its total.  The column depends only on
        # the task location, so tasks sharing a location (and successive
        # online rounds re-seeing the same open tasks) pay for it once.
        self._wil_columns: dict[Point, tuple[np.ndarray, float]] = {}
        self._rows_in_graph: np.ndarray | None = None
        self._propagation_version = propagation.version

    #: Soft cap on cached location columns; beyond it the oldest entries are
    #: evicted (insertion order).  Bounds memory on long multi-day runs where
    #: expired tasks never return, while keeping every open task warm.
    MAX_CACHED_TASK_COLUMNS = 4096

    # ---------------------------------------------------------------- helpers
    def _check_propagation_freshness(self) -> None:
        """Flush propagation-derived caches if the collection mutated."""
        if self.propagation.version != self._propagation_version:
            self._propagation_version = self.propagation.version
            self._sigma_cache = None
            self._self_pro = None

    def _sigma_all(self) -> np.ndarray:
        if self._sigma_cache is None:
            self._sigma_cache = self.propagation.sigma_all()
        return self._sigma_cache

    def _self_propagation(self) -> np.ndarray:
        if self._self_pro is None:
            self._self_pro = self.propagation.propagation_kernel().diagonal()
        return self._self_pro

    def _willingness_columns(
        self, tasks: Sequence[Task]
    ) -> list[tuple[np.ndarray, float]]:
        """The cached ``(P_wil(., s.l), total)`` of every task, filling the
        cache for each unseen location."""
        n = self.graph.num_workers
        if self._rows_in_graph is None:
            self._rows_in_graph = self.graph.indices_of(self.willingness.worker_ids)
        columns = []
        for task in tasks:
            entry = self._wil_columns.get(task.location)
            if entry is None:
                column = np.zeros(n)
                column[self._rows_in_graph] = self.willingness.willingness_all(
                    task.location
                )
                entry = self._wil_columns[task.location] = (
                    column, float(column.sum())
                )
            columns.append(entry)
        self._evict_stale_columns(tasks)
        return columns

    def _evict_stale_columns(self, tasks: Sequence[Task]) -> None:
        """Drop the oldest cached columns once past the soft cap, never
        evicting a location referenced by the current call."""
        cap = max(self.MAX_CACHED_TASK_COLUMNS, 2 * len(tasks))
        if len(self._wil_columns) <= cap:
            return
        keep = {task.location for task in tasks}
        for location in list(self._wil_columns):
            if len(self._wil_columns) <= cap:
                break
            if location not in keep:
                del self._wil_columns[location]

    # ------------------------------------------------------------------- API
    def sigma(self, worker_id: int) -> float:
        """Informed range of ``worker_id`` (the AP metric's per-worker term)."""
        return float(self._sigma_all()[self.graph.index_of(worker_id)])

    def propagation_to_others(self, worker_id: int) -> float:
        """``sum_{w_j != w} P_pro(w, w_j)`` — Equation 7's per-pair term.

        Equals the informed range minus the self term ``P_pro(w, w)``.
        """
        index = self.graph.index_of(worker_id)
        value = float(self._sigma_all()[index] - self._self_propagation()[index])
        return max(value, 0.0)

    def influence_matrix(
        self, workers: Sequence[Worker], tasks: Sequence[Task]
    ) -> np.ndarray:
        """``if(w, s)`` for every candidate worker x task: shape ``(C, T)``."""
        if not workers or not tasks:
            return np.zeros((len(workers), len(tasks)))
        self._check_propagation_freshness()
        candidate_idx = self.graph.indices_of([w.worker_id for w in workers])
        use = self.components

        if use.willingness:
            columns = self._willingness_columns(tasks)
            block = np.stack([column for column, _ in columns], axis=1)
            wil = block[candidate_idx]
            if use.propagation:
                # Candidate kernel rows times the |W| x T willingness block,
                # minus the self term w_i = w_s.
                kernel = self.propagation.propagation_kernel()
                inner = kernel[candidate_idx] @ block - (
                    self._self_propagation()[candidate_idx, None] * wil
                )
            else:
                # IA-AW: plain sum of other workers' willingness.
                totals = np.array([total for _, total in columns])
                inner = totals[None, :] - wil
        else:
            # IA-AP: propagation only — the informed range of the candidate.
            inner = np.repeat(
                self._sigma_all()[candidate_idx, None], len(tasks), axis=1
            )
        inner = np.maximum(inner, 0.0)

        if use.affinity:
            aff = self.affinity.affinity_matrix(
                [w.worker_id for w in workers], tasks
            )
            return aff * inner
        return inner

    def influence(self, worker: Worker, task: Task) -> float:
        """``if(w, s)`` for a single pair (convenience wrapper)."""
        return float(self.influence_matrix([worker], [task])[0, 0])
