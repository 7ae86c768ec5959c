"""The DITA pipeline: fit the influence components for one instance.

Mirrors Figure 2's "worker-task influence modeling" box: the historical
task-performing records train LDA (affinity) and Historical Acceptance
(willingness); the social network feeds IC-based RRR sampling (propagation);
the three are combined by :class:`~repro.influence.InfluenceModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.affinity import AffinityModel, TfidfAffinity
from repro.data.instance import SCInstance
from repro.framework.config import PipelineConfig
from repro.influence import InfluenceComponents, InfluenceModel
from repro.propagation import (
    RPO,
    RRRCollection,
    SocialGraph,
    sample_lt_rrr_sets_batched,
    sample_rrr_sets_batched,
)
from repro.willingness import GeneralizedHistoricalAcceptance, HistoricalAcceptance


@dataclass
class FittedModels:
    """Everything the pipeline fits for one instance."""

    graph: SocialGraph
    affinity: AffinityModel | TfidfAffinity
    willingness: HistoricalAcceptance | GeneralizedHistoricalAcceptance
    propagation: RRRCollection

    def influence_model(
        self, components: InfluenceComponents | None = None
    ) -> InfluenceModel:
        """Build an influence model (optionally an ablated one) on top of
        the fitted components — the components themselves are shared."""
        return InfluenceModel(
            graph=self.graph,
            affinity=self.affinity,
            willingness=self.willingness,
            propagation=self.propagation,
            components=components,
        )


class DITAPipeline:
    """Fits :class:`FittedModels` from an :class:`~repro.data.SCInstance`."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()

    def fit(self, instance: SCInstance) -> FittedModels:
        """Fit affinity, willingness and propagation for ``instance``."""
        graph = SocialGraph(
            instance.all_worker_ids,
            instance.social_edges,
            edge_probability=self.config.parsed_edge_model(),
            seed=self.config.seed,
        )

        if self.config.affinity_engine == "tfidf":
            affinity: AffinityModel | TfidfAffinity = TfidfAffinity().fit(
                instance.histories
            )
        else:
            affinity = AffinityModel(
                num_topics=self.config.num_topics, seed=self.config.seed
            ).fit(instance.histories)

        if self.config.movement_family == "pareto":
            willingness: HistoricalAcceptance | GeneralizedHistoricalAcceptance = (
                HistoricalAcceptance(restart=self.config.restart).fit(
                    instance.histories
                )
            )
        else:
            willingness = GeneralizedHistoricalAcceptance(
                family=self.config.movement_family, restart=self.config.restart
            ).fit(instance.histories)

        if self.config.propagation_mode == "rpo":
            rpo = RPO(
                epsilon=self.config.epsilon,
                o=self.config.o,
                max_sets=self.config.max_rrr_sets,
                seed=self.config.seed,
            )
            propagation = rpo.run(graph).collection
        else:
            rng = np.random.default_rng(self.config.seed)
            propagation = RRRCollection(num_workers=graph.num_workers)
            sampler = (
                sample_lt_rrr_sets_batched
                if self.config.propagation_model == "lt"
                else sample_rrr_sets_batched
            )
            roots, indptr, flat = sampler(graph, self.config.num_rrr_sets, rng)
            propagation.extend_flat(roots, indptr, flat)

        return FittedModels(
            graph=graph,
            affinity=affinity,
            willingness=willingness,
            propagation=propagation,
        )
