"""Tests for the pipeline's model-ablation knobs (affinity / movement / LT)."""

import numpy as np
import pytest

from repro import DITAPipeline, IAAssigner, PipelineConfig, PreparedInstance
from repro.affinity import AffinityModel, TfidfAffinity
from repro.exceptions import ConfigurationError
from repro.willingness import GeneralizedHistoricalAcceptance, HistoricalAcceptance


def fast_config(**overrides) -> PipelineConfig:
    defaults = dict(
        num_topics=6, propagation_mode="fixed", num_rrr_sets=800, seed=42
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestConfigValidation:
    def test_unknown_affinity_engine(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(affinity_engine="bm25")

    def test_unknown_movement_family(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(movement_family="levy")

    def test_unknown_propagation_model(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(propagation_model="sir")

    def test_lt_requires_fixed_mode(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(propagation_model="lt", propagation_mode="rpo")
        # And is accepted with fixed sampling.
        config = PipelineConfig(propagation_model="lt", propagation_mode="fixed")
        assert config.propagation_model == "lt"

    def test_defaults_are_paper_choices(self):
        config = PipelineConfig()
        assert config.affinity_engine == "lda"
        assert config.movement_family == "pareto"
        assert config.propagation_model == "ic"


class TestPipelineEngines:
    def test_tfidf_engine_selected(self, tiny_instance):
        models = DITAPipeline(fast_config(affinity_engine="tfidf")).fit(tiny_instance)
        assert isinstance(models.affinity, TfidfAffinity)

    def test_lda_affinity_selected(self, tiny_instance):
        models = DITAPipeline(fast_config()).fit(tiny_instance)
        assert isinstance(models.affinity, AffinityModel)

    def test_pareto_uses_reference_ha(self, tiny_instance):
        models = DITAPipeline(fast_config()).fit(tiny_instance)
        assert isinstance(models.willingness, HistoricalAcceptance)

    def test_alternative_movement_family(self, tiny_instance):
        models = DITAPipeline(fast_config(movement_family="exponential")).fit(
            tiny_instance
        )
        assert isinstance(models.willingness, GeneralizedHistoricalAcceptance)
        assert models.willingness.family == "exponential"

    @pytest.mark.parametrize("family", ["exponential", "lognormal", "rayleigh"])
    def test_assignment_runs_with_every_family(self, tiny_instance, family):
        models = DITAPipeline(fast_config(movement_family=family)).fit(tiny_instance)
        prepared = PreparedInstance(tiny_instance, models.influence_model())
        assignment = IAAssigner().assign(prepared)
        assert len(assignment) > 0

    def test_lt_propagation_runs_end_to_end(self, tiny_instance):
        models = DITAPipeline(
            fast_config(propagation_model="lt")
        ).fit(tiny_instance)
        prepared = PreparedInstance(tiny_instance, models.influence_model())
        assignment = IAAssigner().assign(prepared)
        assert len(assignment) > 0

    def test_lt_and_ic_sample_different_collections(self, tiny_instance):
        """The two diffusion models produce genuinely different RRR sets
        (same seed, same graph), and both cover at least the roots."""
        ic = DITAPipeline(fast_config()).fit(tiny_instance).propagation
        lt = DITAPipeline(fast_config(propagation_model="lt")).fit(
            tiny_instance
        ).propagation
        assert len(ic) == len(lt)
        assert ic.coverage_fraction().max() > 0
        assert lt.coverage_fraction().max() > 0
        different = any(
            len(a) != len(b) or (a != b).any()
            for a, b in zip(ic.members, lt.members)
        )
        assert different

    def test_tfidf_and_lda_produce_different_influence(self, tiny_instance):
        lda = DITAPipeline(fast_config()).fit(tiny_instance)
        tfidf = DITAPipeline(fast_config(affinity_engine="tfidf")).fit(tiny_instance)
        lda_matrix = PreparedInstance(
            tiny_instance, lda.influence_model()
        ).influence_matrix
        tfidf_matrix = PreparedInstance(
            tiny_instance, tfidf.influence_model()
        ).influence_matrix
        assert lda_matrix.shape == tfidf_matrix.shape
        assert not np.allclose(lda_matrix, tfidf_matrix)


class TestEdgeModelKnob:
    def test_malformed_edge_models_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(edge_model="wc")
        with pytest.raises(ConfigurationError):
            PipelineConfig(edge_model="uniform:abc")
        with pytest.raises(ConfigurationError):
            PipelineConfig(edge_model="uniform:0.0")

    def test_parsed_edge_model(self):
        assert PipelineConfig().parsed_edge_model() == "indegree"
        assert PipelineConfig(edge_model="trivalency").parsed_edge_model() == "trivalency"
        assert PipelineConfig(edge_model="uniform:0.25").parsed_edge_model() == (
            "uniform", 0.25,
        )

    @pytest.mark.parametrize("edge_model", ["trivalency", "uniform:0.2"])
    def test_pipeline_runs_with_edge_model(self, tiny_instance, edge_model):
        models = DITAPipeline(fast_config(edge_model=edge_model)).fit(tiny_instance)
        prepared = PreparedInstance(tiny_instance, models.influence_model())
        assignment = IAAssigner().assign(prepared)
        assert len(assignment) > 0

    def test_edge_model_changes_propagation(self, tiny_instance):
        indegree = DITAPipeline(fast_config()).fit(tiny_instance).propagation
        uniform = DITAPipeline(
            fast_config(edge_model="uniform:0.05")
        ).fit(tiny_instance).propagation
        # Sparse uniform arcs produce much smaller reverse-reachable sets.
        mean = lambda c: sum(len(m) for m in c.members) / len(c)
        assert mean(uniform) < mean(indegree)
