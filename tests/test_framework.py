"""Tests for the DITA framework: config, pipeline, metrics, simulator."""

import pytest

from repro.assignment import IAAssigner, MIAssigner, MTAAssigner
from repro.entities import Assignment
from repro.exceptions import ConfigurationError
from repro.framework import (
    DITAPipeline,
    PaperDefaults,
    PipelineConfig,
    Simulator,
    evaluate_assignment,
)
from repro.assignment.base import PreparedInstance


class TestPaperDefaults:
    def test_table_two_values(self):
        defaults = PaperDefaults()
        assert defaults.num_tasks == 1500
        assert defaults.num_workers == 1200
        assert defaults.valid_hours == 5.0
        assert defaults.reachable_km == 25.0
        assert defaults.speed_kmh == 5.0
        assert defaults.num_topics == 50
        assert defaults.epsilon == 0.1
        assert defaults.o == 1.0

    def test_sweep_grids(self):
        defaults = PaperDefaults()
        assert defaults.task_sweep == (500, 1000, 1500, 2000, 2500)
        assert defaults.worker_sweep == (400, 800, 1200, 1600, 2000)
        assert defaults.valid_hours_sweep == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert defaults.radius_sweep == (5.0, 10.0, 15.0, 20.0, 25.0)


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(propagation_mode="wormhole")
        with pytest.raises(ConfigurationError):
            PipelineConfig(num_topics=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(num_rrr_sets=0)

    def test_fast_variant(self):
        fast = PipelineConfig(num_topics=50, num_rrr_sets=50_000).fast()
        assert fast.propagation_mode == "fixed"
        assert fast.num_rrr_sets <= 2000
        assert fast.num_topics <= 10


class TestDITAPipeline:
    def test_fit_produces_all_components(self, tiny_instance, fast_config):
        fitted = DITAPipeline(fast_config).fit(tiny_instance)
        assert fitted.graph.num_workers == len(tiny_instance.all_worker_ids)
        assert len(fitted.propagation) == fast_config.num_rrr_sets
        assert fitted.affinity is not None
        assert fitted.willingness is not None

    def test_rpo_mode_runs(self, tiny_instance):
        config = PipelineConfig(
            num_topics=3, propagation_mode="rpo", epsilon=0.4,
            max_rrr_sets=3000, seed=1,
        )
        fitted = DITAPipeline(config).fit(tiny_instance)
        assert len(fitted.propagation) > 0

    def test_influence_models_share_components(self, fitted_models):
        full = fitted_models.influence_model()
        from repro.influence import InfluenceComponents

        ablated = fitted_models.influence_model(InfluenceComponents.without_affinity())
        assert full.affinity is ablated.affinity
        assert full.propagation is ablated.propagation


class TestMetrics:
    def test_empty_assignment_all_zero(self, prepared):
        result = evaluate_assignment("X", Assignment(), prepared)
        assert result.num_assigned == 0
        assert result.average_influence == 0.0
        assert result.average_propagation == 0.0
        assert result.average_travel_km == 0.0

    def test_metrics_row_keys(self, prepared):
        result = evaluate_assignment("X", Assignment(), prepared, cpu_seconds=0.5)
        row = result.as_row()
        assert set(row) == {"algorithm", "assigned", "AI", "AP", "travel_km", "cpu_s"}
        assert row["cpu_s"] == 0.5

    def test_average_influence_matches_manual(self, prepared, full_influence):
        assignment = IAAssigner().assign(prepared)
        result = evaluate_assignment("IA", assignment, prepared)
        manual = sum(
            full_influence.influence(p.worker, p.task) for p in assignment
        ) / len(assignment)
        assert result.average_influence == pytest.approx(manual, rel=1e-9)

    def test_average_propagation_matches_manual(self, prepared, full_influence):
        assignment = IAAssigner().assign(prepared)
        result = evaluate_assignment("IA", assignment, prepared)
        manual = sum(
            full_influence.propagation_to_others(p.worker.worker_id) for p in assignment
        ) / len(assignment)
        assert result.average_propagation == pytest.approx(manual, rel=1e-9)

    def test_travel_metric_matches_assignment(self, prepared):
        assignment = IAAssigner().assign(prepared)
        result = evaluate_assignment("IA", assignment, prepared)
        assert result.average_travel_km == pytest.approx(assignment.average_travel_km())

    def test_percentiles_share_the_obs_histogram(self):
        """Batch percentile math goes through obs.histo, same error bound."""
        from repro.framework import cpu_time_percentiles, latency_percentiles
        from repro.obs.histo import SECONDS_HISTOGRAM, LogHistogram

        samples = [0.01, 0.02, 0.04, 0.08, 0.5]
        oracle = LogHistogram(**SECONDS_HISTOGRAM)
        for value in samples:
            oracle.record(value)
        assert latency_percentiles(samples, (50.0, 99.0)) == (
            oracle.percentiles((50.0, 99.0))
        )

        from repro.framework import MetricsResult

        results = [
            MetricsResult("X", 1, 0.0, 0.0, 0.0, cpu_seconds=value)
            for value in samples
        ]
        assert cpu_time_percentiles(results, (50.0,)) == (
            oracle.percentiles((50.0,))
        )


class TestSimulator:
    def test_scoring_model_validated(self):
        with pytest.raises(ValueError):
            Simulator(scoring_model="imaginary")

    def test_run_instance_returns_per_algorithm(self, tiny_instance, fast_config, full_influence):
        simulator = Simulator(fast_config)
        results = simulator.run_instance(
            tiny_instance,
            [MTAAssigner(), IAAssigner(), MIAssigner()],
            influence_model=full_influence,
            full_model=full_influence,
        )
        assert [r.algorithm for r in results] == ["MTA", "IA", "MI"]
        assert all(r.cpu_seconds >= 0.0 for r in results)

    def test_run_instance_fits_when_models_missing(self, tiny_instance, fast_config):
        simulator = Simulator(fast_config)
        results = simulator.run_instance(tiny_instance, [MTAAssigner()])
        assert results[0].num_assigned > 0

    def test_run_days_averages(self, tiny_builder, fast_config):
        instances = [tiny_builder.build_day(d) for d in (5, 6)]
        simulator = Simulator(fast_config)
        averaged = simulator.run_days(instances, [MTAAssigner(), IAAssigner()])
        assert set(averaged) == {"MTA", "IA"}
        assert averaged["IA"].num_assigned > 0

    def test_algorithm_run_average_empty(self):
        from repro.framework.simulator import AlgorithmRun

        run = AlgorithmRun("X")
        averaged = run.average()
        assert averaged.num_assigned == 0 and averaged.average_influence == 0.0
