"""Tests for repro.obs.prom — exposition rendering and the /metrics server."""

import urllib.error
import urllib.request

import pytest

from repro.assignment import MTAAssigner
from repro.exceptions import DataError
from repro.obs import Observability
from repro.obs.histo import SECONDS_HISTOGRAM
from repro.obs.prom import MetricsServer, render_prometheus, validate_exposition
from repro.obs.registry import MetricsRegistry
from repro.stream import StreamRuntime, TimeWindowTrigger, synthetic_stream


def sample_registry():
    registry = MetricsRegistry()
    registry.counter("repro_rounds_total", "rounds executed").inc(3)
    registry.gauge("repro_online_workers", "live workers").set(12)
    phases = registry.histogram(
        "repro_phase_seconds", "per-phase seconds", labels=("phase",),
        **SECONDS_HISTOGRAM,
    )
    phases.labels("solve").record(0.25)
    phases.labels("drain").record(0.0125)
    return registry


class TestRender:
    def test_help_type_and_samples(self):
        text = render_prometheus(sample_registry())
        assert "# HELP repro_rounds_total rounds executed" in text
        assert "# TYPE repro_rounds_total counter" in text
        assert "repro_rounds_total 3.0" in text
        assert "# TYPE repro_phase_seconds histogram" in text
        assert 'repro_phase_seconds_bucket{phase="solve",le="+Inf"} 1' in text
        assert 'repro_phase_seconds_count{phase="solve"} 1' in text

    def test_render_passes_its_own_validator(self):
        validate_exposition(render_prometheus(sample_registry()))

    def test_empty_registry_renders_empty(self):
        text = render_prometheus(MetricsRegistry())
        assert text == "\n"
        validate_exposition(text)

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("bad name")
        with pytest.raises(ValueError, match="invalid metric name"):
            render_prometheus(registry)


class TestValidateExposition:
    def test_rejects_malformed_sample(self):
        with pytest.raises(DataError, match="malformed sample"):
            validate_exposition("not a metric line\n")

    def test_rejects_bad_comment(self):
        with pytest.raises(DataError, match="malformed comment"):
            validate_exposition("# NOPE foo bar\n")

    def test_rejects_bad_type(self):
        with pytest.raises(DataError, match="bad TYPE"):
            validate_exposition("# TYPE repro_x flurble\n")

    def test_rejects_unquoted_label_value(self):
        with pytest.raises(DataError, match="label pair"):
            validate_exposition("repro_x{phase=solve} 1\n")

    def test_histogram_contract_enforced(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1.0"} 1\n'
            "repro_h_sum 1.0\n"
            "repro_h_count 1\n"
        )
        with pytest.raises(DataError, match=r"\+Inf"):
            validate_exposition(text)


class TestMetricsServer:
    def test_live_scrape_on_ephemeral_port(self):
        registry = sample_registry()
        with MetricsServer(registry, port=0) as server:
            assert server.port > 0
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
                assert content_type.startswith("text/plain")
                assert "version=0.0.4" in content_type
                body = response.read().decode("utf-8")
        validate_exposition(body)
        assert "repro_rounds_total 3.0" in body

    def test_scrape_reflects_live_updates(self):
        registry = sample_registry()
        with MetricsServer(registry, port=0) as server:
            registry.counter("repro_rounds_total").inc(7)
            with urllib.request.urlopen(server.url, timeout=5) as response:
                body = response.read().decode("utf-8")
        assert "repro_rounds_total 10.0" in body

    def test_non_metrics_path_is_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            other = server.url.replace("/metrics", "/other")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(other, timeout=5)
            assert info.value.code == 404

    def test_close_is_idempotent(self):
        server = MetricsServer(MetricsRegistry(), port=0).start()
        server.close()
        server.close()


class TestStreamRuntimeExposition:
    def test_scrape_before_the_first_round_shows_every_family(self):
        """The runtime registers its families at construction, so a scrape
        that lands before any round already validates and counts zero."""
        base, log = synthetic_stream(20, 20, duration_hours=2.0, seed=5)
        registry = MetricsRegistry()
        with StreamRuntime(
            MTAAssigner(), None, TimeWindowTrigger(0.5), base, log,
            obs=Observability(registry=registry),
        ) as runtime:
            text = render_prometheus(registry)
            validate_exposition(text)
            assert "\nrepro_stream_rounds_total 0.0\n" in text
            assert 'repro_stream_phase_seconds_count{phase="solve"} 0' in text
            runtime.run(max_rounds=1)
            text = render_prometheus(registry)
        validate_exposition(text)
        assert "\nrepro_stream_rounds_total 1.0\n" in text
