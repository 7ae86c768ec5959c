"""Tests for repro.obs.registry — labelled instruments and snapshots."""

import re
from pathlib import Path

import pytest

from repro.obs.histo import SECONDS_HISTOGRAM
from repro.obs.prom import render_prometheus, validate_exposition
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Family,
    Gauge,
    MetricsRegistry,
)
from repro.stream import StreamRuntime

README = Path(__file__).resolve().parent.parent / "README.md"


class TestInstruments:
    def test_counter_is_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0


class TestRegistry:
    def test_idempotent_registration_shares_the_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_rounds_total", "rounds")
        b = registry.counter("repro_rounds_total", "rounds")
        assert a is b
        a.inc()
        assert b.value == 1.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_y", labels=("phase",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_y", labels=("shard",))

    def test_label_arity_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_z", labels=("phase",))
        with pytest.raises(ValueError, match="labels"):
            family.labels()
        family.labels("solve").inc()
        assert family.labels("solve").value == 1.0

    def test_histogram_uses_log_histogram_options(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_seconds", **SECONDS_HISTOGRAM)
        histogram.record(0.5)
        assert histogram.count == 1
        assert histogram.min_value == SECONDS_HISTOGRAM["min_value"]

    def test_families_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("repro_b")
        registry.counter("repro_a")
        assert [f.name for f in registry.families()] == ["repro_a", "repro_b"]

    def test_family_published_only_once_its_child_exists(self, monkeypatch):
        """A scrape racing a registration must never see a histogram family
        without its child (and so without its ``+Inf`` bucket)."""
        registry = MetricsRegistry()
        renders = []
        original = Family.labels

        def render_mid_registration(family, *values):
            renders.append(render_prometheus(registry))
            return original(family, *values)

        monkeypatch.setattr(Family, "labels", render_mid_registration)
        histogram = registry.histogram("repro_seconds", **SECONDS_HISTOGRAM)
        assert renders
        for text in renders:
            validate_exposition(text)
        histogram.record(0.5)
        validate_exposition(render_prometheus(registry))


class TestSnapshotDeterminism:
    @staticmethod
    def _updates():
        def count(registry):
            registry.counter("repro_a", "a").inc(2)

        def level(registry):
            registry.gauge("repro_b", "b").set(7)

        def latency(registry):
            family = registry.histogram(
                "repro_c", "c", labels=("phase",), **SECONDS_HISTOGRAM
            )
            family.labels("solve").record(0.25)
            family.labels("drain").record(0.01)

        return [count, level, latency]

    def test_snapshot_independent_of_registration_order(self):
        def build(order):
            registry = MetricsRegistry()
            for step in order:
                step(registry)
            return registry.snapshot()

        updates = self._updates()
        assert build(updates) == build(list(reversed(updates)))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        for step in self._updates():
            step(registry)
        snapshot = registry.snapshot()
        assert snapshot["repro_a"]["kind"] == "counter"
        assert snapshot["repro_a"]["series"][""] == 2.0
        assert snapshot["repro_b"]["series"][""] == 7.0
        assert snapshot["repro_c"]["labelnames"] == ["phase"]
        assert snapshot["repro_c"]["series"]["solve"]["count"] == 1


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry.enabled is True
        counter = NULL_REGISTRY.counter("anything")
        counter.inc()
        counter.inc(-5)  # the null instrument skips validation too
        assert counter.value == 0.0
        # Every registration hands back the one shared no-op.
        assert NULL_REGISTRY.histogram("h").labels("x") is NULL_REGISTRY.gauge("g")
        assert NULL_REGISTRY.families() == []
        assert NULL_REGISTRY.snapshot() == {}


class TestDocumentedVocabulary:
    def test_readme_lists_every_stream_metric(self):
        """README's stream metric table names exactly the families the
        runtime registers, each with its kind."""
        documented = dict(
            re.findall(r"^\s*\| `(repro_stream_\w+)` \| (\w+)", README.read_text(), re.M)
        )
        registry = MetricsRegistry()
        StreamRuntime._register_instruments(registry)
        registered = {family.name: family.kind for family in registry.families()}
        assert documented == registered
