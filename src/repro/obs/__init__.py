"""repro.obs — the observability layer: histograms, metrics, spans.

Four modules, one bundle:

* :mod:`repro.obs.histo` — :class:`LogHistogram`, the HDR-style
  log-bucketed mergeable histogram (O(1) record, bounded relative error,
  checkpointable ``state_dict``) backing every latency distribution in the
  project;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, labelled
  counters/gauges/histograms with a structural no-op default
  (:data:`NULL_REGISTRY`);
* :mod:`repro.obs.trace` — :class:`Tracer`, Chrome trace-event / Perfetto
  span recording on one monotonic clock, with a schema validator;
* :mod:`repro.obs.prom` — Prometheus text exposition + the stdlib-HTTP
  ``/metrics`` endpoint (:class:`MetricsServer`).

:class:`Observability` carries one registry + one tracer through the
serving stack (``StreamRuntime(obs=...)``, the ``stream`` CLI's
``--trace``/``--metrics-port``).  The default, :data:`NULL_OBS`, is fully
inert: every instrument is a shared no-op and every span a shared null
context manager, so an un-instrumented run executes the same arithmetic it
did before this layer existed — pinned bit-identical by the obs
differential tests.
"""

from __future__ import annotations

from repro.obs.histo import LogHistogram, SECONDS_HISTOGRAM, WAIT_HOURS_HISTOGRAM
from repro.obs.prom import MetricsServer, render_prometheus, validate_exposition
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, validate_trace_events

__all__ = [
    "LogHistogram",
    "SECONDS_HISTOGRAM",
    "WAIT_HOURS_HISTOGRAM",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "validate_trace_events",
    "MetricsServer",
    "render_prometheus",
    "validate_exposition",
    "Observability",
    "NULL_OBS",
]


class Observability:
    """The registry + tracer pair threaded through the serving layers.

    ``enabled`` is the hot-path gate: instrumented code checks this one
    boolean (or the tracer's own ``enabled``) before building span/metric
    arguments, so the off configuration costs a single attribute read per
    round phase.
    """

    __slots__ = ("registry", "tracer")

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def enabled(self) -> bool:
        """Whether any telemetry sink is live."""
        return self.registry.enabled or self.tracer.enabled


#: The inert default every un-instrumented call site shares.
NULL_OBS = Observability()
