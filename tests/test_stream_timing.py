"""One measurement per phase: round records, trace spans and histograms agree.

The stream runtime measures every phase once, as a monotonic interval, and
derives the :class:`~repro.stream.metrics.RoundRecord` seconds, the
``round.*`` / ``shard.*`` trace spans and the
``repro_stream_phase_seconds`` histograms from it.  These tests pin that
agreement on every executor configuration, and pin that solve intervals
measured on pool threads land inside their round on one timeline.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.assignment import MTAAssigner
from repro.obs import MetricsRegistry, Observability, Tracer, validate_trace_events
from repro.stream import StreamRuntime, TimeWindowTrigger, synthetic_stream

#: (executor, pipeline) pairs: every round path the runtime has.
CONFIGURATIONS = [
    ("serial", False),
    ("thread", False),
    ("thread", True),
]

#: Record field -> the span(s) it is measured by.
PHASE_SPANS = {
    "drain": "round.drain",
    "prepare": "shard.prepare",
    "solve": "shard.solve",
    "merge": "round.merge",
}


@pytest.fixture(scope="module")
def world():
    return synthetic_stream(240, 240, duration_hours=6.0, clusters=4, seed=3)


def traced_run(world, executor, pipeline):
    base, log = world
    obs = Observability(registry=MetricsRegistry(), tracer=Tracer())
    runtime = StreamRuntime(
        MTAAssigner(), None, TimeWindowTrigger(0.5), base, log,
        shards=4, executor=executor, pipeline=pipeline, obs=obs,
    )
    try:
        result = runtime.run()
    finally:
        runtime.close()
    return result, obs


@pytest.mark.parametrize("executor,pipeline", CONFIGURATIONS)
class TestPhaseAgreement:
    def test_spans_equal_round_records(self, world, executor, pipeline):
        result, obs = traced_run(world, executor, pipeline)
        assert result.total_assigned > 0
        span_seconds: dict[tuple[int, str], float] = defaultdict(float)
        shards_per_round: dict[int, int] = defaultdict(int)
        for event in obs.tracer.events():
            if event["ph"] == "X" and event["name"] in PHASE_SPANS.values():
                key = (event["args"]["round"], event["name"])
                span_seconds[key] += event["dur"] / 1e6
                shards_per_round[key[0]] += event["name"] == "shard.solve"
        # Several shards solve in one round, so the pooled path runs.
        assert max(shards_per_round.values()) > 1
        mismatches = [
            (record.index, phase, spanned, recorded)
            for record in result.rounds
            for phase, span in PHASE_SPANS.items()
            for spanned, recorded in [(
                span_seconds.get((record.index, span), 0.0),
                getattr(record, f"{phase}_seconds"),
            )]
            if abs(spanned - recorded) > 1e-9
        ]
        assert mismatches == []

    def test_histograms_equal_record_sums(self, world, executor, pipeline):
        result, obs = traced_run(world, executor, pipeline)
        (family,) = [
            family for family in obs.registry.families()
            if family.name == "repro_stream_phase_seconds"
        ]
        histograms = {labels[0]: histogram for labels, histogram in family.children()}
        assert set(histograms) == set(PHASE_SPANS)
        for phase, histogram in histograms.items():
            assert histogram.count == len(result.rounds)
            assert histogram.total == pytest.approx(
                sum(getattr(r, f"{phase}_seconds") for r in result.rounds),
                abs=1e-9,
            )


class TestTimeline:
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_worker_solves_lie_inside_their_round(self, world, pipeline):
        """Pool threads read the caller's clock: no span leaves its round."""
        _, obs = traced_run(world, "thread", pipeline)
        payload = obs.tracer.to_payload()
        validate_trace_events(payload)
        events = payload["traceEvents"]
        rounds = {
            event["args"]["round"]: event
            for event in events if event["name"] == "round"
        }
        worker_solves = [
            event for event in events
            if event["name"] == "shard.solve"
            and event["tid"] != rounds[event["args"]["round"]]["tid"]
        ]
        assert worker_solves
        for event in worker_solves:
            enclosing = rounds[event["args"]["round"]]
            assert enclosing["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= enclosing["ts"] + enclosing["dur"]

    def test_durations_are_measured_not_clamped(self, world, monkeypatch):
        """Every span interval is non-negative as measured, before emission."""
        emitted = []
        original = Tracer.complete

        def spy(self, name, start_ns, end_ns, **kwargs):
            emitted.append((name, start_ns, end_ns))
            original(self, name, start_ns, end_ns, **kwargs)

        monkeypatch.setattr(Tracer, "complete", spy)
        _, obs = traced_run(world, "thread", True)
        assert emitted
        assert all(end >= start for _, start, end in emitted)
        assert all(
            event["dur"] >= 0 for event in obs.tracer.events() if event["ph"] == "X"
        )
