"""One measurement per phase: round records, trace spans and histograms agree.

The stream runtime measures every phase once, as a monotonic interval, and
derives the :class:`~repro.stream.metrics.RoundRecord` seconds, the
``round.*`` / ``shard.*`` trace spans and the
``repro_stream_phase_seconds`` histograms from it.  These tests pin that
agreement, and pin that a round's phases run one after another in the
round's thread, inside the round, without overlap.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.assignment import MTAAssigner
from repro.obs import MetricsRegistry, Observability, Tracer, validate_trace_events
from repro.stream import StreamRuntime, TimeWindowTrigger, synthetic_stream

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


def traced_run(world):
    base, log = world
    obs = Observability(registry=MetricsRegistry(), tracer=Tracer())
    result = StreamRuntime(
        MTAAssigner(), None, TimeWindowTrigger(0.5), base, log,
        shards=4, obs=obs,
    ).run()
    return result, obs


class TestPhaseAgreement:
    def test_spans_equal_round_records(self, world):
        result, obs = traced_run(world)
        assert result.total_assigned > 0
        span_seconds: dict[tuple[int, str], float] = defaultdict(float)
        shards_per_round: dict[int, int] = defaultdict(int)
        for event in obs.tracer.events():
            if event["ph"] == "X" and event["name"] in PHASE_SPANS.values():
                key = (event["args"]["round"], event["name"])
                span_seconds[key] += event["dur"] / 1e6
                shards_per_round[key[0]] += event["name"] == "shard.solve"
        # Several shards solve in one round.
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

    def test_histograms_equal_record_sums(self, world):
        result, obs = traced_run(world)
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


#: Span timestamps are float microseconds; 1 ns absorbs their rounding.
NS_IN_US = 1e-3


class TestTimeline:
    def test_round_phases_are_disjoint_and_inside_their_round(self, world):
        """A round's prepare, solve and merge spans run one after another
        on the round's thread, inside the ``round`` span."""
        result, obs = traced_run(world)
        payload = obs.tracer.to_payload()
        validate_trace_events(payload)
        events = payload["traceEvents"]
        rounds = {
            event["args"]["round"]: event
            for event in events if event["name"] == "round"
        }
        phases: dict[int, list[dict]] = defaultdict(list)
        for event in events:
            if event["name"] in ("shard.prepare", "shard.solve", "round.merge"):
                phases[event["args"]["round"]].append(event)
        assert max(len(spans) for spans in phases.values()) > 3
        for index, spans in phases.items():
            enclosing = rounds[index]
            spans.sort(key=lambda event: event["ts"])
            for event in spans:
                assert event["tid"] == enclosing["tid"]
                assert enclosing["ts"] <= event["ts"] + NS_IN_US
                assert (event["ts"] + event["dur"]
                        <= enclosing["ts"] + enclosing["dur"] + NS_IN_US)
            for before, after in zip(spans, spans[1:]):
                assert before["ts"] + before["dur"] <= after["ts"] + NS_IN_US
        for record in result.rounds:
            phase_sum = (record.prepare_seconds + record.solve_seconds
                         + record.merge_seconds)
            assert phase_sum <= record.round_seconds + 1e-9

    def test_durations_are_measured_not_clamped(self, world, monkeypatch):
        """Every span interval is non-negative as measured, before emission."""
        emitted = []
        original = Tracer.complete

        def spy(self, name, start_ns, end_ns, **kwargs):
            emitted.append((name, start_ns, end_ns))
            original(self, name, start_ns, end_ns, **kwargs)

        monkeypatch.setattr(Tracer, "complete", spy)
        _, obs = traced_run(world)
        assert emitted
        assert all(end >= start for _, start, end in emitted)
        assert all(
            event["dur"] >= 0 for event in obs.tracer.events() if event["ph"] == "X"
        )
