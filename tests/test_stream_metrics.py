"""Tests for repro.stream.metrics — collectors, percentiles, summaries."""

import pytest

from repro.stream import RoundRecord, StreamMetrics


def make_record(index=0, time=0.0, assigned=0, expired=0, churned=0,
                cancelled=0, drained=0, seconds=0.0, workers=0, tasks=0):
    return RoundRecord(
        index=index, time=time, online_workers=workers, open_tasks=tasks,
        drained_events=drained, assigned=assigned, expired_tasks=expired,
        churned_workers=churned, cancelled_tasks=cancelled,
        round_seconds=seconds,
    )


class TestCounters:
    def test_on_round_accumulates(self):
        metrics = StreamMetrics()
        metrics.on_round(make_record(index=0, time=0.0, assigned=2, expired=1,
                                     drained=5, seconds=0.1))
        metrics.on_round(make_record(index=1, time=2.0, churned=3, cancelled=1,
                                     drained=2, seconds=0.3))
        assert metrics.total_assigned == 2
        assert metrics.total_expired == 1
        assert metrics.total_churned == 3
        assert metrics.total_cancelled == 1
        assert metrics.total_drained == 7
        assert metrics.sim_hours == pytest.approx(2.0)

    def test_wait_recording(self):
        metrics = StreamMetrics()
        metrics.on_assigned(1.5, 0.5)
        metrics.on_assigned(2.5, 1.0)
        assert metrics.task_wait_histogram.count == 2
        assert metrics.task_wait_histogram.min_seen == 1.5
        assert metrics.task_wait_histogram.max_seen == 2.5
        assert metrics.worker_wait_histogram.count == 2
        assert metrics.worker_wait_histogram.mean == pytest.approx(0.75)
        # Nearest-rank p50 of {1.5, 2.5} is the 1.5 sample, reported within
        # the histogram's bucket-width relative-error bound.
        p50 = metrics.task_wait_percentiles((50.0,))[50.0]
        assert p50 == pytest.approx(
            1.5, rel=metrics.task_wait_histogram.relative_error
        )

    def test_percentiles_empty_safe(self):
        metrics = StreamMetrics()
        assert metrics.round_latency_percentiles()[99.0] == 0.0
        assert metrics.task_wait_percentiles()[50.0] == 0.0
        assert metrics.sim_hours == 0.0


class TestSummary:
    def test_rates_and_throughput(self):
        metrics = StreamMetrics()
        metrics.on_round(make_record(index=0, time=0.0, assigned=3, expired=1,
                                     drained=10, seconds=0.2))
        metrics.on_round(make_record(index=1, time=4.0, assigned=1, churned=2,
                                     cancelled=1, drained=6, seconds=0.4))
        metrics.on_assigned(1.0, 0.0)
        metrics.add_wall_seconds(2.0)
        summary = metrics.summary()
        assert summary.rounds == 2
        assert summary.assigned == 4
        assert summary.events_drained == 16
        assert summary.events_per_second == pytest.approx(8.0)
        assert summary.assigned_per_sim_hour == pytest.approx(1.0)
        # 4 assigned + 1 expired + 1 cancelled tasks seen; 4 + 2 workers seen.
        assert summary.expiry_rate == pytest.approx(1 / 6)
        assert summary.churn_rate == pytest.approx(2 / 6)
        # Nearest-rank p99 of {0.2, 0.4} is the 0.4 sample, within the
        # histogram's quantization bound.
        assert summary.round_latency_p99 == pytest.approx(
            0.4, rel=metrics.round_latency_histogram.relative_error
        )

    def test_zero_division_guards(self):
        summary = StreamMetrics().summary()
        assert summary.events_per_second == 0.0
        assert summary.assigned_per_sim_hour == 0.0
        assert summary.expiry_rate == 0.0
        assert summary.churn_rate == 0.0

    def test_as_text_smoke(self):
        metrics = StreamMetrics()
        metrics.on_round(make_record(assigned=1, drained=3, seconds=0.01))
        text = metrics.summary().as_text()
        assert "rounds:" in text and "task wait" in text


class TestStateDict:
    def test_roundtrip_bit_exact(self):
        metrics = StreamMetrics()
        metrics.on_round(make_record(index=0, time=0.25, assigned=2, expired=1,
                                     drained=7, seconds=0.125, workers=5, tasks=9))
        metrics.on_round(make_record(index=1, time=1.75, churned=1, cancelled=2,
                                     drained=3, seconds=0.5))
        metrics.on_assigned(0.75, 0.25)
        metrics.add_wall_seconds(1.5)

        restored = StreamMetrics()
        restored.load_state_dict(metrics.state_dict())
        assert restored.rounds == metrics.rounds
        assert restored.task_wait_histogram == metrics.task_wait_histogram
        assert restored.worker_wait_histogram == metrics.worker_wait_histogram
        # Round latency is rebuilt by replaying the rounds, not persisted.
        assert restored.round_latency_histogram == metrics.round_latency_histogram
        assert restored.wall_seconds == metrics.wall_seconds
        assert restored.total_assigned == metrics.total_assigned
        assert restored.total_drained == metrics.total_drained

    def test_roundtrip_empty(self):
        metrics = StreamMetrics()
        restored = StreamMetrics()
        restored.load_state_dict(metrics.state_dict())
        assert restored.rounds == []
        assert restored.wall_seconds == 0.0


class TestAdmissionAndRelocationMetrics:
    def test_new_counters_accumulate_and_roundtrip(self):
        metrics = StreamMetrics()
        metrics.on_round(RoundRecord(
            index=0, time=0.0, online_workers=5, open_tasks=6,
            drained_events=11, assigned=2, expired_tasks=0, churned_workers=0,
            cancelled_tasks=0, round_seconds=0.1, relocated_workers=3,
            deferred_tasks=4, shed_tasks=1,
        ))
        assert metrics.total_relocated == 3
        assert metrics.total_deferred == 4
        assert metrics.total_shed == 1
        state = metrics.state_dict()
        fresh = StreamMetrics()
        fresh.load_state_dict(state)
        assert fresh.total_relocated == 3
        assert fresh.total_deferred == 4
        assert fresh.total_shed == 1
        assert fresh.rounds[0].relocated_workers == 3

    def test_summary_shed_rate_counts_shed_as_seen(self):
        metrics = StreamMetrics()
        metrics.on_round(RoundRecord(
            index=0, time=0.0, online_workers=0, open_tasks=0,
            drained_events=0, assigned=3, expired_tasks=1, churned_workers=0,
            cancelled_tasks=0, round_seconds=0.0, shed_tasks=4,
        ))
        summary = metrics.summary()
        assert summary.shed == 4
        assert summary.shed_rate == pytest.approx(4 / 8)
        assert "shed 4" in summary.as_text()

    def test_default_record_fields_keep_legacy_shape(self):
        record = make_record(assigned=1)
        assert record.relocated_workers == 0
        assert record.deferred_tasks == 0
        assert record.shed_tasks == 0


class TestPhaseTimings:
    def _phased_record(self, index=0, **phases):
        return RoundRecord(
            index=index, time=float(index), online_workers=0, open_tasks=0,
            drained_events=0, assigned=0, expired_tasks=0, churned_workers=0,
            cancelled_tasks=0, round_seconds=0.5, **phases,
        )

    def test_default_phase_fields_are_zero(self):
        record = make_record()
        assert record.drain_seconds == 0.0
        assert record.prepare_seconds == 0.0
        assert record.solve_seconds == 0.0
        assert record.merge_seconds == 0.0

    def test_phase_totals_accumulate(self):
        metrics = StreamMetrics()
        metrics.on_round(self._phased_record(
            0, drain_seconds=0.1, prepare_seconds=0.2, solve_seconds=0.3,
            merge_seconds=0.05,
        ))
        metrics.on_round(self._phased_record(
            1, drain_seconds=0.1, prepare_seconds=0.3, solve_seconds=0.1,
        ))
        totals = metrics.phase_totals()
        assert totals["drain"] == pytest.approx(0.2)
        assert totals["prepare"] == pytest.approx(0.5)
        assert totals["solve"] == pytest.approx(0.4)
        assert totals["merge"] == pytest.approx(0.05)

    def test_phase_fields_roundtrip_state_dict(self):
        metrics = StreamMetrics()
        metrics.on_round(self._phased_record(
            0, drain_seconds=0.125, prepare_seconds=0.25, solve_seconds=0.0625,
            merge_seconds=0.03125,
        ))
        restored = StreamMetrics()
        restored.load_state_dict(metrics.state_dict())
        record = restored.rounds[0]
        assert record.drain_seconds == 0.125
        assert record.prepare_seconds == 0.25
        assert record.solve_seconds == 0.0625
        assert record.merge_seconds == 0.03125
        assert restored.phase_totals() == metrics.phase_totals()
