"""Tests for repro.stream.scheduler — micro-batch trigger policies."""

import pytest

from repro.stream import (
    AdaptiveTrigger,
    CountTrigger,
    HybridTrigger,
    TimeWindowTrigger,
)
from repro.stream.metrics import RoundRecord


def make_record(round_seconds=0.0, index=0, time=0.0):
    return RoundRecord(
        index=index, time=time, online_workers=0, open_tasks=0, drained_events=0,
        assigned=0, expired_tasks=0, churned_workers=0, cancelled_tasks=0,
        round_seconds=round_seconds,
    )


class TestCountTrigger:
    def test_counts_but_schedules_no_boundary(self):
        trigger = CountTrigger(5)
        assert trigger.count == 5
        assert trigger.next_boundary(3.0) is None
        assert not trigger.fires_at_start

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CountTrigger(0)

    def test_stateless_checkpointing(self):
        trigger = CountTrigger(5)
        assert trigger.state_dict() == {}
        trigger.load_state_dict({})  # no-op


class TestTimeWindowTrigger:
    def test_boundary_marches_by_window(self):
        trigger = TimeWindowTrigger(1.5)
        assert trigger.next_boundary(0.0) == pytest.approx(1.5)
        assert trigger.next_boundary(6.0) == pytest.approx(7.5)
        assert trigger.count is None
        assert trigger.fires_at_start

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            TimeWindowTrigger(0.0)
        with pytest.raises(ValueError, match="nan"):
            TimeWindowTrigger(float("nan"))


class TestHybridTrigger:
    def test_arms_both_mechanisms(self):
        trigger = HybridTrigger(10, 2.0)
        assert trigger.count == 10
        assert trigger.next_boundary(4.0) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridTrigger(0, 1.0)
        with pytest.raises(ValueError):
            HybridTrigger(1, 0.0)
        with pytest.raises(ValueError, match="nan"):
            HybridTrigger(1, float("nan"))

    def test_repr_smoke(self):
        assert "HybridTrigger" in repr(HybridTrigger(3, 1.0))
        assert "CountTrigger" in repr(CountTrigger(3))
        assert "TimeWindowTrigger" in repr(TimeWindowTrigger(1.0))
        assert "AdaptiveTrigger" in repr(AdaptiveTrigger(0.1))


class TestAdaptiveTrigger:
    def test_halves_over_budget_grows_under(self):
        trigger = AdaptiveTrigger(
            target_seconds=1.0, initial_window_hours=2.0,
            min_window_hours=0.25, max_window_hours=8.0, growth=2.0,
        )
        trigger.on_round(make_record(round_seconds=1.5))
        assert trigger.window_hours == pytest.approx(1.0)
        trigger.on_round(make_record(round_seconds=0.1))
        assert trigger.window_hours == pytest.approx(2.0)
        # Inside the comfort band: unchanged.
        trigger.on_round(make_record(round_seconds=0.75))
        assert trigger.window_hours == pytest.approx(2.0)

    def test_clamped_to_bounds(self):
        trigger = AdaptiveTrigger(
            target_seconds=1.0, initial_window_hours=0.5,
            min_window_hours=0.4, max_window_hours=0.6,
        )
        trigger.on_round(make_record(round_seconds=5.0))
        assert trigger.window_hours == pytest.approx(0.4)
        for _ in range(5):
            trigger.on_round(make_record(round_seconds=0.0))
        assert trigger.window_hours == pytest.approx(0.6)

    def test_custom_cost_source(self):
        trigger = AdaptiveTrigger(
            target_seconds=10.0, initial_window_hours=1.0,
            cost_of=lambda record: record.open_tasks,
        )
        record = RoundRecord(
            index=0, time=0.0, online_workers=0, open_tasks=50, drained_events=0,
            assigned=0, expired_tasks=0, churned_workers=0, cancelled_tasks=0,
            round_seconds=0.0,
        )
        trigger.on_round(record)
        assert trigger.window_hours == pytest.approx(0.5)

    def test_state_dict_roundtrip(self):
        trigger = AdaptiveTrigger(target_seconds=1.0, initial_window_hours=2.0)
        trigger.on_round(make_record(round_seconds=9.0))
        state = trigger.state_dict()
        fresh = AdaptiveTrigger(target_seconds=1.0, initial_window_hours=2.0)
        fresh.load_state_dict(state)
        assert fresh.window_hours == trigger.window_hours

    def test_load_state_dict_clamps_to_bounds(self):
        trigger = AdaptiveTrigger(
            target_seconds=1.0, initial_window_hours=0.5,
            min_window_hours=0.4, max_window_hours=0.6,
        )
        trigger.load_state_dict({"window_hours": 5.0})
        assert trigger.window_hours == pytest.approx(0.6)
        trigger.load_state_dict({"window_hours": 0.01})
        assert trigger.window_hours == pytest.approx(0.4)
        # In-range values restore verbatim.
        trigger.load_state_dict({"window_hours": 0.45})
        assert trigger.window_hours == pytest.approx(0.45)

    def test_load_state_dict_rejects_bad_windows(self):
        from repro.exceptions import DataError

        trigger = AdaptiveTrigger(target_seconds=1.0, initial_window_hours=2.0)
        for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
            with pytest.raises(DataError, match="window_hours"):
                trigger.load_state_dict({"window_hours": bad})
        assert trigger.window_hours == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTrigger(target_seconds=0.0)
        with pytest.raises(ValueError):
            AdaptiveTrigger(target_seconds=1.0, initial_window_hours=0.1,
                            min_window_hours=0.5)
        with pytest.raises(ValueError):
            AdaptiveTrigger(target_seconds=1.0, growth=1.0)
        with pytest.raises(ValueError, match="target_seconds.*nan"):
            AdaptiveTrigger(target_seconds=float("nan"))
        with pytest.raises(ValueError, match="growth.*nan"):
            AdaptiveTrigger(target_seconds=1.0, growth=float("nan"))
