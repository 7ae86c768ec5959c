"""Tests for repro.obs.histo — log-bucketed mergeable histograms.

The percentile oracle checks pin the headline contract: any reported
percentile is within ``relative_error`` of numpy's nearest-rank
(``inverted_cdf``) percentile over the raw samples.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.obs.histo import (
    SECONDS_HISTOGRAM,
    WAIT_HOURS_HISTOGRAM,
    LogHistogram,
)


def make(**overrides):
    config = dict(SECONDS_HISTOGRAM)
    config.update(overrides)
    return LogHistogram(**config)


class TestConstruction:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LogHistogram(min_value=0.0, max_value=1.0)
        with pytest.raises(ValueError):
            LogHistogram(min_value=2.0, max_value=1.0)
        with pytest.raises(ValueError):
            LogHistogram(buckets_per_decade=0)

    def test_relative_error_bound(self):
        assert make().relative_error == pytest.approx(10 ** (1 / 64) - 1)

    def test_shared_configs_are_constructible(self):
        LogHistogram(**SECONDS_HISTOGRAM)
        LogHistogram(**WAIT_HOURS_HISTOGRAM)


class TestRecording:
    def test_underflow_and_overflow_buckets(self):
        histogram = make()
        for value in (0.0, -1.0, float("nan")):  # at/below min_value
            histogram.record(value)
        histogram.record(1e9)  # at/above max_value
        assert histogram.counts[0] == 3
        assert histogram.counts[-1] == 1
        assert histogram.count == 4

    def test_count_total_min_max_stay_exact(self):
        histogram = make()
        for value in (0.002, 0.5, 3.0):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.min_seen == 0.002
        assert histogram.max_seen == 3.0
        assert histogram.total == pytest.approx(3.502)
        assert histogram.mean == pytest.approx(3.502 / 3)

    def test_record_many_matches_record_buckets(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.lognormal(mean=-2.0, sigma=2.0, size=500),
            [0.0, 1e-7, 1e-6, 1e4, 1e5, 2e4],  # edge and out-of-range values
        ])
        one, many = make(), make()
        for value in values:
            one.record(float(value))
        many.record_many(values)
        assert np.array_equal(one.counts, many.counts)
        assert one.count == many.count
        assert one.min_seen == many.min_seen
        assert one.max_seen == many.max_seen
        assert one.total == many.total

    def test_record_many_empty_is_noop(self):
        histogram = make()
        histogram.record_many([])
        assert histogram.empty


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_bit_identical(one: LogHistogram, many: LogHistogram) -> None:
    assert np.array_equal(one.counts, many.counts)
    assert one.count == many.count
    for name in ("total", "min_seen", "max_seen"):
        assert bits(getattr(one, name)) == bits(getattr(many, name)), name


#: Samples across every bucket path: NaN, signed zeros, negatives, values
#: at and beyond both bounds, infinities and ordinary in-range values.
SAMPLES = st.one_of(
    st.sampled_from([
        float("nan"), 0.0, -0.0, -1.0, 1e-6, 1e4, 1e6, float("inf"), float("-inf"),
    ]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.floats(min_value=1e-7, max_value=2e4),
)


class TestRecordManyIsSequential:
    """``record_many`` leaves a histogram bit-identical to a ``record``
    loop over the same samples, from any running state."""

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.lists(SAMPLES, max_size=5),
        # Short inputs take the record loop, long ones the vectorized pass.
        values=st.one_of(
            st.lists(SAMPLES, max_size=15), st.lists(SAMPLES, min_size=16, max_size=60)
        ),
    )
    @example(prefix=[], values=[0.0, -0.0, 3.0, -0.0] * 5)
    @example(prefix=[0.1], values=[float("nan"), 1e30, -5.0, 0.1 + 1e-17] * 5)
    @example(prefix=[-0.0], values=[0.0] * 20)
    @example(prefix=[1e16], values=[1.0] * 20)
    def test_bit_identical_to_a_record_loop(self, prefix, values):
        one, many = make(), make()
        for histogram in (one, many):
            for value in prefix:
                histogram.record(value)
        for value in values:
            one.record(value)
        many.record_many(np.array(values, dtype=float))
        assert_bit_identical(one, many)

    def test_sum_associates_left_to_right(self):
        """numpy's pairwise ``sum`` of these samples differs from the
        sequential one; ``record_many`` must give the sequential bits."""
        values = np.array([1e16] + [1.0] * 15)
        assert float(np.sum(values)) != 1e16
        one, many = make(), make()
        for value in values:
            one.record(value)
        many.record_many(values)
        assert bits(one.total) == bits(many.total) == bits(1e16)


class TestPercentileOracle:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_within_relative_error_of_numpy(self, seed):
        rng = np.random.default_rng(seed)
        values = np.clip(
            rng.lognormal(mean=-1.0, sigma=1.5, size=2000), 2e-6, 5e3
        )
        histogram = make()
        histogram.record_many(values)
        for q in (1.0, 25.0, 50.0, 90.0, 99.0, 99.9):
            oracle = float(np.percentile(values, q, method="inverted_cdf"))
            assert histogram.percentile(q) == pytest.approx(
                oracle, rel=histogram.relative_error
            ), f"p{q} drifted beyond the bucket-width bound"

    def test_empty_returns_zero_and_range_is_checked(self):
        histogram = make()
        assert histogram.percentile(50.0) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(101.0)
        with pytest.raises(ValueError):
            histogram.percentile(-0.5)

    def test_single_sample_reports_exactly(self):
        histogram = make()
        histogram.record(0.25)
        # Clamping to [min_seen, max_seen] collapses the bucket midpoint
        # onto the only observed value.
        for q in (0.0, 50.0, 100.0):
            assert histogram.percentile(q) == 0.25

    def test_percentiles_maps_each_quantile(self):
        histogram = make()
        histogram.record_many([0.1, 0.2, 0.4])
        out = histogram.percentiles((50.0, 99.0))
        assert set(out) == {50.0, 99.0}
        assert out[50.0] <= out[99.0]


class TestMerge:
    def test_merge_equals_combined_recording(self):
        rng = np.random.default_rng(5)
        a_values = rng.lognormal(size=300)
        b_values = rng.lognormal(size=200)
        a, b, both = make(), make(), make()
        a.record_many(a_values)
        b.record_many(b_values)
        both.record_many(np.concatenate([a_values, b_values]))
        a.merge(b)
        assert np.array_equal(a.counts, both.counts)
        assert a.count == both.count
        assert a.min_seen == both.min_seen
        assert a.max_seen == both.max_seen
        assert a.total == pytest.approx(both.total, rel=1e-12)

    def test_merge_config_mismatch_raises(self):
        with pytest.raises(DataError, match="bucket configuration mismatch"):
            make().merge(LogHistogram(**WAIT_HOURS_HISTOGRAM))


class TestStateDict:
    def test_roundtrip_bit_exact(self):
        histogram = make()
        histogram.record_many([0.001, 0.5, 2.0, 2.0, 1e9, 0.0])
        restored = LogHistogram.from_state_dict(histogram.state_dict())
        assert restored == histogram

    def test_empty_roundtrip(self):
        restored = LogHistogram.from_state_dict(make().state_dict())
        assert restored == make()
        assert restored.percentile(99.0) == 0.0

    def test_state_is_json_safe(self):
        histogram = make()
        histogram.record_many([0.25, 0.5])
        reparsed = json.loads(json.dumps(histogram.state_dict()))
        restored = LogHistogram.from_state_dict(reparsed)
        assert restored == histogram

    def test_config_mismatch_raises(self):
        state = make().state_dict()
        with pytest.raises(DataError, match="bucket configuration mismatch"):
            LogHistogram(**WAIT_HOURS_HISTOGRAM).load_state_dict(state)

    def test_out_of_range_bucket_raises(self):
        state = make().state_dict()
        state["counts"] = [[10_000, 3]]
        with pytest.raises(DataError, match="outside"):
            make().load_state_dict(state)
