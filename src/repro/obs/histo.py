"""HDR-style log-bucketed histograms: O(1) record, mergeable, bounded error.

:class:`LogHistogram` replaces grow-forever sample lists in long-horizon
serving: values land in logarithmically spaced buckets between a
configurable ``min_value`` and ``max_value``, so memory is fixed (a few
hundred ``int64`` counters) no matter how many samples arrive, and the
relative error of any reported percentile is bounded by the bucket width —
``10 ** (1 / (2 * buckets_per_decade)) - 1`` (≈ 3.7 % at the default 32
buckets per decade).

Design points shared by every user (stream metrics, the batch framework's
CPU-time summaries, the observability registry):

* **Underflow/overflow are explicit buckets.**  Values at or below
  ``min_value`` (including the exact zeros an unloaded round produces) land
  in bucket 0; values at or above ``max_value`` land in the top bucket.
  Nothing is ever dropped, and ``count``/``total``/``min_seen``/``max_seen``
  stay exact — only the *shape* between the bounds is quantized.
* **Mergeable.**  Two histograms with the same bucket configuration add
  counter-wise (:meth:`merge`), which is what lets per-shard or per-process
  collectors combine into one distribution.
* **Checkpointable.**  :meth:`state_dict` is a small JSON-safe dict (counts
  stored sparsely) and :meth:`load_state_dict` restores it bit-exactly,
  raising :class:`~repro.exceptions.DataError` when the saved bucket
  configuration does not match the receiving histogram's — the checkpoint
  compatibility contract.

Percentiles use the nearest-rank definition (the sample at rank
``ceil(q / 100 * count)``) with each bucket represented by its geometric
midpoint, clamped into ``[min_seen, max_seen]`` so reported values never
leave the observed range.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import DataError

__all__ = [
    "LogHistogram",
    "SECONDS_HISTOGRAM",
    "WAIT_HOURS_HISTOGRAM",
]

#: Bucket configuration for wall-clock latencies in seconds: 1 µs resolution
#: floor, 10 ks ceiling — round solves, checkpoint saves, CPU times.
SECONDS_HISTOGRAM: dict = {
    "min_value": 1e-6,
    "max_value": 1e4,
    "buckets_per_decade": 32,
}

#: Bucket configuration for simulated waits in hours: sub-second resolution
#: floor, ~1-year ceiling — task/worker publication-to-assignment waits.
WAIT_HOURS_HISTOGRAM: dict = {
    "min_value": 1e-4,
    "max_value": 1e4,
    "buckets_per_decade": 32,
}


#: Below this many samples :meth:`LogHistogram.record_many` loops over
#: :meth:`LogHistogram.record`: the vectorized pass costs about 40 µs in
#: fixed numpy calls, as much as ~20 ``record`` calls.
_RECORD_LOOP_BELOW = 16


class LogHistogram:
    """A fixed-size, mergeable, log-bucketed latency histogram."""

    __slots__ = (
        "min_value",
        "max_value",
        "buckets_per_decade",
        "counts",
        "count",
        "total",
        "min_seen",
        "max_seen",
        "_log_min",
        "_log_buckets",
    )

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 1e6,
        buckets_per_decade: int = 32,
    ) -> None:
        if not 0.0 < min_value < max_value:
            raise ValueError(
                f"need 0 < min_value < max_value, got {min_value}, {max_value}"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.max_value / self.min_value)
        self._log_buckets = max(1, math.ceil(decades * self.buckets_per_decade))
        self._log_min = math.log10(self.min_value)
        # Bucket 0: value <= min_value.  Last bucket: value >= max_value.
        self.counts = np.zeros(self._log_buckets + 2, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf

    # ------------------------------------------------------------- recording
    def bucket_of(self, value: float) -> int:
        """The bucket index ``value`` lands in (underflow 0, overflow last)."""
        if not value > self.min_value:  # also catches NaN, zeros, negatives
            return 0
        if value >= self.max_value:
            return self._log_buckets + 1
        index = 1 + int(
            (math.log10(value) - self._log_min) * self.buckets_per_decade
        )
        # Clamp against float rounding at the extreme edges.
        return min(max(index, 1), self._log_buckets)

    def record(self, value: float) -> None:
        """Fold one sample in — O(1), no allocation."""
        value = float(value)
        self.counts[self.bucket_of(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value

    def record_many(self, values: Iterable[float]) -> None:
        """:meth:`record` each sample in order, bit for bit.

        Short inputs are recorded one by one.  Longer ones are binned with
        the same ``math.log10`` and truncation as :meth:`bucket_of`;
        ``total`` is one sequential ``np.add.accumulate`` seeded with the
        running total, so the sum associates exactly as repeated
        :meth:`record` calls; ``min_seen``/``max_seen`` keep the first
        sample that beat them, as the strict comparisons in :meth:`record`
        do (NaN never does).
        """
        values = np.asarray(list(values) if not isinstance(values, np.ndarray)
                            else values, dtype=float).ravel()
        if values.size < _RECORD_LOOP_BELOW:
            for value in values.tolist():
                self.record(value)
            return
        index = np.zeros(values.size, dtype=np.int64)
        inside = (values > self.min_value) & (values < self.max_value)
        logs = np.fromiter(map(math.log10, values[inside].tolist()), dtype=float)
        index[inside] = np.clip(
            1 + ((logs - self._log_min) * self.buckets_per_decade).astype(np.int64),
            1, self._log_buckets,
        )
        index[values >= self.max_value] = self._log_buckets + 1
        self.counts += np.bincount(index, minlength=self.counts.size)
        self.count += int(values.size)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, as in record
            self.total = float(np.add.accumulate(np.concatenate(([self.total], values)))[-1])
        seen = values[~np.isnan(values)]
        if seen.size:
            low, high = seen.min(), seen.max()
            if low < self.min_seen:
                self.min_seen = float(seen[np.argmax(seen == low)])
            if high > self.max_seen:
                self.max_seen = float(seen[np.argmax(seen == high)])

    # ------------------------------------------------------------ summaries
    @property
    def empty(self) -> bool:
        """Whether no sample has been recorded."""
        return self.count == 0

    @property
    def mean(self) -> float:
        """Exact mean of the recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantization error of a percentile."""
        return 10.0 ** (1.0 / (2.0 * self.buckets_per_decade)) - 1.0

    def _representative(self, bucket: int) -> float:
        if bucket == 0:
            value = self.min_value
        elif bucket > self._log_buckets:
            value = max(self.max_value, self.max_seen)
        else:
            lower = self._log_min + (bucket - 1) / self.buckets_per_decade
            upper = self._log_min + bucket / self.buckets_per_decade
            value = 10.0 ** ((lower + upper) / 2.0)
        return min(max(value, self.min_seen), self.max_seen)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must lie in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = min(max(math.ceil(q / 100.0 * self.count), 1), self.count)
        cumulative = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cumulative, rank))
        return self._representative(bucket)

    def percentiles(self, qs: Sequence[float]) -> dict[float, float]:
        """:meth:`percentile` over a sequence of quantiles."""
        return {q: self.percentile(q) for q in qs}

    # -------------------------------------------------------------- algebra
    def _config(self) -> tuple[float, float, int]:
        return (self.min_value, self.max_value, self.buckets_per_decade)

    def _check_config(self, other_config: tuple, what: str) -> None:
        if self._config() != tuple(other_config):
            raise DataError(
                f"histogram bucket configuration mismatch in {what}: this "
                f"histogram uses (min_value, max_value, buckets_per_decade) "
                f"= {self._config()}, the other uses {tuple(other_config)}"
            )

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Add ``other``'s counters in (same bucket configuration required)."""
        self._check_config(other._config(), "merge")
        self.counts += other.counts
        self.count += other.count
        self.total += other.total
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return (
            self._config() == other._config()
            and self.count == other.count
            and self.total == other.total
            and (self.min_seen == other.min_seen or (self.empty and other.empty))
            and (self.max_seen == other.max_seen or (self.empty and other.empty))
            and bool(np.array_equal(self.counts, other.counts))
        )

    __hash__ = None  # mutable

    # ---------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """A small JSON-safe snapshot (counts stored sparsely)."""
        nonzero = np.nonzero(self.counts)[0]
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "buckets_per_decade": self.buckets_per_decade,
            "count": self.count,
            "total": self.total,
            "min_seen": self.min_seen if self.count else None,
            "max_seen": self.max_seen if self.count else None,
            "counts": [
                [int(bucket), int(self.counts[bucket])] for bucket in nonzero
            ],
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output bit-exactly.

        Raises :class:`~repro.exceptions.DataError` when the saved bucket
        configuration does not match this histogram's — resuming a
        checkpoint recorded under different bounds would silently misfile
        every restored counter.
        """
        self._check_config(
            (
                float(state["min_value"]),
                float(state["max_value"]),
                int(state["buckets_per_decade"]),
            ),
            "load_state_dict",
        )
        self.counts[:] = 0
        for bucket, value in state["counts"]:
            bucket = int(bucket)
            if not 0 <= bucket < self.counts.size:
                raise DataError(
                    f"histogram state names bucket {bucket}, outside this "
                    f"configuration's {self.counts.size} buckets"
                )
            self.counts[bucket] = int(value)
        self.count = int(state["count"])
        self.total = float(state["total"])
        self.min_seen = (
            float(state["min_seen"]) if state["min_seen"] is not None else math.inf
        )
        self.max_seen = (
            float(state["max_seen"]) if state["max_seen"] is not None else -math.inf
        )

    @classmethod
    def from_state_dict(cls, state: Mapping[str, Any]) -> "LogHistogram":
        """Build a histogram directly from :meth:`state_dict` output."""
        histogram = cls(
            min_value=float(state["min_value"]),
            max_value=float(state["max_value"]),
            buckets_per_decade=int(state["buckets_per_decade"]),
        )
        histogram.load_state_dict(state)
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LogHistogram(count={self.count}, mean={self.mean:.6g}, "
            f"buckets={self.counts.size})"
        )
