"""Streaming metrics: wait times, round latency percentiles, throughput.

The batched online simulator reports per-round pool sizes and CPU time; a
serving runtime additionally needs *latency distributions* — how long tasks
wait between publication and assignment, how expensive rounds are at the
tail, and how fast the runtime drains its event stream.
:class:`StreamMetrics` collects all of it incrementally and serializes to a
checkpointable state dict.

The distributions live in bounded
:class:`~repro.obs.histo.LogHistogram` buckets, not sample lists: a
multi-day horizon assigns O(rounds·tasks) pairs, and the per-sample lists
this module used to keep grew without bound while every consumer only ever
asked for percentiles.  Waits record in *simulated hours* (deterministic,
so the histograms checkpoint/replay bit-exactly and ride in the checkpoint
meta); round latency records measured wall-clock seconds and is rebuilt
from the ``rounds`` rows on restore rather than persisted separately —
the rows are the source of truth the crash-recovery comparison already
normalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.obs.histo import LogHistogram, SECONDS_HISTOGRAM, WAIT_HOURS_HISTOGRAM


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything observed about one assignment round.

    ``online_workers`` / ``open_tasks`` are the pool sizes *before* the
    round's assignment (matching
    :class:`~repro.framework.online.OnlineStep`); ``drained_events`` counts
    the log events consumed since the previous round; ``round_seconds`` is
    the wall-clock cost of the assignment computation alone.
    ``relocated_workers`` counts live-worker relocations applied in the
    round's drain; ``deferred_tasks`` / ``shed_tasks`` count publish events
    diverted by the admission controller (both stay 0 without one).

    The phase timings attribute the round's cost.  Each phase is measured
    once, as a monotonic interval, and the trace span with the same
    round index is that interval, so with a tracer attached:

    * ``drain_seconds`` is the ``round.drain`` span: the event-cursor scan
      that fed the round;
    * ``prepare_seconds`` is the sum of the round's ``shard.prepare``
      spans, each ending when the shard's prepare returns;
    * ``solve_seconds`` is the sum of its ``shard.solve`` spans;
    * ``merge_seconds`` is the ``round.merge`` span;
    * ``round_seconds`` runs from the end of the drain until the sharded
      round returns; it has no span of its own (``round`` also covers the
      drain and the bookkeeping).

    Prepare and solve are *cumulative across shards*.  Every phase runs in
    the calling thread, one after another, so the spans never overlap and
    ``prepare_seconds + solve_seconds + merge_seconds`` never exceeds
    ``round_seconds``.  The first shard's prepare also covers the round's
    pair enumeration.
    """

    index: int
    time: float
    online_workers: int
    open_tasks: int
    drained_events: int
    assigned: int
    expired_tasks: int
    churned_workers: int
    cancelled_tasks: int
    round_seconds: float
    relocated_workers: int = 0
    deferred_tasks: int = 0
    shed_tasks: int = 0
    drain_seconds: float = 0.0
    prepare_seconds: float = 0.0
    solve_seconds: float = 0.0
    merge_seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class StreamSummary:
    """Aggregate view of a finished (or in-flight) streaming run."""

    rounds: int
    assigned: int
    expired: int
    churned: int
    cancelled: int
    relocated: int
    deferred: int
    shed: int
    events_drained: int
    sim_hours: float
    wall_seconds: float
    task_wait_p50: float
    task_wait_p90: float
    task_wait_p99: float
    round_latency_p50: float
    round_latency_p99: float
    events_per_second: float
    assigned_per_sim_hour: float
    expiry_rate: float
    churn_rate: float
    shed_rate: float

    def as_text(self) -> str:
        """A compact multi-line report for CLIs and examples."""
        lines = [
            f"rounds:            {self.rounds}",
            f"events drained:    {self.events_drained}"
            f" ({self.events_per_second:,.0f} events/s)",
            f"assigned:          {self.assigned}"
            f" ({self.assigned_per_sim_hour:.1f} per sim hour)",
            f"expired:           {self.expired} (rate {self.expiry_rate:.2f})",
            f"churned:           {self.churned} (rate {self.churn_rate:.2f})",
            f"cancelled:         {self.cancelled}",
        ]
        if self.relocated:
            lines.append(f"relocated:         {self.relocated}")
        if self.deferred or self.shed:
            lines.append(
                f"admission:         deferred {self.deferred}, "
                f"shed {self.shed} (rate {self.shed_rate:.2f})"
            )
        lines.extend(
            [
                f"task wait (h):     p50 {self.task_wait_p50:.2f}"
                f"  p90 {self.task_wait_p90:.2f}  p99 {self.task_wait_p99:.2f}",
                f"round latency (s): p50 {self.round_latency_p50:.4f}"
                f"  p99 {self.round_latency_p99:.4f}",
            ]
        )
        return "\n".join(lines)


class StreamMetrics:
    """Incrementally collected streaming statistics.

    Counters and per-round records are exact; wait and round-latency
    distributions are bounded :class:`~repro.obs.histo.LogHistogram`\\ s, so
    memory stays fixed over arbitrarily long horizons while percentiles
    keep a ~3.7 % relative-error bound.  :meth:`state_dict` /
    :meth:`load_state_dict` round-trip the whole collector exactly.
    """

    def __init__(self) -> None:
        self.rounds: list[RoundRecord] = []
        self.task_wait_histogram = LogHistogram(**WAIT_HOURS_HISTOGRAM)
        self.worker_wait_histogram = LogHistogram(**WAIT_HOURS_HISTOGRAM)
        self.round_latency_histogram = LogHistogram(**SECONDS_HISTOGRAM)
        self.total_assigned = 0
        self.total_expired = 0
        self.total_churned = 0
        self.total_cancelled = 0
        self.total_relocated = 0
        self.total_deferred = 0
        self.total_shed = 0
        self.total_drained = 0
        self.wall_seconds = 0.0

    # ------------------------------------------------------------ recording
    def on_round(self, record: RoundRecord) -> None:
        """Record one completed round."""
        self.rounds.append(record)
        self.round_latency_histogram.record(record.round_seconds)
        self.total_assigned += record.assigned
        self.total_expired += record.expired_tasks
        self.total_churned += record.churned_workers
        self.total_cancelled += record.cancelled_tasks
        self.total_relocated += record.relocated_workers
        self.total_deferred += record.deferred_tasks
        self.total_shed += record.shed_tasks
        self.total_drained += record.drained_events

    def on_assigned(self, task_wait_hours, worker_wait_hours) -> None:
        """Record matched pairs' waits (publication/arrival to round): one
        pair's two scalars, or two arrays in pair order.  Each histogram
        ends bit-identical to recording the pairs one at a time."""
        self.task_wait_histogram.record_many(np.asarray(task_wait_hours, dtype=float))
        self.worker_wait_histogram.record_many(np.asarray(worker_wait_hours, dtype=float))

    def add_wall_seconds(self, seconds: float) -> None:
        """Accumulate wall-clock time spent inside ``run`` (drain + rounds)."""
        self.wall_seconds += seconds

    # ------------------------------------------------------------- summaries
    def round_latency_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> dict[float, float]:
        """Percentiles of per-round assignment latency in seconds."""
        return self.round_latency_histogram.percentiles(qs)

    def phase_totals(self) -> dict[str, float]:
        """Cumulative per-phase seconds across all recorded rounds.

        The phases of a round never overlap, so the four sums together
        stay within ``wall_seconds``.
        """
        return {
            phase: sum(getattr(r, f"{phase}_seconds") for r in self.rounds)
            for phase in ("drain", "prepare", "solve", "merge")
        }

    def task_wait_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> dict[float, float]:
        """Percentiles of publication-to-assignment wait in sim hours."""
        return self.task_wait_histogram.percentiles(qs)

    @property
    def sim_hours(self) -> float:
        """Simulated time covered by the recorded rounds."""
        if not self.rounds:
            return 0.0
        return self.rounds[-1].time - self.rounds[0].time

    def summary(self) -> StreamSummary:
        """Freeze the current counters into a :class:`StreamSummary`."""
        latency = self.round_latency_percentiles((50.0, 99.0))
        waits = self.task_wait_percentiles((50.0, 90.0, 99.0))
        sim_hours = self.sim_hours
        seen_tasks = (
            self.total_assigned + self.total_expired + self.total_cancelled
            + self.total_shed
        )
        seen_workers = self.total_assigned + self.total_churned
        return StreamSummary(
            rounds=len(self.rounds),
            assigned=self.total_assigned,
            expired=self.total_expired,
            churned=self.total_churned,
            cancelled=self.total_cancelled,
            relocated=self.total_relocated,
            deferred=self.total_deferred,
            shed=self.total_shed,
            events_drained=self.total_drained,
            sim_hours=sim_hours,
            wall_seconds=self.wall_seconds,
            task_wait_p50=waits[50.0],
            task_wait_p90=waits[90.0],
            task_wait_p99=waits[99.0],
            round_latency_p50=latency[50.0],
            round_latency_p99=latency[99.0],
            events_per_second=(
                self.total_drained / self.wall_seconds if self.wall_seconds > 0 else 0.0
            ),
            assigned_per_sim_hour=(
                self.total_assigned / sim_hours if sim_hours > 0 else 0.0
            ),
            expiry_rate=(self.total_expired / seen_tasks if seen_tasks else 0.0),
            churn_rate=(self.total_churned / seen_workers if seen_workers else 0.0),
            shed_rate=(self.total_shed / seen_tasks if seen_tasks else 0.0),
        )

    # ----------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """All collector state for checkpoints.

        ``rounds`` is a dense float array; the wait histograms serialize as
        their JSON-safe :meth:`~repro.obs.histo.LogHistogram.state_dict`
        snapshots.  The round-latency histogram is deliberately *not*
        included: it is a pure function of the ``rounds`` rows (replayed by
        :meth:`load_state_dict` through :meth:`on_round`), and keeping it
        out of the persisted state keeps checkpoint metadata free of
        wall-clock timing noise for the crash-recovery comparison.
        """
        fields = RoundRecord.__slots__
        return {
            "rounds": np.array(
                [[getattr(r, name) for name in fields] for r in self.rounds],
                dtype=float,
            ).reshape(len(self.rounds), len(fields)),
            "task_waits": self.task_wait_histogram.state_dict(),
            "worker_waits": self.worker_wait_histogram.state_dict(),
            "wall_seconds": self.wall_seconds,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output bit-exactly.

        Raises :class:`~repro.exceptions.DataError` when a saved wait
        histogram's bucket configuration does not match the current build's.
        """
        fields = RoundRecord.__slots__
        float_fields = {
            "time", "round_seconds", "drain_seconds", "prepare_seconds",
            "solve_seconds", "merge_seconds",
        }
        int_fields = {name for name in fields if name not in float_fields}
        self.__init__()
        for row in np.asarray(state["rounds"], dtype=float).reshape(-1, len(fields)):
            values = {
                name: (int(value) if name in int_fields else float(value))
                for name, value in zip(fields, row)
            }
            self.on_round(RoundRecord(**values))
        self.task_wait_histogram.load_state_dict(state["task_waits"])
        self.worker_wait_histogram.load_state_dict(state["worker_waits"])
        self.wall_seconds = float(state["wall_seconds"])
