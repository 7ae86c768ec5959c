"""Micro-batch triggers: when does the next assignment round fire?

A :class:`Trigger` tells the :class:`~repro.stream.runtime.StreamRuntime`
when to cut the event stream into an assignment round.  Two mechanisms
compose:

* a **time boundary** (:meth:`Trigger.next_boundary`): the round fires at a
  scheduled simulation time, events or not — this is the
  :class:`~repro.framework.online.OnlineSimulator` behaviour and the path
  the golden cross-check test pins bit-identically;
* an **admission count** (:attr:`Trigger.count`): the round fires at the
  timestamp of the N-th admission event (arrival or publish) since the last
  round — latency-oriented micro-batching with no idle rounds.

:class:`HybridTrigger` arms both and fires on whichever comes first.
:class:`AdaptiveTrigger` is a time trigger whose window halves when a
round's measured latency exceeds the budget and grows back while it runs
comfortably under it, converging to the largest batch that meets the
latency target.

Triggers expose ``state_dict``/``load_state_dict`` so checkpoints can
capture adaptation state; stateless triggers return ``{}``.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.stream.metrics import RoundRecord


class Trigger(abc.ABC):
    """Decides the firing times of assignment rounds."""

    #: Stable policy name ("count"/"window"/...): recorded in checkpoints so
    #: a resume under a different policy fails with a clear message (and the
    #: CLI can validate flag combinations before doing any work).
    kind: str = "trigger"

    #: Fire at the N-th admission event since the last round (None = never).
    count: int | None = None

    #: Whether a round fires at the stream's start time before any window
    #: elapses (time-based triggers mirror the online simulator's t0 round).
    fires_at_start: bool = True

    def next_boundary(self, last_round_time: float) -> float | None:
        """The next scheduled boundary after ``last_round_time`` (or None)."""
        return None

    def on_round(self, record: "RoundRecord") -> None:
        """Observe a completed round (adaptive triggers tune themselves).

        The record carries per-phase timings
        (``drain_seconds``/``prepare_seconds``/``solve_seconds``/
        ``merge_seconds``) alongside ``round_seconds``; note the phase
        spans are cumulative across shards and can exceed the wall clock
        on the thread executor, so latency-budget policies (like
        :class:`AdaptiveTrigger`'s default ``cost_of``) should keep keying
        off ``round_seconds``, the true per-round wall time.
        """

    def state_dict(self) -> dict[str, Any]:
        """Serializable adaptation state (empty when stateless)."""
        return {}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (no-op when stateless)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CountTrigger(Trigger):
    """Fire at the timestamp of every N-th admission event.

    Pure count triggers schedule no boundaries: quiet stretches of the
    stream produce no empty rounds, and a final flush round at the end time
    drains whatever never reached a full batch.
    """

    kind = "count"
    fires_at_start = False

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = count

    def __repr__(self) -> str:
        return f"CountTrigger(count={self.count})"


class TimeWindowTrigger(Trigger):
    """Fire every ``window_hours`` of simulation time.

    With ``window_hours == batch_hours`` this reproduces the batched
    :class:`~repro.framework.online.OnlineSimulator` boundaries exactly.
    """

    kind = "window"

    def __init__(self, window_hours: float) -> None:
        if not window_hours > 0:
            raise ValueError(f"window_hours must be positive, got {window_hours}")
        self.window_hours = window_hours

    def next_boundary(self, last_round_time: float) -> float | None:
        return last_round_time + self.window_hours

    def __repr__(self) -> str:
        return f"TimeWindowTrigger(window_hours={self.window_hours})"


class HybridTrigger(Trigger):
    """Fire on whichever of a count or a time window comes first."""

    kind = "hybrid"

    def __init__(self, count: int, window_hours: float) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not window_hours > 0:
            raise ValueError(f"window_hours must be positive, got {window_hours}")
        self.count = count
        self.window_hours = window_hours

    def next_boundary(self, last_round_time: float) -> float | None:
        return last_round_time + self.window_hours

    def __repr__(self) -> str:
        return (
            f"HybridTrigger(count={self.count}, window_hours={self.window_hours})"
        )


class AdaptiveTrigger(Trigger):
    """A time window that seeks a per-round latency budget.

    After each round the measured cost is compared to ``target_seconds``:
    over budget halves the window (smaller batches, lower latency), under
    half the budget grows it by ``growth`` (bigger batches, higher
    throughput); both are clamped to ``[min_window_hours,
    max_window_hours]``.

    ``cost_of`` selects the feedback signal.  The default is the measured
    wall-clock ``round_seconds``; tests and simulations can pass a
    deterministic function of the :class:`~repro.stream.metrics.RoundRecord`
    (e.g. pool sizes) so that adaptation — and therefore checkpoint/replay —
    is reproducible.
    """

    kind = "adaptive"

    def __init__(
        self,
        target_seconds: float,
        initial_window_hours: float = 1.0,
        min_window_hours: float = 0.05,
        max_window_hours: float = 8.0,
        growth: float = 1.5,
        cost_of=None,
    ) -> None:
        if not target_seconds > 0:
            raise ValueError(f"target_seconds must be positive, got {target_seconds}")
        if not (0 < min_window_hours <= initial_window_hours <= max_window_hours):
            raise ValueError(
                "window bounds must satisfy 0 < min <= initial <= max, got "
                f"({min_window_hours}, {initial_window_hours}, {max_window_hours})"
            )
        if not growth > 1.0:
            raise ValueError(f"growth must exceed 1, got {growth}")
        self.target_seconds = target_seconds
        self.window_hours = initial_window_hours
        self.min_window_hours = min_window_hours
        self.max_window_hours = max_window_hours
        self.growth = growth
        self.cost_of = cost_of if cost_of is not None else (
            lambda record: record.round_seconds
        )

    def next_boundary(self, last_round_time: float) -> float | None:
        return last_round_time + self.window_hours

    def on_round(self, record: "RoundRecord") -> None:
        cost = float(self.cost_of(record))
        if cost > self.target_seconds:
            self.window_hours = max(self.window_hours / 2.0, self.min_window_hours)
        elif cost < 0.5 * self.target_seconds:
            self.window_hours = min(
                self.window_hours * self.growth, self.max_window_hours
            )

    def state_dict(self) -> dict[str, Any]:
        return {"window_hours": self.window_hours}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore adaptation state, re-imposing this trigger's bounds.

        A checkpoint written under different bounds (or a hand-edited one)
        may carry a ``window_hours`` outside ``[min_window_hours,
        max_window_hours]``; accepting it verbatim would let
        :meth:`on_round`'s clamp arms pin the window there.  Non-finite or
        non-positive values are corrupt state and rejected outright.
        """
        from repro.exceptions import DataError

        window = float(state["window_hours"])
        if not math.isfinite(window) or window <= 0.0:
            raise DataError(
                f"checkpointed window_hours must be finite and positive, got {window}"
            )
        self.window_hours = min(
            max(window, self.min_window_hours), self.max_window_hours
        )

    def __repr__(self) -> str:
        return (
            f"AdaptiveTrigger(target_seconds={self.target_seconds}, "
            f"window_hours={self.window_hours})"
        )
