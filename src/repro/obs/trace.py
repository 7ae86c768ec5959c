"""Span tracing in the Chrome trace-event format (Perfetto-compatible).

:class:`Tracer` collects *complete* spans (``"ph": "X"``) and *instant*
events (``"ph": "i"``) into an in-memory list and serializes them as the
JSON object format Perfetto / ``chrome://tracing`` open directly::

    {"traceEvents": [{"name": "solve", "ph": "X", "ts": ..., "dur": ...,
                      "pid": ..., "tid": ..., "cat": "stream",
                      "args": {"shard": 3}}, ...],
     "displayTimeUnit": "ms"}

Every timestamp comes from one clock, :func:`clock_ns`, which reads
monotonic nanoseconds.  That clock never steps backwards, so no span has
a negative duration.  Event timestamps are microseconds past the tracer's
epoch, read from the same clock.  The stream runtime measures each phase
once, as an :class:`Interval`, and derives its round records, these spans
and its phase histograms from that one measurement.

The off switch mirrors the registry's: :class:`NullTracer` hands out one
shared no-op span, so un-instrumented code paths cost an ``enabled`` check
or a no-op call.  Tracing is pure observation — span arguments only carry
values the runtime already computed — which is what the obs-on vs obs-off
differential tests pin.

:func:`validate_trace_events` is the schema contract: tests and the CI
smoke job run it over emitted files, so a drifting event shape fails fast
rather than producing files Perfetto silently mis-renders.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from repro.exceptions import DataError
from repro.ioutil import atomic_write_text

__all__ = [
    "Interval",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "clock_ns",
    "validate_trace_events",
]

#: Event phases the emitter produces and the validator accepts.
_PHASES = ("X", "i", "M")


def clock_ns() -> int:
    """The one clock every measured phase and trace event reads.

    ``time.monotonic_ns``: wall-clock steps (NTP, DST) cannot move it.
    """
    return time.monotonic_ns()


class Interval(NamedTuple):
    """One measured phase: monotonic start and end."""

    start_ns: int
    end_ns: int

    @classmethod
    def since(cls, start_ns: int) -> "Interval":
        """The interval from ``start_ns`` to now."""
        return cls(start_ns, clock_ns())

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _Span:
    """A live complete-event span; close it via the context manager."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start_ns = clock_ns()

    def note(self, **args: Any) -> None:
        """Attach result arguments discovered while the span was open."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.complete(
            self.name,
            self._start_ns,
            clock_ns(),
            cat=self.cat,
            args=self.args or None,
        )


class _NullSpan:
    """The shared do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()

    def note(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe collector of trace events on one monotonic timeline."""

    enabled = True

    def __init__(self, process_name: str = "repro-stream") -> None:
        self.process_name = process_name
        self.epoch_ns = clock_ns()
        self._pid = os.getpid()
        self._events: list[dict] = []
        self._lock = threading.Lock()

    # -------------------------------------------------------------- emission
    def _ts(self, t_ns: int) -> float:
        return (t_ns - self.epoch_ns) / 1e3

    def span(self, name: str, cat: str = "stream", **args: Any) -> _Span:
        """Open a complete-event span (use as a context manager)."""
        return _Span(self, name, cat, dict(args))

    def complete(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        cat: str = "stream",
        pid: int | None = None,
        tid: int | None = None,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record one finished span from explicit :func:`clock_ns` readings.

        ``pid``/``tid`` default to the calling process/thread.
        """
        event = {
            "name": name,
            "ph": "X",
            "cat": cat,
            "ts": self._ts(start_ns),
            "dur": (end_ns - start_ns) / 1e3,
            "pid": int(pid if pid is not None else self._pid),
            "tid": int(tid if tid is not None else threading.get_ident()),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    def instant(
        self,
        name: str,
        *,
        cat: str = "stream",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a point-in-time event (admission gates)."""
        event = {
            "name": name,
            "ph": "i",
            "s": "p",  # process-scoped instant
            "cat": cat,
            "ts": self._ts(clock_ns()),
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------- rendering
    def events(self) -> list[dict]:
        """A snapshot copy of the recorded events."""
        with self._lock:
            return [dict(event) for event in self._events]

    def to_payload(self) -> dict:
        """The full trace-event JSON object (metadata + events)."""
        metadata = {
            "name": "process_name",
            "ph": "M",
            "pid": self._pid,
            "tid": 0,
            "ts": 0.0,
            "args": {"name": self.process_name},
        }
        return {
            "traceEvents": [metadata, *self.events()],
            "displayTimeUnit": "ms",
        }

    def write(self, path: str | Path) -> Path:
        """Atomically write the trace JSON to ``path`` and return it."""
        return atomic_write_text(
            Path(path), json.dumps(self.to_payload(), sort_keys=True)
        )


class NullTracer:
    """The off switch: spans are shared no-ops, nothing is recorded."""

    enabled = False

    def span(self, name: str, cat: str = "stream", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, name, start_ns, end_ns, *, cat="stream", pid=None,
                 tid=None, args=None) -> None:
        pass

    def instant(self, name, *, cat="stream", args=None) -> None:
        pass

    def events(self) -> list[dict]:
        return []


#: Shared default used wherever no tracer was configured.
NULL_TRACER = NullTracer()


def validate_trace_events(payload: Mapping[str, Any]) -> None:
    """Check a trace payload against the trace-event schema.

    Raises :class:`~repro.exceptions.DataError` naming the first offending
    event.  Validates the subset of the Chrome trace-event format this
    module emits: an object with a ``traceEvents`` list whose entries carry
    ``name``/``ph``/``ts``/``pid``/``tid``, with ``dur >= 0`` on complete
    events and a scope flag on instants.
    """
    if not isinstance(payload, Mapping) or "traceEvents" not in payload:
        raise DataError("trace payload must be an object with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise DataError("'traceEvents' must be a list")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, Mapping):
            raise DataError(f"{where} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise DataError(f"{where} is missing {key!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise DataError(f"{where} has a non-string name")
        if event["ph"] not in _PHASES:
            raise DataError(
                f"{where} has unsupported phase {event['ph']!r} "
                f"(expected one of {_PHASES})"
            )
        for key in ("pid", "tid"):
            if not isinstance(event[key], int):
                raise DataError(f"{where} has a non-integer {key!r}")
        if event["ph"] != "M":
            if not isinstance(event.get("ts"), (int, float)):
                raise DataError(f"{where} has a non-numeric 'ts'")
        if event["ph"] == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise DataError(f"{where} needs a non-negative 'dur'")
        if event["ph"] == "i" and event.get("s") not in ("g", "p", "t"):
            raise DataError(f"{where} instant needs scope 's' in g/p/t")
        if "args" in event and not isinstance(event["args"], Mapping):
            raise DataError(f"{where} has non-object 'args'")
