"""In-memory spans around the public entry points of each ``repro`` layer.

The traced benchmark child calls :meth:`SpanRecorder.install`, which
replaces a fixed list of public functions and methods (``WRAPPED`` below)
with timing wrappers; :meth:`SpanRecorder.uninstall` puts the originals
back.  Nothing under ``src/`` changes, and the untraced children never
install anything.

A span is ``(layer, tag, start_ns, end_ns, thread_id)``.  Spans are kept in
a list (``list.append`` is atomic, so the thread executor's pool threads
record spans too) and analysed when the run ends:

* a layer's *self time* is its span duration minus the time covered by
  spans nested inside it on the same thread;
* ``other`` is the timed wall minus the union of every layer span's
  interval over all threads, so that layer self times + other - overlap
  equal the wall, where *overlap* is the layer time that ran concurrently
  on more than one thread.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import repro.data
import repro.stream
from repro.affinity import AffinityModel
from repro.assignment import MIAssigner, MTAAssigner, PreparedInstance, RoundState
from repro.assignment.lexico import LexicographicCostAssigner
from repro.data import InstanceBuilder
from repro.framework import dita
from repro.influence import InfluenceModel
from repro.obs import Tracer, validate_trace_events
from repro.propagation import RPO, SocialGraph
import repro.stream.checkpoint as stream_checkpoint
from repro.stream.state import StreamState
from repro.willingness import HistoricalAcceptance

#: Assignment algorithms the batch workload runs, in the CLI's order.
ALGORITHMS = ("MTA", "IA", "EIA", "DIA", "MI")

#: Layers whose self time is reported, mapped to the metric name.
LAYER_METRICS = {
    "data.generate": "data.generate_s",
    "data.build_day": "data.build_day_s",
    "affinity.fit": "affinity.fit_s",
    "willingness.fit": "willingness.fit_s",
    "propagation.graph": "propagation.graph_s",
    "propagation.rrr": "propagation.rrr_s",
    "assignment.feasible": "assignment.feasible_s",
    "influence.matrix": "influence.matrix_s",
    "assignment.solve": "assignment.solve_s",
    "stream.drain": "stream.drain_s",
    "stream.prepare": "stream.prepare_s",
    "stream.merge": "stream.merge_s",
    "stream.checkpoint": "stream.checkpoint_s",
}

#: Work counts recorded at the same boundaries.
COUNT_METRICS = (
    "willingness.workers",
    "propagation.rrr_sets",
    "assignment.feasible_pairs",
    "influence.cells",
    "assignment.solve_calls",
    "stream.drain_events",
    "stream.prepare_cells",
    "stream.checkpoint_bytes",
) + tuple(f"assignment.assigned.{name}" for name in ALGORITHMS)


def _feasible_count(args, kwargs, result):
    return {"assignment.feasible_pairs": result.num_feasible}


def _cells(args, kwargs, result):
    return {"influence.cells": result.size}


def _assigned(args, kwargs, result):
    return {
        "assignment.solve_calls": 1,
        f"assignment.assigned.{args[0].name}": len(result),
    }


def _slice_events(args, kwargs, result):
    # apply_log_slice(self, log, start, stop, ...): the drained rows.
    return {"stream.drain_events": args[3] - args[2]}


def _prepare_cells(args, kwargs, result):
    instance = args[1]
    return {"stream.prepare_cells": len(instance.workers) * len(instance.tasks)}


def _histories(args, kwargs, result):
    return {"willingness.workers": len(args[1])}


def _rpo_sets(args, kwargs, result):
    return {"propagation.rrr_sets": len(result.collection)}


def _sampled_sets(args, kwargs, result):
    return {"propagation.rrr_sets": len(result[0])}


def _checkpoint_stats(args, kwargs, result):
    # The save's own chunk-store figures (``_save_checkpoint`` returns them).
    return {
        "stream.checkpoint_bytes": result["bytes_written"],
        "stream.checkpoint_chunks": result["chunks_total"],
        "stream.checkpoint_chunks_written": result["chunks_written"],
    }


#: ``(owner, attribute, layer, counter)`` for every wrapped entry point.
#: Module-level functions are wrapped where the caller looks them up: the
#: workloads call ``repro.data.generate_dataset`` and the ``repro.stream``
#: builders through the package, the pipeline calls the fixed-count RRR
#: sampler through ``repro.framework.dita``, and ``StreamRuntime.checkpoint``
#: reaches the save through ``repro.stream.checkpoint``, whose private
#: ``_save_checkpoint`` is wrapped because it returns the save's statistics.
WRAPPED = (
    (repro.data, "generate_dataset", "data.generate", None),
    (repro.stream, "synthetic_stream", "data.generate", None),
    (InstanceBuilder, "build_day", "data.build_day", None),
    (repro.stream, "multi_day_stream", "data.build_day", None),
    (AffinityModel, "fit", "affinity.fit", None),
    (HistoricalAcceptance, "fit", "willingness.fit", _histories),
    (SocialGraph, "__init__", "propagation.graph", None),
    (RPO, "run", "propagation.rrr", _rpo_sets),
    (dita, "sample_rrr_sets_batched", "propagation.rrr", _sampled_sets),
    (PreparedInstance, "feasible", "assignment.feasible", _feasible_count),
    (InfluenceModel, "influence_matrix", "influence.matrix", _cells),
    (MTAAssigner, "assign", "assignment.solve", _assigned),
    (MIAssigner, "assign", "assignment.solve", _assigned),
    (LexicographicCostAssigner, "assign", "assignment.solve", _assigned),
    (StreamState, "apply_log_slice", "stream.drain", _slice_events),
    (StreamState, "expire_tasks", "stream.drain", None),
    (StreamState, "churn_workers", "stream.drain", None),
    (RoundState, "prepare", "stream.prepare", _prepare_cells),
    (StreamState, "retire_pairs", "stream.merge", None),
    (stream_checkpoint, "_save_checkpoint", "stream.checkpoint", _checkpoint_stats),
)


class NullRecorder:
    """The untraced run's recorder: every hook is a no-op."""

    def mark(self, name: str, start_ns: int, end_ns: int) -> None:
        pass

    def paused(self):
        return contextlib.nullcontext()


class SpanRecorder:
    """Collects layer spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, int, int]] = []
        #: Structural spans of the benchmark loop itself (``timed`` and
        #: ``round``); they bound the accounting but belong to no layer.
        self.marks: list[tuple[str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._paused = False

    # ------------------------------------------------------------ recording
    def mark(self, name: str, start_ns: int, end_ns: int) -> None:
        self.marks.append((name, start_ns, end_ns))

    @contextlib.contextmanager
    def paused(self):
        """Stop recording for the block (output checks after timing)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _count(self, values: dict[str, int]) -> None:
        with self._lock:
            for name, value in values.items():
                self.counts[name] += value

    def _wrap(self, function, layer: str, counter):
        spans = self.spans

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if self._paused:
                return function(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tag = args[0].name if layer == "assignment.solve" else ""
                spans.append((layer, tag, start, end, threading.get_ident()))
            if counter is not None:
                self._count(counter(args, kwargs, result))
            return result

        return wrapper

    # ---------------------------------------------------------- install/undo
    def install(self) -> None:
        """Replace every entry point in ``WRAPPED`` with its timing wrapper."""
        if self._saved:
            raise RuntimeError("span recorder is already installed")
        for owner, attribute, layer, counter in WRAPPED:
            original = owner.__dict__[attribute]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(
                    self._wrap(original.func, layer, counter)
                )
                replacement.__set_name__(owner, attribute)
            else:
                replacement = self._wrap(original, layer, counter)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every original entry point (idempotent)."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- analysis
    def durations_ms(self, layer: str) -> list[float]:
        """Duration of every span of ``layer``, in milliseconds."""
        return [(end - start) / 1e6 for name, _, start, end, _ in self.spans
                if name == layer]

    def timed_spans(self) -> list[tuple[str, str, int, int, int]]:
        """The spans that lie inside a ``timed`` mark."""
        regions = [(s, e) for name, s, e in self.marks if name == "timed"]
        return [span for span in self.spans
                if any(s <= span[2] and span[3] <= e for s, e in regions)]

    def self_times(self, subset=None) -> dict[tuple[str, str], float]:
        """Seconds of self time per ``(layer, tag)``, over the spans in
        ``subset`` (by default every span)."""
        totals: dict[tuple[str, str], int] = defaultdict(int)
        by_thread: dict[int, list[tuple[str, str, int, int]]] = defaultdict(list)
        for layer, tag, start, end, thread in self.spans if subset is None else subset:
            by_thread[thread].append((layer, tag, start, end))
        for spans in by_thread.values():
            spans.sort(key=lambda span: (span[2], -span[3]))
            stack: list[list] = []  # [layer, tag, end, child_ns]
            for layer, tag, start, end in spans:
                while stack and stack[-1][2] <= start:
                    done = stack.pop()
                    totals[done[0], done[1]] -= done[3]
                if stack:
                    stack[-1][3] += end - start
                totals[layer, tag] += end - start
                stack.append([layer, tag, end, 0])
            for layer, tag, _, child in stack:
                totals[layer, tag] -= child
        return {key: value / 1e9 for key, value in totals.items()}

    def timed_accounting(self) -> tuple[float, float, float]:
        """``(wall, other, overlap)`` seconds over the ``timed`` marks.

        ``other`` is the part of the wall no layer span covers; ``overlap``
        is the layer self time that ran concurrently with other layer time
        on another thread.
        """
        inside = [(start, end, thread) for _, _, start, end, thread in self.timed_spans()]
        union = _covered(((s, e) for s, e, _ in inside))
        per_thread = 0
        for thread in {t for _, _, t in inside}:
            per_thread += _covered((s, e) for s, e, t in inside if t == thread)
        wall = sum(e - s for name, s, e in self.marks if name == "timed")
        return wall / 1e9, (wall - union) / 1e9, (per_thread - union) / 1e9

    def shard_skew(self) -> float:
        """Mean over rounds of max/mean per-shard solve time (0 if no round
        solved more than one shard)."""
        rounds = sorted((s, e) for name, s, e in self.marks if name == "round")
        solves = sorted(
            (start, end - start)
            for layer, _, start, end, _ in self.spans
            if layer == "assignment.solve"
        )
        ratios = []
        position = 0
        for round_start, round_end in rounds:
            durations = []
            while position < len(solves) and solves[position][0] < round_start:
                position += 1
            while position < len(solves) and solves[position][0] < round_end:
                durations.append(solves[position][1])
                position += 1
            if len(durations) > 1:
                ratios.append(max(durations) / statistics.fmean(durations))
        return statistics.fmean(ratios) if ratios else 0.0

    def write_chrome_trace(self, path: Path) -> Path:
        """Write every span as a Chrome trace-event file (Perfetto opens it)."""
        tracer = Tracer(process_name="perfbench")
        offset = time.time_ns() - time.perf_counter_ns()
        pid = os.getpid()
        for name, start, end in self.marks:
            tracer.complete(name, start + offset, end + offset, cat="bench",
                            pid=pid, tid=threading.main_thread().ident)
        for layer, tag, start, end, thread in self.spans:
            tracer.complete(layer, start + offset, end + offset,
                            cat=layer.split(".")[0], pid=pid, tid=thread,
                            args={"algorithm": tag} if tag else None)
        validate_trace_events(tracer.to_payload())
        return tracer.write(path)


def _covered(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total
