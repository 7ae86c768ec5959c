"""One benchmark run, in a fresh process started by ``run.py``.

Repeats the workload until the next repeat would overrun ``--seconds``
(at least twice), checks every repeat's outputs, and prints one JSON line
with the metrics on standard output.  With ``--trace 1`` the repeats
alternate untraced and traced (span wrappers installed for that repeat
only); the per-layer metrics come from the traced repeats, and the
untraced ones give the tracing overhead and the round latencies.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import ALGORITHMS, COUNT_METRICS, LAYER_METRICS, NullRecorder, SpanRecorder
from workloads import WORKLOADS, make_workload

#: Upper bound on repeats in one run, whatever ``--seconds`` allows.
MAX_REPEATS = 50


def die_with_parent() -> None:
    """Ask Linux to SIGKILL this process if ``run.py`` dies first, so that
    not even a SIGKILLed parent leaves the child behind."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        pr_set_pdeathsig = 1
        libc.prctl(pr_set_pdeathsig, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def run_repeats(workload, seconds: float, trace: bool):
    """``(plain, traced, recorder, peak_rss_mib)``: the untraced and traced
    repeats, and the peak RSS after the first one."""
    recorder = SpanRecorder() if trace else None
    null = NullRecorder()
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        first = not plain and not traced
        if use_trace:
            recorder.install()
            try:
                traced.append(workload.repeat(recorder, check_all=not traced))
            finally:
                recorder.uninstall()
        else:
            plain.append(workload.repeat(null, check_all=first))
        latest = (traced if use_trace else plain)[-1]
        print(f"perfbench: repeat {len(plain) + len(traced)}"
              f"{' traced' if use_trace else ''}: setup {latest.setup_s:.3f} s, "
              f"run {latest.run_s:.3f} s CPU, {latest.wall_s:.3f} s wall",
              file=sys.stderr, flush=True)
        if first:
            # Peak RSS of a fresh process that ran one repeat (KiB on Linux);
            # later repeats would add allocator fragmentation to it.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - started
        if done >= MAX_REPEATS or (done >= 2 and elapsed * (done + 1) / done > seconds):
            return plain, traced, recorder, peak_rss_mib


def end_to_end(plain, peak_rss_mib: float) -> dict[str, tuple[float, str]]:
    def median(field: str) -> float:
        return statistics.median(getattr(repeat, field) for repeat in plain)

    return {
        "setup_s": (median("setup_s"), "s"),
        "run_s": (median("run_s"), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "assigned": (plain[0].assigned, "count"),
    }


def per_layer(plain, traced, recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    runs = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    self_times = recorder.self_times()
    for layer, name in LAYER_METRICS.items():
        total = sum(value for (key, _), value in self_times.items() if key == layer)
        metrics[name] = (total / runs, "s")
    for algorithm in ALGORITHMS:
        seconds = self_times.get(("assignment.solve", algorithm), 0.0)
        metrics[f"assignment.solve_s.{algorithm}"] = (seconds / runs, "s")
    for name in COUNT_METRICS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (recorder.counts.get(name, 0) / runs, unit)
    saves_ms = recorder.durations_ms("stream.checkpoint")
    metrics["stream.checkpoint_p50_ms"] = (
        statistics.median(saves_ms) if saves_ms else 0.0, "ms"
    )
    chunks = recorder.counts.get("stream.checkpoint_chunks", 0)
    written = recorder.counts.get("stream.checkpoint_chunks_written", 0)
    metrics["stream.checkpoint_chunk_reuse"] = (
        (chunks - written) / chunks if chunks else 0.0, "ratio"
    )
    metrics["stream.shard_skew"] = (recorder.shard_skew(), "ratio")
    wall, other, overlap = recorder.timed_accounting()
    metrics["trace.wall_s"] = (wall / runs, "s")
    metrics["stream.other_s"] = (other / runs, "s")
    metrics["stream.overlap_s"] = (overlap / runs, "s")
    plain_run = statistics.median(repeat.run_s for repeat in plain)
    traced_run = statistics.median(repeat.run_s for repeat in traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_run / plain_run - 1.0), "%")

    # Untraced figures of the same run: wall time, round latency, throughput.
    metrics["run.wall_s"] = (statistics.median(repeat.wall_s for repeat in plain), "s")
    rounds = [ms for repeat in plain for ms in repeat.round_ms]
    p50, p90 = np.percentile(rounds, [50, 90]) if rounds else (0.0, 0.0)
    metrics["stream.round_p50_ms"] = (float(p50), "ms")
    metrics["stream.round_p90_ms"] = (float(p90), "ms")
    metrics["stream.round_samples"] = (len(rounds), "count")
    metrics["stream.events_per_s"] = (
        statistics.median(repeat.events / repeat.wall_s for repeat in plain)
        if rounds else 0.0,
        "events/s",
    )
    metrics["influence.avg_assigned"] = (plain[0].avg_influence, "influence")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    die_with_parent()

    workload = make_workload(args.workload, args.seed, args.smoke, args.out)
    plain, traced, recorder, peak_rss_mib = run_repeats(workload, args.seconds, bool(args.trace))
    repeats = plain + traced
    failures = [message for repeat in repeats for message in repeat.failures]
    attempted = sum(repeat.operations + repeat.checks for repeat in repeats)
    # Same seed, same outputs: every repeat, traced or not, must agree.
    for repeat in repeats[1:]:
        attempted += 1
        if (repeat.digest, repeat.assigned) != (repeats[0].digest, repeats[0].assigned):
            failures.append("assigned pairs differ between repeats of one seed")

    if args.trace:
        metrics = per_layer(plain, traced, recorder)
        recorder.write_chrome_trace(
            args.out / f"trace-{args.workload}-{args.seed}.json"
        )
    else:
        metrics = end_to_end(plain, peak_rss_mib)
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "repeats": len(repeats),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
