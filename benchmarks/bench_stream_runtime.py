"""Substrate bench: streaming runtime throughput and round-latency tails.

Drives :class:`~repro.stream.StreamRuntime` over synthetic Poisson streams
at 10x and 100x the paper's per-day arrival volumes and reports events/sec
plus p50/p99 round latency for each trigger policy (count, time window,
hybrid, latency-adaptive).  A cross-check against the batched
:class:`~repro.framework.OnlineSimulator` pins the equivalence configuration
at bench scale.

Further column groups cover a clustered 8-shard world: the
**lexicographic round solve** (round-solve p50/p99 of the production
solver) and **observability on vs off** (identical output, bounded
overhead).

``REPRO_BENCH_SCALE`` scales the stream volumes like the other benches
(default 0.15; CI smoke runs 0.05; 1.0 is the full 10-100x grid).
"""

import os

import numpy as np
import pytest
from figutil import bench_artifact

from repro.assignment import MTAAssigner, NearestNeighborAssigner
from repro.assignment.lexico import LexicographicCostAssigner
from repro.framework import OnlineSimulator, WorkerArrival
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.stream import (
    AdaptiveTrigger,
    CountTrigger,
    HybridTrigger,
    StreamRuntime,
    TimeWindowTrigger,
    log_from_arrivals,
    synthetic_stream,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))

#: The paper's days peak around 2.5k tasks / 2k workers; one "rate unit"
#: here is that volume per simulated day, multiplied by the rate factor.
PAPER_DAY_WORKERS = 2000
PAPER_DAY_TASKS = 2500


def make_stream(rate_factor: int, seed: int = 17):
    num_workers = max(int(PAPER_DAY_WORKERS * rate_factor * BENCH_SCALE), 50)
    num_tasks = max(int(PAPER_DAY_TASKS * rate_factor * BENCH_SCALE), 50)
    return synthetic_stream(
        num_workers=num_workers,
        num_tasks=num_tasks,
        duration_hours=24.0,
        area_km=60.0,
        valid_hours=4.0,
        reachable_km=20.0,
        churn_fraction=0.05,
        cancel_fraction=0.02,
        seed=seed,
    )


TRIGGERS = {
    "count": lambda: CountTrigger(64),
    "window": lambda: TimeWindowTrigger(0.5),
    "hybrid": lambda: HybridTrigger(64, 0.5),
    "adaptive": lambda: AdaptiveTrigger(
        target_seconds=0.05, initial_window_hours=0.5, min_window_hours=0.05,
        max_window_hours=4.0,
    ),
}


@pytest.mark.parametrize("rate_factor", [10, 100])
@pytest.mark.parametrize("policy", sorted(TRIGGERS))
def test_stream_trigger_policies(benchmark, policy, rate_factor):
    base, log = make_stream(rate_factor)
    runtime = StreamRuntime(
        NearestNeighborAssigner(), None, TRIGGERS[policy](), base, log,
        patience_hours=6.0,
    )
    result = benchmark.pedantic(runtime.run, rounds=1, iterations=1)
    summary = result.summary()
    print(
        f"\n{policy:>8} @ {rate_factor:>3}x: {summary.rounds} rounds, "
        f"{summary.assigned} assigned, {summary.events_per_second:,.0f} events/s, "
        f"round latency p50 {summary.round_latency_p50 * 1e3:.2f} ms / "
        f"p99 {summary.round_latency_p99 * 1e3:.2f} ms, "
        f"task wait p50 {summary.task_wait_p50:.2f} h"
    )
    assert summary.assigned > 0
    # Every admission event precedes the default end time (the latest task
    # deadline), so all of them must have been drained; only expiry/churn
    # events landing exactly on or after the end may remain unconsumed.
    admissions = sum(1 for event in log if event.phase <= 1)
    assert summary.events_drained >= admissions
    bench_artifact(
        f"stream_trigger_{policy}_{rate_factor}x",
        {"policy": policy, "rate_factor": rate_factor,
         "bench_scale": BENCH_SCALE, **summary_payload(summary)},
    )


@pytest.mark.parametrize("rate_factor", [10])
def test_stream_flow_assigner(benchmark, rate_factor):
    """The MTA (flow-based) assigner under hybrid micro-batching."""
    base, log = make_stream(rate_factor)
    runtime = StreamRuntime(
        MTAAssigner(), None, HybridTrigger(64, 0.5), base, log,
        patience_hours=6.0,
    )
    result = benchmark.pedantic(runtime.run, rounds=1, iterations=1)
    summary = result.summary()
    print(
        f"\nMTA hybrid @ {rate_factor}x: {summary.rounds} rounds, "
        f"{summary.assigned} assigned, {summary.events_per_second:,.0f} events/s, "
        f"p99 round {summary.round_latency_p99 * 1e3:.2f} ms"
    )
    assert summary.assigned > 0


#: Separated city clusters for the sharded columns (mirrors
#: ``bench_stream_shards``: the world shape whose rounds decompose).
CLUSTERS = 8


def make_clustered_stream(rate_factor: int, seed: int = 31):
    num_workers = max(int(PAPER_DAY_WORKERS * rate_factor * BENCH_SCALE), 80)
    num_tasks = max(int(PAPER_DAY_TASKS * rate_factor * BENCH_SCALE), 80)
    return synthetic_stream(
        num_workers=num_workers,
        num_tasks=num_tasks,
        duration_hours=24.0,
        area_km=25.0,
        valid_hours=4.0,
        reachable_km=10.0,
        churn_fraction=0.05,
        cancel_fraction=0.02,
        clusters=CLUSTERS,
        seed=seed,
    )


#: Admissions per micro-batch for the observability column.  Uniform
#: count batches keep every round comparably heavy, so the p50 round
#: latency measures the typical round rather than the near-empty boundary
#: rounds a skewed time-window stream produces.
SHARD_BATCH = 4096


def run_sharded(base, log, *, trigger, obs=None):
    return StreamRuntime(
        NearestNeighborAssigner(), None, trigger, base, log,
        patience_hours=6.0, shards=CLUSTERS, obs=obs,
    ).run()


def sorted_pairs(result):
    return sorted(
        (pair.worker.worker_id, pair.task.task_id)
        for pair in result.assignment.pairs
    )


def summary_payload(summary):
    """The artifact-worthy slice of a stream summary."""
    return {
        "rounds": summary.rounds,
        "assigned": summary.assigned,
        "events_per_second": summary.events_per_second,
        "round_latency_p50_s": summary.round_latency_p50,
        "round_latency_p99_s": summary.round_latency_p99,
        "task_wait_p50_h": summary.task_wait_p50,
    }


class DistanceLexAssigner(LexicographicCostAssigner):
    """Lexicographic matching over raw distances (production solver)."""

    name = "DistLex"

    def edge_costs(self, prepared):
        return prepared.feasible.distance_km


@pytest.mark.parametrize("rate_factor", [10, 100])
def test_lexicographic_round_solve_latency(benchmark, rate_factor):
    """Round-solve p50/p99 of the production lexicographic solver.

    The solve percentiles come from ``RoundRecord.solve_seconds`` of an
    8-shard run; ``tests/scenarios`` pins its pairs to the unsharded run.
    """
    base, log = make_clustered_stream(rate_factor)

    def run():
        with StreamRuntime(
            DistanceLexAssigner(), None, TimeWindowTrigger(0.5),
            base, log, patience_hours=6.0, shards=CLUSTERS,
        ) as runtime:
            return runtime.run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    assert result.total_assigned > 0
    seconds = [
        r.solve_seconds for r in result.rounds
        if r.online_workers and r.open_tasks
    ]
    p50 = float(np.percentile(seconds, 50))
    p99 = float(np.percentile(seconds, 99))
    print(
        f"\n{rate_factor:>3}x rate, {CLUSTERS} shards: "
        f"solve p50 {p50 * 1e3:.2f} ms / p99 {p99 * 1e3:.2f} ms, "
        f"{len(seconds)} solved rounds, {result.total_assigned} assigned"
    )
    bench_artifact(
        f"stream_lexicographic_solve_{rate_factor}x",
        {"rate_factor": rate_factor, "bench_scale": BENCH_SCALE,
         "shards": CLUSTERS, "solve_p50_s": p50, "solve_p99_s": p99,
         "summary": summary_payload(result.summary())},
    )


@pytest.mark.parametrize("rate_factor", [10, 100])
def test_obs_on_vs_off_rounds(benchmark, rate_factor):
    """Full telemetry (registry + tracer) vs the inert default.

    Output must be bit-identical — the telemetry layer only reads values
    the runtime already computed — and the round-p50 overhead must stay
    under 5 %.  The overhead is measured on the raw per-round seconds (not
    the histogram-quantized summary, whose ~3.7 % bucket error would eat
    most of the budget).
    """
    base, log = make_clustered_stream(rate_factor)
    off = run_sharded(base, log, trigger=CountTrigger(SHARD_BATCH))
    obs = Observability(registry=MetricsRegistry(), tracer=Tracer())
    on = benchmark.pedantic(
        lambda: run_sharded(base, log, trigger=CountTrigger(SHARD_BATCH),
                            obs=obs),
        rounds=1, iterations=1,
    )

    assert sorted_pairs(on) == sorted_pairs(off)
    assert [r.assigned for r in on.rounds] == [r.assigned for r in off.rounds]
    # The sinks actually captured the run.
    assert any(f.name == "repro_stream_rounds_total"
               for f in obs.registry.families())
    assert any(e["ph"] == "X" for e in obs.tracer.events())

    off_p50 = float(np.percentile([r.round_seconds for r in off.rounds], 50))
    on_p50 = float(np.percentile([r.round_seconds for r in on.rounds], 50))
    overhead = on_p50 / off_p50 - 1.0 if off_p50 > 0 else 0.0
    print(
        f"\n{rate_factor:>3}x rate, {CLUSTERS} shards: "
        f"obs-off p50 {off_p50 * 1e3:.2f} ms, "
        f"obs-on p50 {on_p50 * 1e3:.2f} ms "
        f"({overhead * 100:+.1f}% overhead, "
        f"{len(obs.tracer.events())} trace events)"
    )
    bench_artifact(
        f"stream_obs_overhead_{rate_factor}x",
        {"rate_factor": rate_factor, "bench_scale": BENCH_SCALE,
         "round_p50_off_s": off_p50, "round_p50_on_s": on_p50,
         "overhead": overhead, "trace_events": len(obs.tracer.events())},
    )
    if BENCH_SCALE >= 0.15 and rate_factor >= 100:
        assert overhead < 0.05, (
            f"telemetry overhead regressed: {overhead * 100:.1f}% >= 5%"
        )


def test_stream_matches_online_simulator(benchmark):
    """Equivalence configuration at bench scale: same pairs, same rounds."""
    base, log = make_stream(10, seed=23)
    arrivals = [
        WorkerArrival(worker=event.worker, arrival_time=event.time)
        for event in log
        if type(event).__name__ == "WorkerArrivalEvent"
    ]
    tasks = [
        event.task for event in log if type(event).__name__ == "TaskPublishEvent"
    ]
    instance = base.with_tasks(tasks)
    online = OnlineSimulator(NearestNeighborAssigner(), None, batch_hours=1.0).run(
        instance, arrivals
    )
    runtime = StreamRuntime(
        NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base,
        log_from_arrivals(arrivals, tasks),
    )
    result = benchmark.pedantic(runtime.run, rounds=1, iterations=1)
    stream_pairs = sorted(
        (p.worker.worker_id, p.task.task_id) for p in result.assignment.pairs
    )
    online_pairs = sorted(
        (p.worker.worker_id, p.task.task_id) for p in online.assignment.pairs
    )
    print(
        f"\nequivalence: {len(stream_pairs)} pairs, "
        f"{len(result.rounds)} rounds (online {len(online.steps)})"
    )
    assert stream_pairs == online_pairs
    assert [s.assigned for s in online.steps] == [r.assigned for r in result.rounds]
