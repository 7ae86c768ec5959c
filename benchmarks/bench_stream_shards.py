"""Substrate bench: sharded vs unsharded streaming rounds.

Drives :class:`~repro.stream.StreamRuntime` over *clustered* synthetic
streams (multiple cities separated by more than the worker radius — the
world shape whose rounds decompose) at 10x and 100x the paper's per-day
arrival volumes, comparing the unsharded round path against the
cell-sharded :class:`~repro.stream.ShardExecutor`.

Two things are asserted:

* **exactness** — the sharded runs produce the identical assignment pair
  set and per-round counts (the layout never splits a feasible pair), at
  every scale;
* **speedup** — at the default bench scale or above, sharded rounds are
  faster than unsharded at the 100x rate (the per-round solve is
  super-linear in pool size, so k shards of ~n/k entities win even
  serially; the assertion uses a conservative threshold to stay
  meaningful on noisy shared runners).

``REPRO_BENCH_SCALE`` scales the stream volumes like the other benches
(default 0.15; CI smoke runs 0.05; 1.0 is the full 10-100x grid).
"""

import os

import pytest

from repro.assignment import IAAssigner, NearestNeighborAssigner
from repro.stream import ShardLayout, StreamRuntime, TimeWindowTrigger, synthetic_stream

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))

PAPER_DAY_WORKERS = 2000
PAPER_DAY_TASKS = 2500

#: Separated city clusters in the bench world (and the shard target).
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


def sorted_pairs(result):
    return sorted(
        (pair.worker.worker_id, pair.task.task_id)
        for pair in result.assignment.pairs
    )


def run_variant(base, log, assigner, shards=None):
    return StreamRuntime(
        assigner, None, TimeWindowTrigger(0.5), base, log,
        patience_hours=6.0, shards=shards,
    ).run()


def test_shard_layout_planning_rate(benchmark):
    """Layout planning is a per-run one-off; keep it cheap at 100x."""
    _, log = make_clustered_stream(100)
    layout = benchmark.pedantic(
        lambda: ShardLayout.plan(log, CLUSTERS), rounds=1, iterations=1
    )
    print(f"\nplanned {layout.num_shards} shards over {len(layout.cells)} cells "
          f"({len(log)} events)")
    assert layout.num_shards == CLUSTERS


@pytest.mark.parametrize("rate_factor", [10, 100])
def test_sharded_round_speedup(benchmark, rate_factor):
    """Sharded == unsharded assignments, at lower round latency."""
    base, log = make_clustered_stream(rate_factor)
    plain = run_variant(base, log, NearestNeighborAssigner())

    sharded_serial = benchmark.pedantic(
        lambda: run_variant(base, log, NearestNeighborAssigner(),
                            shards=CLUSTERS),
        rounds=1, iterations=1,
    )

    assert sorted_pairs(sharded_serial) == sorted_pairs(plain)
    assert [r.assigned for r in sharded_serial.rounds] == [
        r.assigned for r in plain.rounds
    ]

    plain_summary = plain.summary()
    serial_summary = sharded_serial.summary()
    speedup_serial = (
        plain_summary.round_latency_p50 / serial_summary.round_latency_p50
        if serial_summary.round_latency_p50 > 0 else float("inf")
    )
    print(
        f"\n{rate_factor:>3}x rate, {CLUSTERS} shards: round p50/p99 "
        f"unsharded {plain_summary.round_latency_p50 * 1e3:.2f}/"
        f"{plain_summary.round_latency_p99 * 1e3:.2f} ms, "
        f"sharded {serial_summary.round_latency_p50 * 1e3:.2f}/"
        f"{serial_summary.round_latency_p99 * 1e3:.2f} ms "
        f"({speedup_serial:.2f}x)"
    )
    if BENCH_SCALE >= 0.15 and rate_factor >= 100:
        assert speedup_serial >= 1.5, (
            f"sharded round latency regressed: {speedup_serial:.2f}x < 1.5x"
        )


def test_sharded_flow_assigner(benchmark):
    """The IA (min-cost-flow) assigner decomposes exactly too."""
    base, log = make_clustered_stream(10)
    plain = run_variant(base, log, IAAssigner())
    sharded = benchmark.pedantic(
        lambda: run_variant(base, log, IAAssigner(), shards=CLUSTERS),
        rounds=1, iterations=1,
    )
    assert sorted_pairs(sharded) == sorted_pairs(plain)
    plain_summary = plain.summary()
    sharded_summary = sharded.summary()
    print(
        f"\nIA 10x: unsharded p50 {plain_summary.round_latency_p50 * 1e3:.2f} ms, "
        f"sharded p50 {sharded_summary.round_latency_p50 * 1e3:.2f} ms"
    )
    assert sharded_summary.assigned == plain_summary.assigned > 0
