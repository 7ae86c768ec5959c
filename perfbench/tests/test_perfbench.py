"""Tests of the benchmark harness itself.

Every workload runs in its smoke setting (tiny inputs, seconds per run)
through the real entry point, traced and untraced; the span analysis is
checked on hand-made spans and on real traced repeats; and no process may
outlive a run, whether it returns, times out or is interrupted.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]


def _load(name: str):
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # spans.py imports repro
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


run = _load("run")

#: Per-layer metrics that must be non-zero on each workload: every layer
#: ``perfbench/README.md`` lists for it.  A wrapper installed where the
#: caller does not look would leave its layer at 0.
ACTIVE = {
    "assign-day": [
        "data.generate_s", "data.build_day_s", "affinity.fit_s",
        "willingness.fit_s", "willingness.workers", "propagation.graph_s",
        "propagation.rrr_s", "propagation.rrr_sets", "assignment.feasible_s",
        "assignment.feasible_pairs", "influence.matrix_s", "influence.cells",
        "assignment.solve_s", "assignment.solve_calls",
        *(f"assignment.solve_s.{name}" for name in ("MTA", "IA", "EIA", "DIA", "MI")),
        *(f"assignment.assigned.{name}" for name in ("MTA", "IA", "EIA", "DIA", "MI")),
        "stream.other_s", "trace.wall_s", "run.wall_s", "influence.avg_assigned",
    ],
    "stream-week": [
        "data.generate_s", "data.build_day_s", "affinity.fit_s",
        "willingness.fit_s", "willingness.workers", "propagation.graph_s",
        "propagation.rrr_s", "propagation.rrr_sets", "influence.matrix_s",
        "influence.cells", "assignment.solve_s", "assignment.solve_s.IA",
        "assignment.solve_calls", "stream.drain_s", "stream.drain_events",
        "stream.prepare_s", "stream.prepare_cells", "stream.merge_s",
        "stream.checkpoint_s", "stream.checkpoint_p50_ms",
        "stream.checkpoint_bytes", "stream.checkpoint_chunk_reuse",
        "stream.other_s", "stream.round_p50_ms", "stream.round_p90_ms",
        "stream.round_samples", "stream.events_per_s", "trace.wall_s",
        "run.wall_s", "influence.avg_assigned",
    ],
    "stream-burst": [
        "data.generate_s", "assignment.solve_s", "assignment.solve_s.MTA",
        "assignment.solve_calls", "stream.drain_s", "stream.drain_events",
        "stream.prepare_s", "stream.prepare_cells", "stream.merge_s",
        "stream.shard_skew", "stream.other_s", "stream.round_p50_ms",
        "stream.round_p90_ms", "stream.round_samples", "stream.events_per_s",
        "trace.wall_s", "run.wall_s",
    ],
}


def bench(*args: str, cwd: Path = ROOT, timeout: float = 150):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def child_pid(stderr: str) -> int:
    for line in stderr.splitlines():
        if line.startswith("perfbench: child pid "):
            return int(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no child pid in stderr:\n{stderr}")


def assert_nothing_left(pid: int) -> None:
    assert run.survivors(os.getpid(), pid) == []
    assert not Path(f"/proc/{pid}").exists()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        if not trace:
            assert measured["value"] > 0, metric["name"]
    for name in ACTIVE[workload] if trace else ():
        assert result["metrics"][name]["value"] > 0, name
    assert_nothing_left(child_pid(done.stderr))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_times_account_for_a_traced_wall(workload, tmp_path):
    spans = _load("spans")
    workloads = _load("workloads")
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        workloads.make_workload(workload, 5, True, tmp_path).repeat(recorder, check_all=True)
    finally:
        recorder.uninstall()
    wall, other, overlap = recorder.timed_accounting()
    timed = sum(recorder.self_times(recorder.timed_spans()).values())
    assert wall > 0 and timed > 0
    assert timed + other - overlap == pytest.approx(wall, rel=1e-9)


def test_span_analysis_on_known_spans():
    spans = _load("spans")
    recorder = spans.SpanRecorder()
    ms = 1_000_000
    recorder.mark("timed", 0, 100 * ms)
    recorder.mark("round", 0, 100 * ms)
    main, pool = 1, 2
    recorder.spans += [
        # main thread: prepare [10, 50) with an influence fill [20, 30)
        ("stream.prepare", "", 10 * ms, 50 * ms, main),
        ("influence.matrix", "", 20 * ms, 30 * ms, main),
        # two solves, one overlapping the prepare on a pool thread
        ("assignment.solve", "MTA", 40 * ms, 70 * ms, pool),
        ("assignment.solve", "MTA", 80 * ms, 90 * ms, main),
        # set-up work outside the timed region
        ("data.generate", "", -50 * ms, -10 * ms, main),
    ]
    self_times = recorder.self_times()
    assert self_times["stream.prepare", ""] == pytest.approx(0.030)
    assert self_times["influence.matrix", ""] == pytest.approx(0.010)
    assert self_times["assignment.solve", "MTA"] == pytest.approx(0.040)
    wall, other, overlap = recorder.timed_accounting()
    assert wall == pytest.approx(0.100)
    # covered: [10, 70) and [80, 90) -> 70 ms; 10 ms of it ran twice
    assert other == pytest.approx(0.030)
    assert overlap == pytest.approx(0.010)
    layer_sum = 0.030 + 0.010 + 0.040
    assert layer_sum - overlap + other == pytest.approx(wall)
    assert recorder.shard_skew() == pytest.approx(30 / 20)


def test_install_restores_every_entry_point():
    spans = _load("spans")
    originals = [owner.__dict__[name] for owner, name, _, _ in spans.WRAPPED]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert all(
            owner.__dict__[name] is not original
            for (owner, name, _, _), original in zip(spans.WRAPPED, originals)
        )
    finally:
        recorder.uninstall()
    assert all(
        owner.__dict__[name] is original
        for (owner, name, _, _), original in zip(spans.WRAPPED, originals)
    )


def test_timeout_kills_the_run(tmp_path, capsys):
    command = run.child_command("stream-burst", 5, 120, 0, True, tmp_path)
    code, stdout = run.supervise(command, run.child_environment(), 3)
    assert code != 0
    assert stdout == ""
    assert_nothing_left(child_pid(capsys.readouterr().err))


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_interrupt_leaves_no_process(signum):
    parent = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "stream-burst",
         "--seed", "5", "--seconds", "120", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        pid = child_pid(parent.stderr.readline())
        time.sleep(2.0)
        assert parent.poll() is None
        parent.send_signal(signum)
        stdout, _ = parent.communicate(timeout=60)
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
    assert parent.returncode != 0
    assert stdout == ""
    assert_nothing_left(pid)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "5", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
