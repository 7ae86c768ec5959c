"""Crash-recovery smoke: SIGKILL the stream CLI mid-run, resume, compare.

The serving claim behind the v5 checkpoint format: a hard crash (OOM
killer, power loss — modelled here as ``SIGKILL``, which skips every
handler) between two periodic saves costs at most the rounds since the
last manifest, and replaying from that manifest reproduces the
uninterrupted run event for event.  The comparison is over the *final
checkpoints* of both runs — every pool entry, metrics row and RNG word —
excluding only the wall-clock timing columns, which honest measurement
makes unequal.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.stream import load_checkpoint

REPO = Path(__file__).resolve().parent.parent

#: Columns of the ``metrics_rounds`` rectangle holding measured seconds
#: (round/drain/prepare/solve/merge) — the only legitimately run-dependent
#: state in a checkpoint.  Order is pinned by ``RoundRecord.__slots__``.
TIMING_COLUMNS = (9, 13, 14, 15, 16)

STREAM_ARGS = [
    "stream", "--scale", "0.06", "--seed", "11", "--no-influence",
    "--show-rounds", "0",
]

#: The segmented variant: a multi-day world streamed through one-day
#: event-log segments, so the crash lands while only a window of the
#: horizon exists in memory.
SEGMENTED_ARGS = [*STREAM_ARGS, "--days", "3", "--segment-days", "1"]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def run_cli(args, cwd, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd, env=cli_env(), timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def checkpoint_payloads(path):
    """(meta, arrays) of a manifest, timing state zeroed out."""
    arrays = load_checkpoint(path)
    meta = json.loads(json.dumps(arrays.pop("meta")))
    rounds = np.array(arrays["metrics_rounds"], dtype=float)
    if rounds.size:
        rounds[:, TIMING_COLUMNS] = 0.0
    arrays["metrics_rounds"] = rounds
    arrays["metrics_wall_seconds"] = np.zeros(())
    return meta, arrays


def test_sigkill_mid_round_then_resume_is_event_identical(tmp_path):
    reference_dir = tmp_path / "reference"
    crash_dir = tmp_path / "crash"
    reference_dir.mkdir()
    crash_dir.mkdir()

    # The uninterrupted reference run, final state checkpointed.
    completed = run_cli(
        [*STREAM_ARGS, "--checkpoint", "run"], cwd=reference_dir
    )
    assert completed.returncode == 0, completed.stdout
    reference = reference_dir / "run.ckpt"
    assert reference.exists()

    # The victim: periodic saves every 2 rounds; SIGKILL it the moment the
    # first manifest lands on disk.
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *STREAM_ARGS,
         "--checkpoint", "run", "--checkpoint-every", "2"],
        cwd=crash_dir, env=cli_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    manifest = crash_dir / "run.ckpt"
    try:
        deadline = time.monotonic() + 240
        while not manifest.exists() and time.monotonic() < deadline:
            if victim.poll() is not None:
                pytest.fail(
                    "stream CLI exited before its first periodic save:\n"
                    + (victim.communicate()[0] or "")
                )
            time.sleep(0.01)
        assert manifest.exists(), "no periodic checkpoint appeared in time"
        killed_mid_run = victim.poll() is None
        victim.send_signal(signal.SIGKILL)
    finally:
        victim.communicate(timeout=60)
    assert killed_mid_run, "run finished before SIGKILL; nothing was tested"

    # The manifest the crash left behind is complete and loadable (atomic
    # replace means there is no torn state to find), and it stops short of
    # the full stream.
    crashed_meta, _ = checkpoint_payloads(manifest)
    assert crashed_meta["done"] is False

    # Resume from it to the end of the stream; final state checkpointed
    # over the same manifest path.
    resumed = run_cli(
        [*STREAM_ARGS, "--resume", "run", "--checkpoint", "run"],
        cwd=crash_dir,
    )
    assert resumed.returncode == 0, resumed.stdout
    assert "resumed from" in resumed.stdout

    ref_meta, ref_arrays = checkpoint_payloads(reference)
    got_meta, got_arrays = checkpoint_payloads(manifest)
    assert got_meta == ref_meta
    assert sorted(got_arrays) == sorted(ref_arrays)
    for name in ref_arrays:
        np.testing.assert_array_equal(
            got_arrays[name], ref_arrays[name], err_msg=name
        )


def test_sigkill_mid_segment_then_resume_is_event_identical(tmp_path):
    """The segmented twin: the victim streams one-day event-log segments,
    dies mid-segment, and the resume rebuilds the horizon lazily — final
    state still matches the uninterrupted segmented run bit for bit."""
    reference_dir = tmp_path / "reference"
    crash_dir = tmp_path / "crash"
    reference_dir.mkdir()
    crash_dir.mkdir()

    completed = run_cli(
        [*SEGMENTED_ARGS, "--checkpoint", "run"], cwd=reference_dir
    )
    assert completed.returncode == 0, completed.stdout
    reference = reference_dir / "run.ckpt"
    assert reference.exists()

    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *SEGMENTED_ARGS,
         "--checkpoint", "run", "--checkpoint-every", "2"],
        cwd=crash_dir, env=cli_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    manifest = crash_dir / "run.ckpt"
    try:
        deadline = time.monotonic() + 240
        while not manifest.exists() and time.monotonic() < deadline:
            if victim.poll() is not None:
                pytest.fail(
                    "stream CLI exited before its first periodic save:\n"
                    + (victim.communicate()[0] or "")
                )
            time.sleep(0.01)
        assert manifest.exists(), "no periodic checkpoint appeared in time"
        killed_mid_run = victim.poll() is None
        victim.send_signal(signal.SIGKILL)
    finally:
        victim.communicate(timeout=60)
    assert killed_mid_run, "run finished before SIGKILL; nothing was tested"

    crashed_meta, _ = checkpoint_payloads(manifest)
    assert crashed_meta["done"] is False
    # The crash left a v7 segmented manifest whose cursor names a spot
    # strictly inside a segment — the resume has to rebuild that window.
    segments = crashed_meta["segments"]
    assert segments is not None and segments["count"] >= 2
    segment, offset = segments["cursor"]
    assert offset > 0, "checkpoint cursor landed on a seam; nothing tested"

    resumed = run_cli(
        [*SEGMENTED_ARGS, "--resume", "run", "--checkpoint", "run"],
        cwd=crash_dir,
    )
    assert resumed.returncode == 0, resumed.stdout
    assert "resumed from" in resumed.stdout

    ref_meta, ref_arrays = checkpoint_payloads(reference)
    got_meta, got_arrays = checkpoint_payloads(manifest)
    assert got_meta == ref_meta
    assert sorted(got_arrays) == sorted(ref_arrays)
    for name in ref_arrays:
        np.testing.assert_array_equal(
            got_arrays[name], ref_arrays[name], err_msg=name
        )


#: The victim for the seam case: the stream CLI with its periodic save
#: wrapped so that the process SIGKILLs itself right after the first save
#: whose cursor sits exactly on a segment seam (offset 0 of a later
#: segment) — a deterministic crash point no polling loop could hit.
SEAM_VICTIM = """
import os, signal, sys
from repro.cli import main
from repro.stream import StreamRuntime

save = StreamRuntime.checkpoint

def checkpoint(self, path):
    saved = save(self, path)
    segment, offset = self.log.locate(self.cursor)
    if not self.done and segment > 0 and offset == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return saved

StreamRuntime.checkpoint = checkpoint
sys.exit(main(sys.argv[1:]))
"""


def test_sigkill_after_a_save_at_a_segment_seam_then_resume_is_event_identical(
    tmp_path,
):
    """The periodic save reads the event indices the runtime recorded as it
    applied each row; a crash right after a save on a seam, with the
    previous segment already released, must still resume to the
    uninterrupted run's final state bit for bit."""
    # Half-hour rounds put some round between a segment's last row and the
    # next segment's first, so the cursor rests on the seam.
    args = [*SEGMENTED_ARGS, "--window-hours", "0.5"]
    reference_dir = tmp_path / "reference"
    crash_dir = tmp_path / "crash"
    reference_dir.mkdir()
    crash_dir.mkdir()

    completed = run_cli([*args, "--checkpoint", "run"], cwd=reference_dir)
    assert completed.returncode == 0, completed.stdout
    reference = reference_dir / "run.ckpt"

    victim = subprocess.run(
        [sys.executable, "-c", SEAM_VICTIM, *args,
         "--checkpoint", "run", "--checkpoint-every", "1"],
        cwd=crash_dir, env=cli_env(), timeout=300,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert victim.returncode == -signal.SIGKILL, (
        "the run never saved on a seam:\n" + victim.stdout
    )
    manifest = crash_dir / "run.ckpt"
    crashed_meta, crashed_arrays = checkpoint_payloads(manifest)
    assert crashed_meta["done"] is False
    segment, offset = crashed_meta["segments"]["cursor"]
    assert segment > 0 and offset == 0
    assert len(crashed_arrays["assigned_worker_events"]) > 0

    resumed = run_cli(
        [*args, "--resume", "run", "--checkpoint", "run"],
        cwd=crash_dir,
    )
    assert resumed.returncode == 0, resumed.stdout
    assert "resumed from" in resumed.stdout

    ref_meta, ref_arrays = checkpoint_payloads(reference)
    got_meta, got_arrays = checkpoint_payloads(manifest)
    assert got_meta == ref_meta
    assert sorted(got_arrays) == sorted(ref_arrays)
    for name in ref_arrays:
        np.testing.assert_array_equal(
            got_arrays[name], ref_arrays[name], err_msg=name
        )
