"""Tests for repro.stream.checkpoint — snapshot/resume bit-identity."""

import numpy as np
import pytest

from repro.assignment import MTAAssigner, NearestNeighborAssigner
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.exceptions import DataError
from repro.framework import WorkerArrival
from repro.geo import Point
from repro.stream import (
    AdaptiveTrigger,
    CountTrigger,
    StreamRuntime,
    TimeWindowTrigger,
    canonical_checkpoint_path,
    chunk_store_path,
    load_checkpoint,
    load_checkpoint_manifest,
    load_checkpoint_meta,
    log_from_arrivals,
    synthetic_stream,
)
from repro.stream.checkpoint import CHECKPOINT_VERSION


def make_instance(tasks=(), current_time=0.0):
    return SCInstance(
        name="ckpt-test", current_time=current_time, tasks=list(tasks),
        workers=[], histories={}, social_edges=[],
        all_worker_ids=tuple(range(100)),
    )


def make_task(task_id, x, published=0.0, phi=5.0):
    return Task(
        task_id=task_id, location=Point(x, 0.0), publication_time=published,
        valid_hours=phi,
    )


def make_arrival(worker_id, x, at, radius=10.0):
    return WorkerArrival(
        worker=Worker(worker_id=worker_id, location=Point(x, 0.0),
                      reachable_km=radius, speed_kmh=5.0),
        arrival_time=at,
    )


def stream_world():
    tasks = [
        make_task(i, float(i % 4), published=float(i % 3), phi=6.0)
        for i in range(10)
    ]
    arrivals = [make_arrival(i, 0.4 * i, at=0.5 * i) for i in range(8)]
    return make_instance(tasks), log_from_arrivals(arrivals, tasks), tasks, arrivals


def pairs(result):
    return sorted(
        (p.worker.worker_id, p.task.task_id) for p in result.assignment.pairs
    )


def round_tuples(result):
    """Everything except wall-clock timings (which are not replayable)."""
    return [
        (r.index, r.time, r.online_workers, r.open_tasks, r.drained_events,
         r.assigned, r.expired_tasks, r.churned_workers, r.cancelled_tasks)
        for r in result.rounds
    ]


class TestCheckpointResume:
    @pytest.mark.parametrize("stop_after", [1, 3, 6])
    def test_window_trigger_resume_matches_uninterrupted(self, tmp_path, stop_after):
        base, log, _, _ = stream_world()
        uninterrupted = StreamRuntime(
            MTAAssigner(), None, TimeWindowTrigger(1.0), base, log
        ).run()
        first = StreamRuntime(
            MTAAssigner(), None, TimeWindowTrigger(1.0), base, log
        )
        first.run(max_rounds=stop_after)
        saved = first.checkpoint(tmp_path / "ck.npz")
        resumed = StreamRuntime.resume(
            saved, MTAAssigner(), None, TimeWindowTrigger(1.0), base, log
        )
        result = resumed.run()
        assert pairs(result) == pairs(uninterrupted)
        assert round_tuples(result) == round_tuples(uninterrupted)
        # Same replay order, so the histograms match bit-exactly — totals
        # included.
        assert (
            result.metrics.task_wait_histogram
            == uninterrupted.metrics.task_wait_histogram
        )
        assert (
            result.metrics.worker_wait_histogram
            == uninterrupted.metrics.worker_wait_histogram
        )

    def test_checkpoint_mid_batch_with_count_trigger(self, tmp_path):
        """Stop while the count trigger's next batch is partially admitted:
        events of the unfinished batch are unconsumed, pools carry
        leftovers — resume must still replay event-for-event."""
        base, log, _, _ = stream_world()
        uninterrupted = StreamRuntime(
            NearestNeighborAssigner(), None, CountTrigger(4), base, log
        ).run()
        first = StreamRuntime(
            NearestNeighborAssigner(), None, CountTrigger(4), base, log
        )
        first.run(max_rounds=2)
        assert not first.done
        assert 0 < first.cursor < len(log)  # genuinely mid-stream
        saved = first.checkpoint(tmp_path / "mid.npz")
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, CountTrigger(4), base, log
        )
        result = resumed.run()
        assert pairs(result) == pairs(uninterrupted)
        assert round_tuples(result) == round_tuples(uninterrupted)

    def test_checkpoint_before_any_round(self, tmp_path):
        base, log, _, _ = stream_world()
        uninterrupted = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(2.0), base, log
        ).run()
        first = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(2.0), base, log
        )
        first.run(max_rounds=0)  # started, nothing fired
        saved = first.checkpoint(tmp_path / "fresh.npz")
        result = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(2.0),
            base, log,
        ).run()
        assert round_tuples(result) == round_tuples(uninterrupted)

    def test_checkpoint_after_done_roundtrips(self, tmp_path):
        base, log, _, _ = stream_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log
        )
        finished = runtime.run()
        saved = runtime.checkpoint(tmp_path / "done.npz")
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, log,
        )
        assert resumed.done
        result = resumed.run()  # no-op
        assert pairs(result) == pairs(finished)

    def test_adaptive_trigger_state_restored(self, tmp_path):
        base, log, _, _ = stream_world()

        def trigger():
            return AdaptiveTrigger(
                target_seconds=3.0, initial_window_hours=1.0,
                min_window_hours=0.25, max_window_hours=4.0,
                cost_of=lambda record: float(record.open_tasks),
            )

        uninterrupted = StreamRuntime(
            NearestNeighborAssigner(), None, trigger(), base, log
        ).run()
        first = StreamRuntime(NearestNeighborAssigner(), None, trigger(), base, log)
        first.run(max_rounds=2)
        saved = first.checkpoint(tmp_path / "adaptive.npz")
        fresh_trigger = trigger()
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, fresh_trigger, base, log
        )
        assert fresh_trigger.window_hours == first.trigger.window_hours
        result = resumed.run()
        assert round_tuples(result) == round_tuples(uninterrupted)

    def test_rng_state_restored(self, tmp_path):
        base, log, _, _ = stream_world()
        rng = np.random.default_rng(7)
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
            rng=rng,
        )
        runtime.run(max_rounds=2)
        expected_draws = np.random.Generator(
            type(rng.bit_generator)()
        )  # placeholder, replaced below
        expected_draws.bit_generator.state = rng.bit_generator.state
        saved = runtime.checkpoint(tmp_path / "rng.npz")
        restored_rng = np.random.default_rng(999)  # wrong seed on purpose
        StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, log, rng=restored_rng,
        )
        np.testing.assert_array_equal(
            restored_rng.random(4), expected_draws.random(4)
        )

    def test_non_pcg64_rng_state_roundtrips(self, tmp_path):
        """Philox/SFC64 bit-generator state carries numpy arrays; the
        checkpoint's JSON meta must serialize and restore it exactly."""
        base, log, _, _ = stream_world()
        rng = np.random.Generator(np.random.Philox(7))
        rng.random(3)
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
            rng=rng,
        )
        runtime.run(max_rounds=1)
        reference = np.random.Generator(np.random.Philox())
        reference.bit_generator.state = rng.bit_generator.state
        saved = runtime.checkpoint(tmp_path / "philox.npz")
        restored_rng = np.random.Generator(np.random.Philox(123))
        StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, log, rng=restored_rng,
        )
        np.testing.assert_array_equal(restored_rng.random(4), reference.random(4))

    def test_synthetic_stream_with_churn_and_cancel(self, tmp_path):
        base, log = synthetic_stream(
            num_workers=60, num_tasks=60, duration_hours=12.0, area_km=30.0,
            churn_fraction=0.2, cancel_fraction=0.2, seed=13,
        )
        uninterrupted = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(0.5), base, log,
            patience_hours=3.0,
        ).run()
        first = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(0.5), base, log,
            patience_hours=3.0,
        )
        first.run(max_rounds=9)
        saved = first.checkpoint(tmp_path / "churny.npz")
        result = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(0.5),
            base, log, patience_hours=3.0,
        ).run()
        assert pairs(result) == pairs(uninterrupted)
        assert round_tuples(result) == round_tuples(uninterrupted)
        assert result.total_cancelled == uninterrupted.total_cancelled


class TestCheckpointValidation:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        base, log, tasks, arrivals = stream_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log
        )
        runtime.run(max_rounds=2)
        saved = runtime.checkpoint(tmp_path / "ck.npz")
        other_log = log_from_arrivals(arrivals[:-1], tasks)
        with pytest.raises(DataError, match="different event log"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, other_log,
            )

    def test_patience_mismatch_rejected(self, tmp_path):
        base, log, _, _ = stream_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
            patience_hours=2.0,
        )
        runtime.run(max_rounds=1)
        saved = runtime.checkpoint(tmp_path / "ck.npz")
        with pytest.raises(DataError, match="patience_hours"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, log, patience_hours=5.0,
            )

    @pytest.mark.parametrize("refused", [7, 999])
    def test_version_check(self, tmp_path, monkeypatch, refused):
        """Saves carry the current version; any other is refused, including
        v7, whose per-shard RNG and EWMA packing state v8 no longer reads."""
        base, log, _, _ = stream_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log
        )
        runtime.run(max_rounds=1)
        saved = runtime.checkpoint(tmp_path / "ck.npz")
        payload = load_checkpoint(saved)
        assert payload["meta"]["version"] == CHECKPOINT_VERSION == 8

        from repro.stream import checkpoint as checkpoint_module

        monkeypatch.setattr(checkpoint_module, "CHECKPOINT_VERSION", refused)
        bad = runtime.checkpoint(tmp_path / "bad.ckpt")
        monkeypatch.undo()
        with pytest.raises(DataError, match=f"version {refused}"):
            load_checkpoint(bad)

    def test_legacy_npz_rejected_with_clear_message(self, tmp_path):
        legacy = tmp_path / "old.npz"
        np.savez(legacy, meta=np.array("{}"))
        with pytest.raises(DataError, match="legacy npz"):
            load_checkpoint(legacy)

    def test_save_uses_canonical_ckpt_suffix(self, tmp_path):
        base, log, _, _ = stream_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log
        )
        runtime.run(max_rounds=1)
        saved = runtime.checkpoint(tmp_path / "bare")
        assert saved == canonical_checkpoint_path(tmp_path / "bare")
        assert saved.suffix == ".ckpt"
        assert saved.exists()
        # Save, load and resume all agree on the canonical path: the
        # bare path the user supplied works everywhere downstream.
        assert load_checkpoint_meta(tmp_path / "bare")["cursor"] == runtime.cursor
        resumed = StreamRuntime.resume(
            tmp_path / "bare",
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        )
        assert resumed.cursor == runtime.cursor
        # An explicit suffix is respected rather than rewritten.
        explicit = runtime.checkpoint(tmp_path / "other.npz")
        assert explicit == tmp_path / "other.npz"


def relocation_world(seed=61):
    """A multi-day synthetic world with relocation waves and churn."""
    return synthetic_stream(
        num_workers=50, num_tasks=60, duration_hours=8.0, days=3,
        area_km=12.0, valid_hours=3.0, reachable_km=5.0, clusters=3,
        relocate_fraction=0.5, overnight_churn_fraction=0.15, seed=seed,
    )


def admission_rounds(result):
    return [
        (r.index, r.relocated_workers, r.deferred_tasks, r.shed_tasks)
        for r in result.rounds
    ]


class TestAdaptiveTriggerUnderRelocationAndAdmission:
    """Satellite: adaptive windows + admission + relocation across resume.

    The adaptive trigger's feedback and the admission controller's cost
    both run off a deterministic function of the round record, so the
    whole control loop — window halving/growth, overload flips, backlog
    release — must replay bit-identically through a checkpoint.
    """

    @staticmethod
    def _trigger():
        # Deterministic feedback: pretend every pooled task costs 20 ms.
        return AdaptiveTrigger(
            target_seconds=0.4, initial_window_hours=1.0,
            min_window_hours=0.25, max_window_hours=4.0,
            cost_of=lambda record: 0.02 * record.open_tasks,
        )

    @staticmethod
    def _admission():
        from repro.stream import AdmissionController

        return AdmissionController(
            budget_seconds=0.2, policy="defer",
            cost_of=lambda record: 0.05 * record.open_tasks,
        )

    def _runtime(self, base, log):
        return StreamRuntime(
            NearestNeighborAssigner(), None, self._trigger(), base, log,
            admission=self._admission(),
        )

    def test_resume_matches_uninterrupted(self, tmp_path):
        base, log = relocation_world()
        full = self._runtime(base, log).run()
        assert full.metrics.total_relocated > 0
        assert full.metrics.total_deferred > 0

        interrupted = self._runtime(base, log)
        interrupted.run(max_rounds=max(2, len(full.rounds) // 2))
        saved = interrupted.checkpoint(tmp_path / "adaptive-admission.npz")
        resumed_runtime = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, self._trigger(), base, log,
            admission=self._admission(),
        )
        resumed = resumed_runtime.run()
        assert pairs(resumed) == pairs(full)
        assert round_tuples(resumed) == round_tuples(full)
        assert admission_rounds(resumed) == admission_rounds(full)

    def test_trigger_and_admission_state_survive_the_round_trip(self, tmp_path):
        base, log = relocation_world(seed=67)
        runtime = self._runtime(base, log)
        runtime.run(max_rounds=8)
        window_before = runtime.trigger.window_hours
        overloaded_before = runtime.admission.overloaded
        backlog_before = sorted(runtime.admission._backlog.items())
        saved = runtime.checkpoint(tmp_path / "state.npz")

        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, self._trigger(), base, log,
            admission=self._admission(),
        )
        assert resumed.trigger.window_hours == window_before
        assert resumed.admission.overloaded == overloaded_before
        assert sorted(resumed.admission._backlog.items()) == backlog_before
        assert resumed.admission.total_deferred == runtime.admission.total_deferred

    def test_admission_mismatch_rejected(self, tmp_path):
        from repro.stream import AdmissionController

        base, log = relocation_world(seed=71)
        runtime = self._runtime(base, log)
        runtime.run(max_rounds=3)
        saved = runtime.checkpoint(tmp_path / "adm.npz")
        with pytest.raises(DataError, match="admission"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, self._trigger(),
                base, log,
            )
        with pytest.raises(DataError, match="policy"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, self._trigger(),
                base, log,
                admission=AdmissionController(
                    budget_seconds=0.2, policy="shed",
                    cost_of=lambda record: 0.05 * record.open_tasks,
                ),
            )
        with pytest.raises(DataError, match="budget"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, self._trigger(),
                base, log,
                admission=AdmissionController(
                    budget_seconds=0.8, policy="defer",
                    cost_of=lambda record: 0.05 * record.open_tasks,
                ),
            )

    def test_unaffected_checkpoint_rejects_admission_resume(self, tmp_path):
        base, log = relocation_world(seed=73)
        plain = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        )
        plain.run(max_rounds=3)
        saved = plain.checkpoint(tmp_path / "plain.npz")
        with pytest.raises(DataError, match="admission"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, log, admission=self._admission(),
            )


class TestRelocatedPoolRoundTrip:
    """Pools holding relocated workers snapshot and restore exactly."""

    def test_relocated_worker_survives_resume(self, tmp_path):
        from repro.stream import WorkerArrivalEvent, WorkerRelocateEvent
        from repro.stream.events import EventLog, expiry_events
        from repro.stream import TaskPublishEvent

        worker = Worker(worker_id=1, location=Point(0.0, 0.0), reachable_km=4.0)
        far_task = make_task(0, 30.0, published=5.0, phi=4.0)
        log = EventLog([
            WorkerArrivalEvent(time=0.0, worker=worker),
            WorkerRelocateEvent(time=2.0, worker_id=1, location=Point(29.0, 0.0)),
            TaskPublishEvent(time=5.0, task=far_task),
            *expiry_events([far_task]),
        ])
        base = make_instance()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        )
        runtime.run(max_rounds=4)  # past the relocation, before the publish
        assert runtime.state.workers[1].location.x == 29.0
        saved = runtime.checkpoint(tmp_path / "reloc.npz")

        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, log,
        )
        assert resumed.state.workers[1].location.x == 29.0
        result = resumed.run()
        # Only the relocated position makes the far task reachable.
        assert pairs(result) == [(1, 0)]


class TestChunkedFormat:
    """v5 manifest + content-addressed chunk store behavior."""

    def _multiday_runtime(self):
        base, log = relocation_world()
        return StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        )

    def test_successive_snapshots_share_chunks(self, tmp_path):
        runtime = self._multiday_runtime()
        runtime.run(max_rounds=16)
        from repro.stream.checkpoint import save_checkpoint

        first = save_checkpoint(runtime, tmp_path / "a.ckpt", chunk_bytes=64)
        runtime.run(max_rounds=2)
        second = save_checkpoint(runtime, tmp_path / "b.ckpt", chunk_bytes=64)

        before = set(load_checkpoint_manifest(first)["digests"])
        after = set(load_checkpoint_manifest(second)["digests"])
        shared = len(before & after) / len(after)
        # The append-mostly metrics/pool arrays keep their chunk prefixes,
        # so a periodic snapshot re-uses at least half of its chunks.
        assert shared >= 0.5, f"only {shared:.0%} of chunks shared"
        # ... and the shared store holds each chunk exactly once.
        store = chunk_store_path(first)
        assert store == chunk_store_path(second)
        on_disk = {p.stem for p in store.glob("*.chunk")}
        assert (before | after) <= on_disk

    def test_resume_equals_uninterrupted_with_small_chunks(self, tmp_path):
        base, log = relocation_world()
        full = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        ).run()

        runtime = self._multiday_runtime()
        runtime.run(max_rounds=7)
        from repro.stream.checkpoint import save_checkpoint

        saved = save_checkpoint(runtime, tmp_path / "mid", chunk_bytes=256)
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, log,
        )
        result = resumed.run()
        assert pairs(result) == pairs(full)
        assert round_tuples(result) == round_tuples(full)

    def test_manifest_meta_matches_load(self, tmp_path):
        runtime = self._multiday_runtime()
        runtime.run(max_rounds=3)
        saved = runtime.checkpoint(tmp_path / "m.ckpt")
        manifest = load_checkpoint_manifest(saved)
        assert manifest["meta"] == load_checkpoint_meta(saved)
        names = {entry["name"] for entry in manifest["arrays"]}
        assert "pool_worker_events" in names
        assert "metrics_rounds" in names
        # Array bytes round-trip exactly through the chunk store.
        payload = load_checkpoint(saved)
        for entry in manifest["arrays"]:
            assert list(payload[entry["name"]].shape) == entry["shape"]

    def test_missing_chunk_detected(self, tmp_path):
        runtime = self._multiday_runtime()
        runtime.run(max_rounds=3)
        saved = runtime.checkpoint(tmp_path / "m.ckpt")
        victim = next(iter(chunk_store_path(saved).glob("*.chunk")))
        victim.unlink()
        with pytest.raises(DataError, match="missing"):
            load_checkpoint(saved)

    def test_corrupt_chunk_detected(self, tmp_path):
        runtime = self._multiday_runtime()
        runtime.run(max_rounds=3)
        saved = runtime.checkpoint(tmp_path / "m.ckpt")
        victim = max(
            chunk_store_path(saved).glob("*.chunk"),
            key=lambda p: p.stat().st_size,
        )
        blob = bytearray(victim.read_bytes())
        blob[0] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="corrupt checkpoint chunk"):
            load_checkpoint(saved)

    def test_corrupt_manifest_detected(self, tmp_path):
        runtime = self._multiday_runtime()
        runtime.run(max_rounds=3)
        saved = runtime.checkpoint(tmp_path / "m.ckpt")
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0xFF
        saved.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="hash mismatch"):
            load_checkpoint_meta(saved)


def rewrite_meta(path, mutate):
    """Re-publish a manifest with a mutated meta dict (valid trailer)."""
    import hashlib
    import json

    from repro.stream import checkpoint as cp

    blob = path.read_bytes()
    magic, version, flags, meta_len, index_len, digest_count = (
        cp._MANIFEST_HEADER.unpack_from(blob)
    )
    offset = cp._MANIFEST_HEADER.size
    meta = json.loads(blob[offset:offset + meta_len].decode("utf-8"))
    mutate(meta)
    meta_blob = json.dumps(meta).encode("utf-8")
    rest = blob[offset + meta_len:len(blob) - cp._DIGEST_BYTES]
    header = cp._MANIFEST_HEADER.pack(
        magic, version, flags, len(meta_blob), index_len, digest_count
    )
    body = header + meta_blob + rest
    path.write_bytes(body + hashlib.sha256(body).digest())


class TestHistogramStateInMeta:
    """v6: the wait histograms persist in the manifest meta, not the chunks."""

    def _interrupted(self, tmp_path):
        base, log = relocation_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        )
        runtime.run(max_rounds=7)
        assert runtime.result.metrics.task_wait_histogram.count > 0
        return base, log, runtime.checkpoint(tmp_path / "hist.ckpt")

    def test_wait_histograms_live_in_meta_only(self, tmp_path):
        _, _, saved = self._interrupted(tmp_path)
        manifest = load_checkpoint_manifest(saved)
        meta = manifest["meta"]
        assert meta["version"] == CHECKPOINT_VERSION
        assert meta["metrics"]["task_waits"]["count"] > 0
        assert meta["metrics"]["worker_waits"]["count"] > 0
        # The unbounded per-sample wait arrays of v5 and earlier are gone.
        names = {entry["name"] for entry in manifest["arrays"]}
        assert not any("wait" in name for name in names)

    def test_histogram_config_mismatch_rejected(self, tmp_path):
        base, log, saved = self._interrupted(tmp_path)

        def shrink_buckets(meta):
            meta["metrics"]["task_waits"]["buckets_per_decade"] = 8

        rewrite_meta(saved, shrink_buckets)
        with pytest.raises(DataError, match="bucket configuration mismatch"):
            StreamRuntime.resume(
                saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
                base, log,
            )


class TestAtomicSave:
    """A failure at any point mid-save leaves the previous snapshot intact."""

    def _snapshot_then_fail(self, tmp_path, monkeypatch, fail_when):
        base, log = relocation_world()
        full = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        ).run()

        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        )
        runtime.run(max_rounds=5)
        target = tmp_path / "ck.ckpt"
        saved = runtime.checkpoint(target)
        good_bytes = saved.read_bytes()
        good_chunks = {
            p.name: p.read_bytes() for p in chunk_store_path(saved).glob("*.chunk")
        }

        runtime.run(max_rounds=3)
        import repro.ioutil as ioutil

        real_replace = ioutil.os.replace

        def exploding_replace(src, dst):
            if fail_when(str(dst)):
                raise OSError("disk full (injected)")
            return real_replace(src, dst)

        monkeypatch.setattr(ioutil.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected"):
            runtime.checkpoint(target)
        monkeypatch.undo()

        # The previous manifest is byte-identical, its chunks untouched,
        # and no temp files are left behind next to it.
        assert saved.read_bytes() == good_bytes
        for name, blob in good_chunks.items():
            assert (chunk_store_path(saved) / name).read_bytes() == blob
        assert not list(tmp_path.glob(".*.tmp"))

        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, log,
        )
        result = resumed.run()
        assert pairs(result) == pairs(full)

    def test_failure_replacing_manifest(self, tmp_path, monkeypatch):
        self._snapshot_then_fail(
            tmp_path, monkeypatch, lambda dst: dst.endswith(".ckpt")
        )

    def test_failure_writing_a_chunk(self, tmp_path, monkeypatch):
        self._snapshot_then_fail(
            tmp_path, monkeypatch, lambda dst: dst.endswith(".chunk")
        )


def counting_segmented(log, segment_hours=8.0):
    """A segmented twin of ``log`` whose builders record every build."""
    from repro.stream import SegmentedEventLog

    source = SegmentedEventLog.from_log(log, segment_hours=segment_hours)
    slabs = [source.segment(i) for i in range(source.segment_count)]
    builds = []

    def builder(index):
        def build():
            builds.append(index)
            return slabs[index]
        return build

    segmented = SegmentedEventLog(
        [builder(i) for i in range(len(slabs))], source.boundaries
    )
    return segmented, builds


def rearrival_world():
    """Twelve workers matched one per hour, each re-arriving unchanged six
    hours after its match (out of reach of every open task): every old
    pair's worker payload reappears at a later log row."""
    from repro.stream import EventLog, TaskPublishEvent, WorkerArrivalEvent
    from repro.stream.events import expiry_events

    events, tasks = [], []
    for k in range(12):
        worker = Worker(worker_id=k, location=Point(100.0 * k, 0.0),
                        reachable_km=5.0)
        task = Task(task_id=k, location=Point(100.0 * k + 1.0, 0.0),
                    publication_time=float(k), valid_hours=2.0)
        tasks.append(task)
        events.append(WorkerArrivalEvent(time=float(k), worker=worker))
        events.append(TaskPublishEvent(time=float(k), task=task))
        events.append(WorkerArrivalEvent(time=k + 6.5, worker=worker))
    return make_instance(), EventLog([*events, *expiry_events(tasks)])


class TestSaveReadsRecordedIndices:
    """A save reads the event indices the state recorded as it applied each
    row, so its cost follows the live state, not the history."""

    def test_save_builds_no_segment_and_reads_no_row(self, tmp_path, monkeypatch):
        base, log = relocation_world()
        segmented, builds = counting_segmented(log)
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base,
            segmented,
        )
        reads = []
        late_saves = 0
        while not runtime.done:
            runtime.run(max_rounds=4)
            built = len(builds)
            with monkeypatch.context() as patch:
                for name in ("slices", "worker_at", "task_at"):
                    original = getattr(segmented, name)

                    def counted(*args, _name=name, _original=original, **kwargs):
                        reads.append(_name)
                        return _original(*args, **kwargs)

                    patch.setattr(segmented, name, counted)
                runtime.checkpoint(tmp_path / "run.ckpt")
            assert len(builds) == built, "the save built a segment"
            assert reads == [], f"the save read log rows: {reads}"
            # A save the rescan would have paid for: released segments
            # behind the cursor, live pools and pairs to resolve.
            late_saves += (
                segmented.segment_of(runtime.cursor) >= 2
                and bool(runtime.state.workers)
                and len(runtime.result.assignment) > 0
            )
        assert late_saves > 0
        runtime.close()

    def test_index_maps_stay_the_size_of_the_pools(self):
        base, log = relocation_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
            patience_hours=4.0,
        )
        state, result = runtime.state, runtime.result
        peak = 0

        def recorded():
            worker_events = state.workers.by_id("events")
            task_events = state.tasks.by_id("events")
            assert worker_events.keys() == state.workers.keys()
            assert task_events.keys() == state.tasks.keys()
            return len(worker_events) + len(task_events)

        while not runtime.done:
            runtime.run(max_rounds=1)
            peak = max(peak, recorded())
        assert peak > 0
        recorded()
        assert len(result.worker_events) == len(result.assignment) > 0
        assert len(result.task_events) == len(result.assignment)
        # Far fewer pool slots than the rows the horizon applied.
        assert state.workers.events.size + state.tasks.events.size < len(log) // 4

    def test_assigned_chunks_are_reused_but_the_tail(self, tmp_path):
        from repro.stream.checkpoint import save_checkpoint

        chunk_bytes = 16  # two int64 indices per chunk
        base, log = rearrival_world()
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
            end_time=20.0,
        )
        names = ("assigned_worker_events", "assigned_task_events")
        previous = None
        while not runtime.done:
            runtime.run(max_rounds=3)
            manifest = load_checkpoint_manifest(save_checkpoint(
                runtime, tmp_path / "run.ckpt", chunk_bytes=chunk_bytes
            ))
            arrays = {entry["name"]: entry for entry in manifest["arrays"]}
            current = {
                name: (
                    arrays[name]["nbytes"],
                    [manifest["digests"][i] for i in arrays[name]["chunks"]],
                )
                for name in names
            }
            if previous is not None:
                for name in names:
                    nbytes, chunks = previous[name]
                    full = nbytes // chunk_bytes
                    assert current[name][1][:full] == chunks[:full], name
            previous = current
        # Every matched worker re-arrived later with an identical payload —
        # the case where the history rescan moved old pairs' indices.
        assert len(runtime.result.assignment) == 12
        assert previous["assigned_worker_events"][0] == 12 * 8
        assert sorted(runtime.state.workers) == list(range(12))

    def test_resume_restores_the_recorded_indices(self, tmp_path):
        base, log = relocation_world()
        interrupted = StreamRuntime(
            NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        )
        interrupted.run(max_rounds=30)
        assert interrupted.state.workers and len(interrupted.result.assignment)
        saved = interrupted.checkpoint(tmp_path / "mid.ckpt")
        resumed = StreamRuntime.resume(
            saved, NearestNeighborAssigner(), None, TimeWindowTrigger(1.0),
            base, log,
        )
        for pool in ("workers", "tasks"):
            for column in ("events", "since"):
                assert getattr(resumed.state, pool).by_id(column) == getattr(
                    interrupted.state, pool
                ).by_id(column)
        assert resumed.result.worker_events == interrupted.result.worker_events
        assert resumed.result.task_events == interrupted.result.task_events
