"""Checkpoint/replay: chunked, content-addressed snapshots with resume.

A checkpoint captures everything the runtime needs to continue
*bit-identically* from where it stopped:

* the **event cursor** and simulation clock — the log itself is not copied;
  a fingerprint of its ``(time, phase, entity)`` triples is stored instead,
  and :func:`restore_runtime` refuses to resume against a different log;
* the **pools**, stored as indices of the arrival/relocation/publish
  events behind each pooled entity (entities are rebuilt from the log, so
  the snapshot stays numeric — no pickled objects);
* the **accumulated result** (assignment pairs as event-index pairs, all
  metrics arrays) so the resumed runtime's final result equals the
  uninterrupted run's, not just its tail;
* **trigger adaptation state** (plus the trigger's policy kind, so a
  resume under a different policy fails with a clear message) and the
  **RNG state** of the runtime's generator, keeping adaptive policies and
  stochastic extensions on the same trajectory;
* for sharded runs, the **shard layout**, checked against the layout the
  resumed run plans, so it partitions its rounds identically.  Rounds
  carry no other state from one to the next, so nothing else about them
  is saved;
* for admission-controlled runs, the **controller state** — overload flag,
  deferred backlog (as publish event indices) and cumulative counters — so
  a resumed run defers/sheds exactly as the uninterrupted one.

Round wall-clock timings are data (they are part of the metrics arrays) but
never inputs to control flow in deterministic triggers, so replay equality
holds for everything except the timings themselves.

**Event indices.**  An entity's event index is the log row that set its
current state: the arrival or publish row that pooled it, or the relocation
row whose synthesized payload it now is.  The runtime records it as it
applies the row (pairs keep theirs from when they were matched), so a save
reads state the size of the pools and the result and never rescans the
history.  An equal payload on another row rebuilds an identical entity, so
the recorded row is canonical but not the only valid one.  Pair indices
never change once recorded: the ``assigned_*_events`` arrays only append,
and successive saves share every chunk of them but the tail.

**On-disk format (v8).**  A checkpoint is a small binary *manifest* plus a
shared content-addressed *chunk store* directory (``repro-chunks/``) next
to it.  Each state array's contiguous bytes are split into fixed-size
chunks keyed by their sha256 digest; a chunk is written (atomically, via
:func:`repro.ioutil.atomic_write_bytes`) only if the store does not
already hold it, so successive snapshots of a multi-day run share every
chunk whose bytes did not change — append-mostly arrays like the metrics
rows re-use their entire prefix, making periodic saves cheap.  Arrays are
chunked *independently* (never concatenated first) precisely so growth in
one array cannot shift — and thus invalidate — the chunks of every array
behind it.  The manifest is one struct-packed blob::

    header   ``<4sHHQQQ``: magic ``RPCK``, version, flags,
             meta-JSON length, index-JSON length, digest count
    meta     JSON — the same compatibility/meta dict checkpoint v4 stored
    index    JSON — per-array name / dtype / shape / nbytes / chunk refs
    digests  ``digest count`` × 32 raw sha256 bytes (deduplicated)
    trailer  sha256 over all preceding bytes

and is itself published with an atomic temp-file + fsync +
:func:`os.replace`, so every save is all-or-nothing: a crash mid-save
leaves the previous manifest valid and its chunks untouched (chunk files
are content-addressed, hence never rewritten in place).  Loads verify the
trailer and every chunk digest before handing bytes to numpy.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.entities import AssignedPair, Assignment
from repro.exceptions import DataError
from repro.ioutil import atomic_write_bytes
from repro.stream.shards import ShardLayout

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.stream.runtime import StreamRuntime

#: Format marker; bumped on incompatible layout changes.
#: v2: columnar event-log fingerprints, trigger kinds, shard layout + RNGs.
#: v3: relocation-aware pool/assignment event indices, admission-controller
#:     state, and the wider per-round metrics rows
#:     (relocated/deferred/shed columns).
#: v4: pipeline flag, the EWMA shard-packing config and state, component
#:     ids in the shard-layout cells, and per-phase timing / layout-change
#:     columns in the metrics rows.
#: v5: content-addressed chunked layout — struct-packed manifest + sha256
#:     chunk store replacing the monolithic npz archive.
#: v6: bounded wait histograms — the metrics wait distributions serialize
#:     as LogHistogram state dicts in the manifest meta instead of
#:     unbounded per-sample arrays in the chunk store (the round-latency
#:     histogram is rebuilt from the metrics rows on restore).
#: v7: segmented event logs — when the run streamed a
#:     :class:`~repro.stream.segments.SegmentedEventLog` the meta gains a
#:     ``segments`` block (boundaries, per-segment fingerprint chain and
#:     the global cursor as ``(segment, offset)``), and the top-level
#:     fingerprint is the chain digest.  Resume fails fast on a
#:     segmented/materialized mode mismatch, naming the first mismatching
#:     segment when the chain disagrees.
#: v8: stateless rounds — the per-shard RNG states, the EWMA
#:     shard-packing config and state, the layout cells' component ids and
#:     the per-round layout-change metrics column are gone.  A v7
#:     checkpoint is refused; re-run it from the start.  Early v8 manifests
#:     also carry a ``pipeline`` flag in their meta; restores ignore it,
#:     since pipelined rounds were always identical to serial ones.
CHECKPOINT_VERSION = 8

#: Canonical checkpoint suffix, appended when the user supplies none —
#: save, load and the CLI pre-flight all agree on this one path.
CHECKPOINT_SUFFIX = ".ckpt"

#: Directory (next to the manifest) holding the content-addressed chunks.
#: Shared by all checkpoints saved into the same directory.
CHUNK_DIR_NAME = "repro-chunks"

#: Default chunk size.  Small enough that an appended metrics row only
#: rewrites the final partial chunk, large enough that a paper-scale
#: checkpoint stays in the tens of chunks.  An array smaller than a chunk is
#: one chunk that changes whenever the array does: when every array fits
#: (a week of half-hour rounds is ~330 metrics rows, 47 KB, and 832 pairs),
#: saves share only unchanged arrays — a reuse ratio near 0.17.
DEFAULT_CHUNK_BYTES = 1 << 16

_MANIFEST_MAGIC = b"RPCK"
_MANIFEST_HEADER = struct.Struct("<4sHHQQQ")
_DIGEST_BYTES = 32


def canonical_checkpoint_path(path: str | Path) -> Path:
    """The one manifest path save/load/CLI all use for ``path``.

    A bare path gains :data:`CHECKPOINT_SUFFIX`; an explicit suffix (any
    suffix — ``.ckpt``, ``.npz``, …) is respected as-is.
    """
    path = Path(path)
    return path if path.suffix else path.with_suffix(CHECKPOINT_SUFFIX)


def chunk_store_path(path: str | Path) -> Path:
    """The chunk-store directory serving the manifest at ``path``."""
    return canonical_checkpoint_path(path).parent / CHUNK_DIR_NAME


def _json_default(value):
    """Make RNG bit-generator state JSON-safe (Philox/SFC64 carry arrays)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in checkpoint meta")


def save_checkpoint(
    runtime: "StreamRuntime",
    path: str | Path,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Path:
    """Write the runtime's complete state to ``path`` (v8 manifest + chunks).

    Atomic: the manifest is replaced in one :func:`os.replace` after every
    chunk it references is durable, so a crash at any point leaves the
    previous checkpoint (if any) fully resumable.  Returns the canonical
    manifest path.

    When the runtime carries a live tracer, the save emits a
    ``checkpoint.save`` span annotated with the chunk-store reuse stats
    (chunks written vs referenced, bytes written), and the registry's
    checkpoint counters advance.
    """
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    path = canonical_checkpoint_path(path)
    with runtime.obs.tracer.span(
        "checkpoint.save", cat="checkpoint", path=str(path)
    ) as span:
        stats = _save_checkpoint(runtime, path, chunk_bytes)
        span.note(**stats)
    registry = runtime.obs.registry
    if registry.enabled:
        registry.counter(
            "repro_checkpoint_saves_total", "Checkpoint manifests written."
        ).inc()
        registry.counter(
            "repro_checkpoint_chunks_written_total",
            "New chunk files published to the checkpoint store.",
        ).inc(stats["chunks_written"])
        registry.counter(
            "repro_checkpoint_bytes_written_total",
            "Bytes of new chunk data written to the checkpoint store.",
        ).inc(stats["bytes_written"])
    return path


def _save_checkpoint(
    runtime: "StreamRuntime", path: Path, chunk_bytes: int
) -> dict:
    """Build meta + arrays and publish them; returns the chunk-write stats."""
    result = runtime.result
    metrics_state = result.metrics.state_dict()
    meta = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": runtime.log.fingerprint(),
        "cursor": runtime.cursor,
        "clock": runtime.clock,
        "start_time": runtime._start_time,
        "end_time": runtime._end_time,
        "started": runtime._started,
        "done": runtime._done,
        "pending_start_round": runtime._pending_start_round,
        "patience_hours": runtime.patience_hours,
        "trigger_kind": runtime.trigger.kind,
        "trigger": runtime.trigger.state_dict(),
        "rng_state": (
            runtime.rng.bit_generator.state if runtime.rng is not None else None
        ),
        "shards": (
            {
                "layout": runtime.shard_executor.layout.state_dict(),
                "requested": runtime.shard_request,
            }
            if runtime.shard_request is not None
            else None
        ),
        "admission": (
            runtime.admission.state_dict()
            if runtime.admission is not None
            else None
        ),
        # Segmented runs record the seam geometry and the per-segment
        # fingerprint chain, so a resume can name the first segment whose
        # synthesized content drifted instead of a bare chain mismatch.
        "segments": (
            {
                "count": runtime.log.segment_count,
                "boundaries": list(runtime.log.boundaries),
                "fingerprints": list(runtime.log.segment_fingerprints),
                "cursor": list(runtime.log.locate(runtime.cursor)),
            }
            if runtime.log.segmented
            else None
        ),
        # Wait histograms are simulated-time state (deterministic across
        # replays), so they live in the meta; wall-clock values stay in the
        # chunked arrays, keeping the meta timing-free for replay checks.
        "metrics": {
            "task_waits": metrics_state["task_waits"],
            "worker_waits": metrics_state["worker_waits"],
        },
    }
    arrays = {
        **runtime.state.pool_arrays(),
        "assigned_worker_events": np.array(result.worker_events, dtype=np.int64),
        "assigned_task_events": np.array(result.task_events, dtype=np.int64),
        "metrics_rounds": np.asarray(metrics_state["rounds"]),
        "metrics_wall_seconds": np.asarray(metrics_state["wall_seconds"]),
    }
    return _write_manifest(path, meta, arrays, chunk_bytes)


def _write_manifest(
    path: Path, meta: dict, arrays: dict[str, np.ndarray], chunk_bytes: int
) -> dict:
    """Publish ``arrays`` to the chunk store and atomically replace ``path``.

    Returns the chunk-store write accounting for this save: how many of the
    manifest's (deduplicated) chunks already existed vs were newly written,
    and the byte volumes on both axes — the numbers behind the
    ``checkpoint.save`` span's reuse ratio.
    """
    store = path.parent / CHUNK_DIR_NAME
    store.mkdir(parents=True, exist_ok=True)
    digests: list[bytes] = []
    digest_position: dict[bytes, int] = {}
    entries = []
    chunks_written = 0
    bytes_written = 0
    bytes_total = 0
    for name, value in arrays.items():
        data = np.ascontiguousarray(value).tobytes()
        bytes_total += len(data)
        refs = []
        for offset in range(0, len(data), chunk_bytes):
            chunk = data[offset : offset + chunk_bytes]
            digest = hashlib.sha256(chunk).digest()
            position = digest_position.get(digest)
            if position is None:
                position = len(digests)
                digest_position[digest] = position
                digests.append(digest)
                # Content-addressed: an existing file already holds these
                # exact bytes — skipping it is what makes successive
                # snapshots share their unchanged chunks.
                target = store / f"{digest.hex()}.chunk"
                if not target.exists():
                    atomic_write_bytes(target, chunk)
                    chunks_written += 1
                    bytes_written += len(chunk)
            refs.append(position)
        entries.append(
            {
                "name": name,
                "dtype": value.dtype.str,
                "shape": list(value.shape),
                "nbytes": len(data),
                "chunks": refs,
            }
        )
    meta_blob = json.dumps(meta, default=_json_default).encode("utf-8")
    index_blob = json.dumps(
        {"chunk_bytes": chunk_bytes, "arrays": entries}
    ).encode("utf-8")
    header = _MANIFEST_HEADER.pack(
        _MANIFEST_MAGIC,
        CHECKPOINT_VERSION,
        0,
        len(meta_blob),
        len(index_blob),
        len(digests),
    )
    body = b"".join((header, meta_blob, index_blob, *digests))
    atomic_write_bytes(path, body + hashlib.sha256(body).digest())
    chunks_total = len(digests)
    return {
        "chunks_total": chunks_total,
        "chunks_written": chunks_written,
        "chunk_reuse_ratio": (
            (chunks_total - chunks_written) / chunks_total if chunks_total else 0.0
        ),
        "bytes_total": bytes_total,
        "bytes_written": bytes_written,
    }


def _read_manifest(path: str | Path) -> tuple[Path, dict, dict, list[str]]:
    """Parse and verify a manifest; returns (path, meta, index, digests)."""
    path = canonical_checkpoint_path(path)
    blob = path.read_bytes()
    if blob[:2] == b"PK":
        raise DataError(
            f"unsupported checkpoint version (legacy npz archive at {path}; "
            f"expected a v{CHECKPOINT_VERSION} chunked manifest — re-save "
            "from a current runtime)"
        )
    if len(blob) < _MANIFEST_HEADER.size + _DIGEST_BYTES or blob[:4] != _MANIFEST_MAGIC:
        raise DataError(f"not a stream checkpoint manifest: {path}")
    magic, version, _flags, meta_len, index_len, digest_count = (
        _MANIFEST_HEADER.unpack_from(blob)
    )
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    body_len = _MANIFEST_HEADER.size + meta_len + index_len
    body_len += digest_count * _DIGEST_BYTES
    if len(blob) != body_len + _DIGEST_BYTES:
        raise DataError(f"truncated checkpoint manifest: {path}")
    if hashlib.sha256(blob[:body_len]).digest() != blob[body_len:]:
        raise DataError(f"corrupt checkpoint manifest (hash mismatch): {path}")
    offset = _MANIFEST_HEADER.size
    meta = json.loads(blob[offset : offset + meta_len].decode("utf-8"))
    offset += meta_len
    index = json.loads(blob[offset : offset + index_len].decode("utf-8"))
    offset += index_len
    digests = [
        blob[offset + i * _DIGEST_BYTES : offset + (i + 1) * _DIGEST_BYTES].hex()
        for i in range(digest_count)
    ]
    return path, meta, index, digests


def load_checkpoint_manifest(path: str | Path) -> dict:
    """Inspect a checkpoint without touching its chunks.

    Returns ``{"meta", "chunk_bytes", "arrays", "digests"}`` — the tool/
    test surface for chunk-reuse accounting (``digests`` is the manifest's
    deduplicated sha256 hex list; intersect two manifests' sets to measure
    how much of a snapshot was shared with its predecessor).
    """
    _, meta, index, digests = _read_manifest(path)
    return {
        "meta": meta,
        "chunk_bytes": index["chunk_bytes"],
        "arrays": index["arrays"],
        "digests": digests,
    }


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint into a plain dict of meta + arrays.

    Every chunk is re-hashed against its digest before its bytes reach
    numpy, so silent store corruption surfaces as :class:`DataError`
    rather than as wrong state.
    """
    path, meta, index, digests = _read_manifest(path)
    store = path.parent / CHUNK_DIR_NAME
    chunks: dict[str, bytes] = {}
    payload: dict = {"meta": meta}
    for entry in index["arrays"]:
        parts = []
        for position in entry["chunks"]:
            digest = digests[position]
            data = chunks.get(digest)
            if data is None:
                target = store / f"{digest}.chunk"
                try:
                    data = target.read_bytes()
                except FileNotFoundError as error:
                    raise DataError(
                        f"checkpoint chunk {digest} missing from {store}"
                    ) from error
                if hashlib.sha256(data).hexdigest() != digest:
                    raise DataError(f"corrupt checkpoint chunk: {target}")
                chunks[digest] = data
            parts.append(data)
        raw = b"".join(parts)
        if len(raw) != entry["nbytes"]:
            raise DataError(
                f"checkpoint array {entry['name']!r} reassembled to "
                f"{len(raw)} bytes, manifest expects {entry['nbytes']}"
            )
        payload[entry["name"]] = np.frombuffer(
            raw, dtype=np.dtype(entry["dtype"])
        ).reshape(entry["shape"])
    return payload


def load_checkpoint_meta(path: str | Path) -> dict:
    """Read only a checkpoint's meta dict (no metrics/pool arrays).

    The cheap pre-flight read for :func:`validate_checkpoint_meta` callers
    — only the manifest is read; the chunk store stays untouched.
    """
    _, meta, _, _ = _read_manifest(path)
    return meta


def validate_checkpoint_meta(
    meta: dict,
    trigger_kind: str,
    patience_hours: float | None,
    sharded: bool,
    shard_request: dict | None = None,
    admission: dict | None = None,
    segmented: bool | None = None,
) -> None:
    """Check a checkpoint's meta against a run configuration.

    The single source of the compatibility rules: :func:`restore_runtime`
    enforces them before touching any state, and the ``stream`` CLI calls
    this *before* datasets are built and influence models fitted, so a
    mismatched ``--resume`` fails in milliseconds with the same message
    instead of after minutes of fitting.  Raises :class:`DataError` on the
    first mismatch.

    ``segmented`` (when not ``None``) asserts the event-log mode: a
    checkpoint taken against a segmented log must resume against one and
    vice versa — their cursors index the same global row space, but the
    fingerprint disciplines differ (chain digest vs whole-log hash), so a
    silent cross-mode resume could never verify it replays the same world.
    """
    if segmented is not None and (meta.get("segments") is not None) != segmented:
        saved = "a segmented" if meta.get("segments") is not None else "a materialized"
        built = "segmented" if segmented else "materialized"
        raise DataError(
            f"checkpoint was taken from {saved} event-log run, this run "
            f"streams {built} events — pass the same --segment-days "
            "configuration"
        )
    if meta["trigger_kind"] != trigger_kind:
        raise DataError(
            f"checkpoint was taken with a {meta['trigger_kind']!r} trigger, "
            f"this run uses {trigger_kind!r} — resume with the same "
            "trigger policy"
        )
    if meta["patience_hours"] != patience_hours:
        raise DataError(
            f"checkpoint used patience_hours={meta['patience_hours']}, "
            f"this run uses {patience_hours}"
        )
    if (meta.get("shards") is None) != (not sharded):
        saved = "an unsharded" if meta.get("shards") is None else "a sharded"
        built = "sharded" if sharded else "unsharded"
        raise DataError(
            f"checkpoint was taken from {saved} run, this run is "
            f"{built} — pass the same shards configuration"
        )
    if sharded and shard_request is not None:
        saved_request = meta["shards"].get("requested")
        if saved_request is not None and saved_request != shard_request:
            raise DataError(
                f"checkpoint was taken with shards={saved_request['shards']}, "
                f"cell_km={saved_request['cell_km']}; this run requests "
                f"shards={shard_request['shards']}, "
                f"cell_km={shard_request['cell_km']}"
            )
    saved_admission = meta.get("admission")
    if (saved_admission is None) != (admission is None):
        saved = "without" if saved_admission is None else "with"
        built = "with" if admission is not None else "without"
        raise DataError(
            f"checkpoint was taken {saved} admission control, this run is "
            f"{built} it — pass the same admission configuration"
        )
    if saved_admission is not None and admission is not None:
        for field in ("policy", "budget_seconds"):
            if saved_admission.get(field) != admission.get(field):
                raise DataError(
                    f"checkpoint admission {field}={saved_admission.get(field)!r} "
                    f"does not match this run's {admission.get(field)!r}"
                )


def restore_runtime(runtime: "StreamRuntime", path: str | Path) -> "StreamRuntime":
    """Load ``path`` into a freshly constructed runtime (in place).

    The runtime must have been built with the same log (fingerprint
    checked) and equivalent deterministic collaborators; trigger and RNG
    state are overwritten from the snapshot.
    """
    with runtime.obs.tracer.span(
        "checkpoint.load", cat="checkpoint", path=str(path)
    ):
        return _restore_runtime(runtime, path)


def _restore_runtime(runtime: "StreamRuntime", path: str | Path) -> "StreamRuntime":
    payload = load_checkpoint(path)
    meta = payload["meta"]
    saved_segments = meta.get("segments")
    if (saved_segments is not None) != runtime.log.segmented:
        saved = "a segmented" if saved_segments is not None else "a materialized"
        built = "segmented" if runtime.log.segmented else "materialized"
        raise DataError(
            f"checkpoint was taken from {saved} event-log run, this run "
            f"streams {built} events — pass the same --segment-days "
            "configuration"
        )
    if meta["fingerprint"] != runtime.log.fingerprint():
        if saved_segments is not None:
            current = runtime.log.segment_fingerprints
            saved_chain = saved_segments["fingerprints"]
            for index, (before, after) in enumerate(zip(saved_chain, current)):
                if before != after:
                    raise DataError(
                        f"checkpoint segment {index} (starting at t="
                        f"{saved_segments['boundaries'][index]}) has "
                        "fingerprint "
                        f"{before[:12]}…, this run synthesized {after[:12]}… "
                        "— the segmented horizon is not the checkpointed one"
                    )
            raise DataError(
                f"checkpoint was taken over {saved_segments['count']} "
                f"segments at boundaries {saved_segments['boundaries']}, "
                f"this run built {runtime.log.segment_count} at "
                f"{list(runtime.log.boundaries)} — pass the same "
                "--segment-days configuration"
            )
        raise DataError(
            "checkpoint was taken against a different event log "
            "(fingerprint mismatch)"
        )
    validate_checkpoint_meta(
        meta,
        trigger_kind=runtime.trigger.kind,
        patience_hours=runtime.patience_hours,
        sharded=runtime.shard_request is not None,
        shard_request=runtime.shard_request,
        admission=(
            {
                "policy": runtime.admission.policy,
                "budget_seconds": runtime.admission.budget_seconds,
            }
            if runtime.admission is not None
            else None
        ),
    )
    shard_meta = meta.get("shards")
    if (
        shard_meta is not None
        and ShardLayout.from_state_dict(shard_meta["layout"])
        != runtime.shard_executor.layout
    ):
        raise DataError(
            "checkpoint shard layout does not match the runtime's "
            "(different shard count or planning cell size?)"
        )
    admission_meta = meta.get("admission")
    if admission_meta is not None:
        runtime.admission.load_state_dict(admission_meta)

    log = runtime.log
    runtime.state.load_pool_arrays(payload, log)

    result = runtime.result
    result.assignment.extend(Assignment([
        AssignedPair(task=log.task_at(task_event), worker=log.worker_at(worker_event))
        for worker_event, task_event in zip(
            payload["assigned_worker_events"].tolist(),
            payload["assigned_task_events"].tolist(),
        )
    ]))
    result.worker_events.extend(payload["assigned_worker_events"].tolist())
    result.task_events.extend(payload["assigned_task_events"].tolist())
    result.metrics.load_state_dict(
        {
            "rounds": payload["metrics_rounds"],
            "task_waits": meta["metrics"]["task_waits"],
            "worker_waits": meta["metrics"]["worker_waits"],
            "wall_seconds": float(payload["metrics_wall_seconds"]),
        }
    )

    runtime._cursor = int(meta["cursor"])
    runtime._clock = float(meta["clock"])
    runtime._start_time = float(meta["start_time"])
    runtime._end_time = (
        float(meta["end_time"]) if meta["end_time"] is not None else None
    )
    runtime._started = bool(meta["started"])
    runtime._done = bool(meta["done"])
    runtime._pending_start_round = bool(meta["pending_start_round"])
    if meta["trigger"]:
        runtime.trigger.load_state_dict(meta["trigger"])
    if meta["rng_state"] is not None and runtime.rng is not None:
        runtime.rng.bit_generator.state = meta["rng_state"]
    return runtime
