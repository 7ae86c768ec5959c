"""repro.stream — the event-driven streaming runtime.

The paper's online protocol (workers online until assigned, tasks live
until expiry) as a continuous-serving subsystem rather than a precomputed
day loop:

* :mod:`repro.stream.events` — typed arrival/publish/expiry/churn/cancel
  events in a deterministic, replayable :class:`EventLog` (built from
  dataset days or synthetic generators);
* :mod:`repro.stream.scheduler` — pluggable micro-batch triggers (count,
  time window, hybrid, latency-adaptive);
* :mod:`repro.stream.state` — columnar live worker/task pools
  (:class:`EntityPool`: slot arrays with a free list) that rounds route,
  prepare, sweep and retire from;
* :mod:`repro.stream.metrics` — wait-time/latency percentiles (backed by
  the mergeable, checkpointable :mod:`repro.obs` histograms), throughput,
  expiry/churn rates;
* :mod:`repro.stream.runtime` — :class:`StreamRuntime`, the loop tying it
  together (bit-identical to the batched ``OnlineSimulator`` under
  equivalent boundaries), plus :class:`ShardExecutor`, the cell-sharded
  round executor that prepares and solves each shard in the calling
  thread;
* :mod:`repro.stream.shards` — :class:`ShardLayout`, the radius-aware
  cell partition that never splits a feasible (worker, task) pair;
* :mod:`repro.stream.segments` — :class:`SegmentedEventLog`, the
  bounded-memory drop-in for :class:`EventLog`: the horizon is built
  lazily in time-window segments, cached under a small LRU budget and
  released as the cursor passes, with replay bit-identical to the
  materialized log;
* :mod:`repro.stream.checkpoint` — atomic, content-addressed chunked
  snapshots (v8 manifest + sha256 chunk store) with bit-identical resume
  (including shard layout, RNG state, wait-histogram state and
  the segmented-log fingerprint chain in the manifest meta).
"""

from repro.stream.checkpoint import (
    CHECKPOINT_SUFFIX,
    canonical_checkpoint_path,
    chunk_store_path,
    load_checkpoint,
    load_checkpoint_manifest,
    load_checkpoint_meta,
    restore_runtime,
    save_checkpoint,
    validate_checkpoint_meta,
)
from repro.stream.events import (
    EventLog,
    StreamEvent,
    TaskCancelEvent,
    TaskExpiryEvent,
    TaskPublishEvent,
    WorkerArrivalEvent,
    WorkerChurnEvent,
    WorkerRelocateEvent,
    day_stream,
    expiry_events,
    log_from_arrivals,
    multi_day_stream,
    synthetic_stream,
)
from repro.stream.metrics import RoundRecord, StreamMetrics, StreamSummary
from repro.stream.segments import SegmentedEventLog, SegmentInfo
from repro.stream.runtime import (
    ADMISSION_POLICIES,
    AdmissionController,
    ShardExecutor,
    StreamResult,
    StreamRuntime,
)
from repro.stream.shards import ShardLayout
from repro.stream.scheduler import (
    AdaptiveTrigger,
    CountTrigger,
    HybridTrigger,
    TimeWindowTrigger,
    Trigger,
)
from repro.stream.state import EntityPool, StreamState

__all__ = [
    # events
    "StreamEvent",
    "WorkerArrivalEvent",
    "TaskPublishEvent",
    "TaskCancelEvent",
    "TaskExpiryEvent",
    "WorkerChurnEvent",
    "WorkerRelocateEvent",
    "EventLog",
    "SegmentedEventLog",
    "SegmentInfo",
    "expiry_events",
    "log_from_arrivals",
    "day_stream",
    "multi_day_stream",
    "synthetic_stream",
    # scheduling
    "Trigger",
    "CountTrigger",
    "TimeWindowTrigger",
    "HybridTrigger",
    "AdaptiveTrigger",
    # state & metrics
    "EntityPool",
    "StreamState",
    "RoundRecord",
    "StreamMetrics",
    "StreamSummary",
    # runtime, sharding & checkpoints
    "StreamRuntime",
    "StreamResult",
    "AdmissionController",
    "ADMISSION_POLICIES",
    "ShardExecutor",
    "ShardLayout",
    "CHECKPOINT_SUFFIX",
    "canonical_checkpoint_path",
    "chunk_store_path",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_manifest",
    "load_checkpoint_meta",
    "validate_checkpoint_meta",
    "restore_runtime",
]
