"""Crash-safe streaming ingestion with online fold-in.

The batch side of the repo trains factors from a frozen corpus; this
package keeps a trained model **current** as ratings stream in, without
retraining and without ever being more than one fsync away from a
recoverable state:

* :class:`RatingsWAL` — an append-only, segment-rotated, per-record
  checksummed write-ahead log.  A rating is acked only after its record
  is fsynced; recovery truncates a torn tail and replays exactly.
* :class:`IngestEngine` — accumulates WAL deltas as dirty rows and
  folds them in through the trainers' warm-started ``ShardExecutor``
  half-step, at O(dirty nnz); clean rows are never written
  (bit-identity is pinned by tests and VF112).
* :mod:`repro.streaming.delta` — delta checkpoints chained by state
  digest off a base checkpoint, compacted back to a full checkpoint;
  crash-safe resume is ``base + ordered deltas + WAL tail``.
* :mod:`repro.streaming.drill` (import lazily — it pulls the trainers)
  — the audited ``repro ingest`` chaos drill: kill-replay bit-identity,
  read-your-writes, availability, exact fault accounting.
"""

from .delta import (
    DeltaCheckpoint,
    DeltaError,
    StreamState,
    compact,
    list_deltas,
    load_delta,
    resume_state,
    save_delta,
    state_digest,
)
from .ingest import FoldInResult, IngestConfig, IngestEngine
from .wal import WAL_VERSION, RatingsWAL, WalError, WalRecord

__all__ = [
    "WAL_VERSION",
    "DeltaCheckpoint",
    "DeltaError",
    "FoldInResult",
    "IngestConfig",
    "IngestEngine",
    "RatingsWAL",
    "StreamState",
    "WalError",
    "WalRecord",
    "compact",
    "list_deltas",
    "load_delta",
    "resume_state",
    "save_delta",
    "state_digest",
]
