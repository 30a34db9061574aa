"""`IngestEngine`: online fold-in of streamed ratings over dirty rows.

The batch trainers rebuild both factor matrices from scratch; the ingest
engine updates exactly the rows whose data changed.  Each streamed
rating is (1) made durable in the :class:`~repro.streaming.wal
.RatingsWAL` and acked, (2) merged into the streamed overlay, marking
its user and item dirty, and (3) folded in at the next :meth:`apply`:
the dirty rows are gathered into a compact CSR and solved by the
trainers' own :meth:`~repro.runtime.executor.ShardExecutor.half_step`,
**warm-started** from their current factors, user side first, then
items against the just-updated users.  An apply costs O(dirty nnz).
Clean rows are never written, so they stay **bit-identical** — the
drill and VF112 pin that.  The executor carries a
:class:`~repro.resilience.guards.GuardPolicy`, so the guard ladder is
the only repair path for a poisoned lane.

Every apply writes a barrier record into the WAL and a delta checkpoint
(:mod:`repro.streaming.delta`); crash-safe resume is therefore
``base checkpoint + ordered deltas + WAL tail``, and because barriers
pin the original apply *batching*, a resumed engine replays into
bit-identical factors (:meth:`IngestEngine.resume`).

Conventions: with ``alpha=None`` the engine folds in under the explicit
ALS-WR objective (λ scaled by the row's rating count, exactly
:class:`~repro.core.als.ALSModel`'s half-step); with ``alpha`` set it
passes the implicit-feedback hooks (confidence weights ``α·r``,
preference bias ``1 + α·r``, Gram-matrix completion, plain λ) exactly as
:class:`~repro.core.implicit.ImplicitALSModel` does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# perfbench's layer probes look these names up in this module.
from ..core.cg import cg_solve_batched  # noqa: F401
from ..core.config import CGConfig, Precision
from ..core.hermitian import hermitian_rows  # noqa: F401
from ..data.sparse import RatingMatrix
from ..resilience.checkpoint import Checkpoint, latest_checkpoint, save_checkpoint
from ..resilience.faults import FaultPlan
from ..resilience.guards import GuardPolicy
from ..runtime.executor import CsrView, ShardExecutor
from ..runtime.plan import RuntimePlan
from ..serving.health import ServingHealth
from .delta import (
    DeltaCheckpoint,
    StreamState,
    compact,
    resume_state,
    save_delta,
    state_digest,
)
from .wal import RatingsWAL

__all__ = ["FoldInResult", "IngestConfig", "IngestEngine"]

#: The fold-in execution plan: the tuned kernels the trainers' fast path
#: runs (grouped Gram formation, fused CG), serial on one shard.
_FOLDIN_PLAN = RuntimePlan(method="grouped", cg_backend="fused")

#: The armed ``fault.fold-in-nan`` fault: one lane of the next user-side
#: fold-in has its staged normal equations flipped to NaN.
_POISON = FaultPlan(nan_rate=1.0)


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of one streaming ingest pipeline (plain data, JSON-ready)."""

    lam: float = 0.05
    alpha: float | None = None  # None: explicit ALS-WR; set: implicit hooks
    cg: CGConfig = CGConfig(max_iters=6)
    precision: Precision = Precision.FP32
    compact_every: int = 4  # deltas per compaction back to a full checkpoint
    segment_records: int = 1024  # WAL rotation threshold

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive (or None for explicit)")
        if self.compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        if self.segment_records < 1:
            raise ValueError("segment_records must be >= 1")

    def as_dict(self) -> dict:
        return {
            "lam": self.lam,
            "alpha": self.alpha,
            "cg_max_iters": self.cg.max_iters,
            "cg_tol": self.cg.tol,
            "precision": self.precision.value,
            "compact_every": self.compact_every,
            "segment_records": self.segment_records,
        }


@dataclass
class FoldInResult:
    """What one :meth:`IngestEngine.apply` did (plain data + row payloads)."""

    seq: int = -1  # barrier sequence this apply covers (-1: noop)
    users: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    user_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.float32))
    items: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    item_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.float32))
    applied_seqs: tuple[int, ...] = ()  # rating seqs folded in by this apply
    foldin_repairs: int = 0  # lanes the guard ladder re-solved

    @property
    def noop(self) -> bool:
        return self.seq < 0


def _coo(rows: Iterable[tuple[int, dict[int, float]]]):
    """COO triplets of ``(label, {column: rating})`` overlay rows."""
    r: list[int] = []
    c: list[int] = []
    v: list[float] = []
    for label, entries in rows:
        r += [label] * len(entries)
        c += entries
        v += entries.values()
    return np.array(r, np.int64), np.array(c, np.int64), np.array(v, np.float32)


class IngestEngine:
    """Accumulate WAL deltas and fold them into the factors in place."""

    def __init__(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        base_ratings: RatingMatrix,
        *,
        config: IngestConfig | None = None,
        directory: str | os.PathLike,
        _state: StreamState | None = None,
    ) -> None:
        self.config = config or IngestConfig()
        self.directory = os.fspath(directory)
        self.x = np.ascontiguousarray(x, dtype=np.float32).copy()
        self.theta = np.ascontiguousarray(theta, dtype=np.float32).copy()
        if self.x.shape[1] != self.theta.shape[1]:
            raise ValueError("x and theta must share the factor dimension")
        self.m, self.f = self.x.shape
        self.n = self.theta.shape[0]
        if base_ratings.m != self.m or base_ratings.n != self.n:
            raise ValueError(
                f"base ratings {base_ratings.m}x{base_ratings.n} do not match "
                f"factors {self.m}x{self.n}"
            )
        # The corpus: the base matrix (CSR for users, CSC for items) plus
        # the streamed overlay, indexed both ways.  A dirty row is merged
        # from the two on demand; nothing corpus-sized is ever rebuilt.
        self._base = base_ratings
        self._streamed_by_user: dict[int, dict[int, float]] = {}
        self._streamed_by_item: dict[int, dict[int, float]] = {}
        self._pending: list[tuple[int, int, int, float]] = []  # seq, u, v, r
        self._dirty_users: set[int] = set()
        self._dirty_items: set[int] = set()
        self.solved_users: set[int] = set()
        self.solved_items: set[int] = set()
        self.applies = 0
        self.compactions = 0
        self.torn_writes_repaired = 0
        self.foldin_repairs = 0
        #: Chaos hooks, armed by the drill via the serving engine's
        #: accounted ``_on_ingest_fault``: the *next* append is torn /
        #: the *next* fold-in gets one lane poisoned.
        self.tear_next_append = False
        self.poison_next_foldin = False
        #: The fold-in solver; its ``health`` log carries the guard
        #: ladder's ``guard.*`` events.
        self.executor = ShardExecutor(_FOLDIN_PLAN, guard=GuardPolicy())

        self.wal = RatingsWAL(
            os.path.join(self.directory, "wal"),
            segment_records=self.config.segment_records,
        )
        if _state is not None:
            self.ordinal = _state.ordinal
            self.applied_seq = _state.applied_seq
            self._digest = _state.digest
            self._deltas_since_compact = _state.deltas_applied
        else:
            if latest_checkpoint(self.directory) is not None:
                raise ValueError(
                    f"{self.directory!r} already holds a stream; use "
                    "IngestEngine.resume()"
                )
            self.ordinal = 0
            self.applied_seq = self.wal.last_seq
            self._digest = state_digest(self.x, self.theta)
            self._deltas_since_compact = 0
            save_checkpoint(
                self.directory,
                Checkpoint(
                    epoch=0,
                    x=self.x,
                    theta=self.theta,
                    extra={"applied_seq": int(self.applied_seq), "streaming": True},
                ),
            )

    # -- construction from disk --------------------------------------------

    @classmethod
    def resume(
        cls,
        directory: str | os.PathLike,
        base_ratings: RatingMatrix,
        *,
        config: IngestConfig | None = None,
    ) -> "IngestEngine":
        """Rebuild bit-identical state: base + deltas + WAL tail replay.

        ``base_ratings`` is the batch training corpus the original engine
        was constructed over (persisted with the model, not in the WAL);
        streamed ratings are recovered from the corpus snapshot and the
        WAL.  Records above the factor high-water mark are replayed
        through the same fold-in path, re-running an apply at every
        barrier — so the resumed factors are bit-identical to the
        uninterrupted run's, which the kill-replay drill leg asserts.
        """
        state = resume_state(directory)
        engine = cls(
            state.x,
            state.theta,
            base_ratings,
            config=config,
            directory=directory,
            _state=state,
        )
        # Corpus snapshot: streamed entries already durable at compaction.
        for u, v, r in zip(
            state.corpus_users, state.corpus_items, state.corpus_ratings
        ):
            engine._merge(int(u), int(v), float(r))
        # WAL replay: merge reflected records, re-apply the tail.
        for rec in engine.wal.replay():
            if rec.seq <= state.corpus_seq:
                continue
            if rec.kind == "rating":
                engine._merge(rec.user, rec.item, rec.rating)
                if rec.seq > state.applied_seq:
                    engine._pending.append(
                        (rec.seq, rec.user, rec.item, rec.rating)
                    )
                    engine._dirty_users.add(rec.user)
                    engine._dirty_items.add(rec.item)
            elif rec.seq > state.applied_seq:
                engine._apply_at_barrier(rec.seq)
        return engine

    # -- ingest path --------------------------------------------------------

    @property
    def digest(self) -> str:
        """State digest of the current factors (chain-verified)."""
        return self._digest

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_users(self) -> set[int]:
        """Users with acked-but-unapplied ratings (read-your-writes set)."""
        return {u for _seq, u, _v, _r in self._pending}

    def _merge(self, user: int, item: int, rating: float) -> None:
        """Overlay one streamed rating; a re-rating replaces the old value."""
        self._streamed_by_user.setdefault(user, {})[item] = rating
        self._streamed_by_item.setdefault(item, {})[user] = rating

    def ingest(
        self,
        user: int,
        item: int,
        rating: float,
        *,
        health: ServingHealth | None = None,
        tick: int = -1,
    ) -> int:
        """Durably log one rating and ack it; returns the WAL sequence."""
        if not 0 <= user < self.m:
            raise ValueError(f"user {user} outside [0, {self.m})")
        if not 0 <= item < self.n:
            raise ValueError(f"item {item} outside [0, {self.n})")
        rating = float(rating)
        if not math.isfinite(rating):
            raise ValueError(f"rating {rating} is not finite")
        if self.tear_next_append:
            # The armed wal-torn-write fault: the first append attempt
            # tears (power loss mid-write), recovery truncates the torn
            # tail, and the append is retried cleanly.  The rating is
            # only acked after the retry's fsync.
            self.tear_next_append = False
            self.wal.append_torn(user, item, rating)
            dropped = self.wal.repair_tail()
            self.torn_writes_repaired += 1
            if health is not None:
                health.record(
                    "wal.recovered",
                    tick=tick,
                    detail=f"torn tail truncated ({dropped} bytes)",
                )
        seq = self.wal.append(user, item, rating)
        self._merge(user, item, rating)
        self._pending.append((seq, user, item, rating))
        self._dirty_users.add(user)
        self._dirty_items.add(item)
        if health is not None:
            health.record(
                "ingest.acked",
                tick=tick,
                request_id=seq,
                user=user,
                detail=f"item {item} rating {rating:g}",
            )
        return seq

    # -- fold-in ------------------------------------------------------------

    def _dirty_rows(self, ids: np.ndarray, *, items: bool) -> CsrView:
        """Compact CSR of rows ``ids`` (re-numbered 0..k) of the corpus.

        Each row is its base slice (CSR for users, CSC for items) with
        the streamed overlay merged in, newest rating winning, in
        ascending column order — the row ``RatingMatrix.from_coo`` of
        the whole merged corpus would hold.
        """
        base = self._base
        if items:
            ptr, idx, val = base.col_ptr, base.row_idx, base.col_val
            width, overlay = self.m, self._streamed_by_item
        else:
            ptr, idx, val = base.row_ptr, base.col_idx, base.row_val
            width, overlay = self.n, self._streamed_by_user
        lo = ptr[ids]
        counts = ptr[ids + 1] - lo
        starts = np.cumsum(counts) - counts
        row = np.repeat(np.arange(ids.size, dtype=np.int64), counts)
        pos = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
            lo - starts, counts
        )
        col = idx[pos].astype(np.int64)
        o_row, o_col, o_val = _coo(
            (i, overlay[k]) for i, k in enumerate(ids.tolist()) if k in overlay
        )
        keep = ~np.isin(row * width + col, o_row * width + o_col)
        row = np.concatenate([row[keep], o_row])
        col = np.concatenate([col[keep], o_col])
        vals = np.concatenate([val[pos][keep], o_val])
        order = np.lexsort((col, row))
        row_ptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=ids.size), out=row_ptr[1:])
        return CsrView(
            m=int(ids.size),
            n=width,
            row_ptr=row_ptr,
            col_idx=col[order],
            row_val=vals[order],
        )

    def _fold_side(
        self, dirty: set[int], fixed: np.ndarray, target: np.ndarray, key: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """One half of an apply: re-solve the dirty rows of ``target``."""
        if not dirty:
            return np.empty(0, dtype=np.int64), np.empty((0, self.f), dtype=np.float32)
        cfg = self.config
        ids = np.array(sorted(dirty), dtype=np.int64)
        rows = self._dirty_rows(ids, items=key == "theta")
        if cfg.alpha is None:
            hooks: dict = {"lam": cfg.lam}
        else:
            vals = rows.row_val
            hooks = {
                "lam": 0.0,
                "gram": fixed.T @ fixed,
                "extra_diag": cfg.lam,
                "entry_weights": cfg.alpha * vals,
                "bias_values": 1.0 + cfg.alpha * vals,
                "count_weighted_reg": False,
            }
        result = self.executor.half_step(
            rows,
            fixed,
            target[ids],
            cg_config=cfg.cg,
            precision=cfg.precision,
            key=key,
            **hooks,
        )
        # The factors live in the executor's persistent buffer, which the
        # next half-step overwrites: copy them out before installing.
        solved = result.factors.copy()
        target[ids] = solved
        return ids, solved

    def apply(
        self,
        *,
        health: ServingHealth | None = None,
        tick: int = -1,
        checkpoint: bool = True,
    ) -> FoldInResult:
        """Fold every pending rating into the factors; returns the result.

        Writes the WAL barrier first (so replay re-applies at the same
        boundary), solves dirty user rows against the item factors and
        dirty item rows against the updated user rows, installs them,
        and persists a delta checkpoint — compacting the chain every
        ``compact_every`` deltas.  A call with nothing pending is a
        recorded noop.
        """
        if not self._pending:
            return FoldInResult()
        barrier_seq = self.wal.append_barrier()
        return self._apply_at_barrier(
            barrier_seq, health=health, tick=tick, checkpoint=checkpoint
        )

    def _apply_at_barrier(
        self,
        barrier_seq: int,
        *,
        health: ServingHealth | None = None,
        tick: int = -1,
        checkpoint: bool = True,
    ) -> FoldInResult:
        log = self.executor.health.events
        mark = len(log)
        if self.poison_next_foldin:
            self.poison_next_foldin = False
            self.executor.faults = _POISON
        try:
            users, user_rows = self._fold_side(
                self._dirty_users, self.theta, self.x, "x"
            )
        finally:
            self.executor.faults = None
        items, item_rows = self._fold_side(
            self._dirty_items, self.x, self.theta, "theta"
        )
        repairs = sum(
            len(e.lanes) for e in log[mark:] if e.kind.startswith("guard.repair-")
        )
        self.foldin_repairs += repairs
        applied_seqs = tuple(seq for seq, *_rest in self._pending)
        parent = self._digest
        self._digest = state_digest(self.x, self.theta)
        self.ordinal += 1
        self.applied_seq = barrier_seq
        self.applies += 1
        self.solved_users.update(int(u) for u in users)
        self.solved_items.update(int(v) for v in items)
        self._pending.clear()
        self._dirty_users.clear()
        self._dirty_items.clear()
        if checkpoint:
            save_delta(
                self.directory,
                DeltaCheckpoint(
                    ordinal=self.ordinal,
                    parent_digest=parent,
                    result_digest=self._digest,
                    applied_seq=barrier_seq,
                    users=users,
                    user_rows=user_rows,
                    items=items,
                    item_rows=item_rows,
                ),
            )
            self._deltas_since_compact += 1
            if self._deltas_since_compact >= self.config.compact_every:
                self._compact(health=health, tick=tick)
        if health is not None:
            for seq in applied_seqs:
                health.record(
                    "ingest.applied",
                    tick=tick,
                    request_id=seq,
                    detail=f"barrier {barrier_seq}",
                )
        return FoldInResult(
            seq=barrier_seq,
            users=users,
            user_rows=user_rows,
            items=items,
            item_rows=item_rows,
            applied_seqs=applied_seqs,
            foldin_repairs=repairs,
        )

    def _compact(
        self, *, health: ServingHealth | None = None, tick: int = -1
    ) -> None:
        cu, ci, cr = _coo(self._streamed_by_user.items())
        compact(
            self.directory,
            ordinal=self.ordinal,
            x=self.x,
            theta=self.theta,
            applied_seq=self.applied_seq,
            corpus_users=cu,
            corpus_items=ci,
            corpus_ratings=cr,
        )
        self.wal.truncate_through(self.applied_seq)
        self._deltas_since_compact = 0
        self.compactions += 1
        if health is not None:
            health.record(
                "ingest.compacted",
                tick=tick,
                detail=(
                    f"ordinal {self.ordinal}, {cu.size} streamed "
                    f"entries, seq {self.applied_seq}"
                ),
            )

    def stats(self) -> dict:
        """Operational snapshot (JSON-ready)."""
        return {
            "applies": self.applies,
            "compactions": self.compactions,
            "pending": len(self._pending),
            "streamed_entries": sum(map(len, self._streamed_by_user.values())),
            "solved_users": len(self.solved_users),
            "solved_items": len(self.solved_items),
            "applied_seq": self.applied_seq,
            "last_seq": self.wal.last_seq,
            "ordinal": self.ordinal,
            "torn_writes_repaired": self.torn_writes_repaired,
            "foldin_repairs": self.foldin_repairs,
            "digest": self._digest,
        }

    def close(self) -> None:
        self.wal.close()
        self.executor.close()
