"""IngestEngine: fold-in contracts, clean-row bit-identity, kill-replay."""

import numpy as np
import pytest

from repro.core.config import CGConfig
from repro.data.sparse import RatingMatrix
from repro.serving.health import ServingHealth
from repro.streaming import IngestConfig, IngestEngine
from repro.streaming.delta import list_deltas


def make_corpus(m=12, n=9, f=4, nnz=60, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.uniform(1.0, 5.0, size=nnz).astype(np.float32)
    ratings = RatingMatrix.from_coo(rows, cols, vals, m=m, n=n)
    x = rng.standard_normal((m, f)).astype(np.float32)
    theta = rng.standard_normal((n, f)).astype(np.float32)
    return ratings, x, theta


def make_engine(directory, seed=0, **cfg_kwargs):
    ratings, x, theta = make_corpus(seed=seed)
    cfg_kwargs.setdefault("cg", CGConfig(max_iters=8))
    engine = IngestEngine(
        x, theta, ratings, config=IngestConfig(**cfg_kwargs), directory=directory
    )
    return engine, ratings, x, theta


def stream_ops(count, seed=0, m=12, n=9):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(0, m)), int(rng.integers(0, n)),
         float(rng.uniform(1.0, 5.0)))
        for _ in range(count)
    ]


class TestIngestAck:
    def test_ack_is_durable_and_sequential(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        assert engine.ingest(0, 1, 4.0) == 0
        assert engine.ingest(2, 3, 2.0) == 1
        assert engine.pending_count == 2
        assert engine.pending_users() == {0, 2}
        kinds = [r.kind for r in engine.wal.replay()]
        assert kinds == ["rating", "rating"]
        engine.close()

    def test_out_of_range_rejected(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        with pytest.raises(ValueError, match="user"):
            engine.ingest(99, 0, 1.0)
        with pytest.raises(ValueError, match="item"):
            engine.ingest(0, 99, 1.0)
        engine.close()

    @pytest.mark.parametrize("rating", [np.nan, np.inf, -np.inf])
    def test_non_finite_rating_rejected_before_ack(self, tmp_path, rating):
        engine, *_ = make_engine(tmp_path)
        with pytest.raises(ValueError, match="not finite"):
            engine.ingest(3, 2, rating)
        assert engine.pending_count == 0
        assert list(engine.wal.replay()) == []
        # The user's row still moves on a later valid rating.
        before = engine.x[3].copy()
        engine.ingest(3, 2, 4.0)
        result = engine.apply()
        assert 3 in result.users.tolist()
        assert engine.x[3].tobytes() != before.tobytes()
        engine.close()

    def test_fresh_directory_guard(self, tmp_path):
        engine, ratings, x, theta = make_engine(tmp_path)
        engine.close()
        with pytest.raises(ValueError, match="already holds a stream"):
            IngestEngine(x, theta, ratings, directory=tmp_path)


class TestFoldIn:
    def test_clean_rows_bit_identical(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        x_before = engine.x.copy()
        theta_before = engine.theta.copy()
        engine.ingest(3, 2, 5.0)
        engine.ingest(3, 7, 1.0)
        result = engine.apply()
        assert not result.noop
        assert set(result.users.tolist()) == {3}
        assert set(result.items.tolist()) == {2, 7}
        clean_users = np.setdiff1d(np.arange(engine.m), result.users)
        clean_items = np.setdiff1d(np.arange(engine.n), result.items)
        assert engine.x[clean_users].tobytes() == x_before[clean_users].tobytes()
        assert (
            engine.theta[clean_items].tobytes()
            == theta_before[clean_items].tobytes()
        )
        engine.close()

    def test_foldin_moves_prediction_toward_rating(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        user, item, rating = 5, 4, 5.0
        before = float(engine.x[user] @ engine.theta[item])
        engine.ingest(user, item, rating)
        engine.apply()
        after = float(engine.x[user] @ engine.theta[item])
        assert abs(after - rating) < abs(before - rating)
        engine.close()

    def test_apply_with_nothing_pending_is_noop(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        result = engine.apply()
        assert result.noop and engine.applies == 0
        assert list_deltas(tmp_path) == []
        engine.close()

    def test_implicit_foldin_finite_and_scoped(self, tmp_path):
        engine, *_ = make_engine(tmp_path, alpha=8.0)
        x_before = engine.x.copy()
        engine.ingest(1, 1, 3.0)
        result = engine.apply()
        assert np.all(np.isfinite(engine.x)) and np.all(np.isfinite(engine.theta))
        clean = np.setdiff1d(np.arange(engine.m), result.users)
        assert engine.x[clean].tobytes() == x_before[clean].tobytes()
        engine.close()

    def test_deltas_compact_at_cadence(self, tmp_path):
        engine, *_ = make_engine(tmp_path, compact_every=2)
        for i, (u, v, r) in enumerate(stream_ops(6, seed=3)):
            engine.ingest(u, v, r)
            if i % 2 == 1:
                engine.apply()
        assert engine.applies == 3 and engine.compactions == 1
        # One delta since the compaction; the chain before it collapsed.
        assert len(list_deltas(tmp_path)) == 1
        engine.close()


class TestChaosHooks:
    def test_torn_append_repairs_then_acks(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        engine.ingest(0, 0, 2.0)
        engine.tear_next_append = True
        health = ServingHealth()
        seq = engine.ingest(1, 1, 3.0, health=health, tick=4)
        assert seq == 1 and engine.torn_writes_repaired == 1
        kinds = [e.kind for e in health.events]
        assert kinds == ["wal.recovered", "ingest.acked"]
        assert [r.seq for r in engine.wal.replay()] == [0, 1]
        engine.close()

    def test_poisoned_foldin_repaired_before_install(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        engine.ingest(2, 2, 4.0)
        engine.poison_next_foldin = True
        result = engine.apply()
        assert result.foldin_repairs == 1
        assert engine.foldin_repairs == 1
        assert np.all(np.isfinite(engine.x)) and np.all(np.isfinite(engine.theta))
        engine.close()

    def test_poison_repair_runs_the_guard_ladder_bit_exactly(self, tmp_path):
        ops = stream_ops(9, seed=5)
        engines = []
        for name, poison in (("clean", False), ("poisoned", True)):
            engine, *_ = make_engine(tmp_path / name)
            for u, v, r in ops:
                engine.ingest(u, v, r)
            engine.poison_next_foldin = poison
            result = engine.apply()
            engines.append((engine, result))
        (clean, clean_result), (poisoned, result) = engines
        assert clean_result.foldin_repairs == 0 and not clean.executor.health.events
        assert result.foldin_repairs == 1
        kinds = [e.kind for e in poisoned.executor.health.events]
        assert kinds == ["fault.nan-flip", "guard.quarantine", "guard.repair-fp32"]
        flipped, quarantined, repaired = poisoned.executor.health.events
        assert len(flipped.lanes) == 1
        assert quarantined.lanes == repaired.lanes == flipped.lanes
        # The FP32 re-solve from the pristine system installs exactly
        # what the unpoisoned apply installed.
        assert poisoned.x.tobytes() == clean.x.tobytes()
        assert poisoned.theta.tobytes() == clean.theta.tobytes()
        assert poisoned.digest == clean.digest
        # The fault is one-shot: the next apply runs clean.
        poisoned.ingest(0, 0, 2.0)
        assert poisoned.apply().foldin_repairs == 0
        assert poisoned.executor.faults is None
        clean.close()
        poisoned.close()


class TestKillReplay:
    def run_ops(self, engine, ops, start, stop, apply_every=3):
        for i in range(start, stop):
            u, v, r = ops[i]
            engine.ingest(u, v, r)
            if (i + 1) % apply_every == 0:
                engine.apply()
        if stop == len(ops):
            engine.apply()

    def test_resume_is_bit_identical(self, tmp_path):
        ops = stream_ops(14, seed=7)
        kill_at = 8

        full, ratings, *_ = make_engine(tmp_path / "full", compact_every=2)
        self.run_ops(full, ops, 0, len(ops))

        killed, *_ = make_engine(tmp_path / "killed", compact_every=2)
        self.run_ops(killed, ops, 0, kill_at)
        killed.wal.append_torn(0, 0, 3.0)  # power loss mid-append
        del killed

        resumed = IngestEngine.resume(
            tmp_path / "killed",
            ratings,
            config=IngestConfig(compact_every=2, cg=CGConfig(max_iters=8)),
        )
        assert resumed.wal.truncated_bytes > 0
        self.run_ops(resumed, ops, kill_at, len(ops))

        assert resumed.digest == full.digest
        assert resumed.x.tobytes() == full.x.tobytes()
        assert resumed.theta.tobytes() == full.theta.tobytes()
        full.close()
        resumed.close()

    def test_resume_of_quiescent_stream_matches(self, tmp_path):
        ops = stream_ops(6, seed=9)
        engine, ratings, *_ = make_engine(tmp_path, compact_every=3)
        self.run_ops(engine, ops, 0, len(ops))
        digest = engine.digest
        engine.close()
        resumed = IngestEngine.resume(
            tmp_path, ratings, config=IngestConfig(compact_every=3, cg=CGConfig(max_iters=8))
        )
        assert resumed.digest == digest and resumed.pending_count == 0
        resumed.close()

    def test_stats_snapshot_is_json_ready(self, tmp_path):
        import json

        engine, *_ = make_engine(tmp_path)
        engine.ingest(0, 0, 1.0)
        engine.apply()
        stats = engine.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["applies"] == 1 and stats["pending"] == 0
        engine.close()


def merged_oracle(ratings, stream):
    """``from_coo`` of base ∪ stream, the newest rating winning."""
    merged = {}
    for u in range(ratings.m):
        cols, vals = ratings.user_items(u)
        for v, r in zip(cols.tolist(), vals.tolist()):
            merged[(u, v)] = r
    for u, v, r in stream:
        merged[(u, v)] = r
    keys = list(merged)
    return RatingMatrix.from_coo(
        np.array([k[0] for k in keys]),
        np.array([k[1] for k in keys]),
        np.array([merged[k] for k in keys], dtype=np.float32),
        m=ratings.m,
        n=ratings.n,
    )


def assert_rows_match(engine, oracle):
    """Every row the engine would build equals the oracle's, both ways."""
    for items, full in ((False, oracle), (True, oracle.transpose())):
        ids = np.arange(full.m, dtype=np.int64)
        rows = engine._dirty_rows(ids, items=items)
        assert rows.m == full.m and rows.n == full.n
        np.testing.assert_array_equal(rows.row_ptr, full.row_ptr)
        np.testing.assert_array_equal(rows.col_idx, full.col_idx)
        assert rows.row_val.tobytes() == full.row_val.astype(np.float32).tobytes()
        # A subset is the same rows, re-numbered.
        sub = ids[1::3]
        part = engine._dirty_rows(sub, items=items)
        for i, row in enumerate(sub.tolist()):
            lo, hi = part.row_ptr[i], part.row_ptr[i + 1]
            flo, fhi = full.row_ptr[row], full.row_ptr[row + 1]
            np.testing.assert_array_equal(part.col_idx[lo:hi], full.col_idx[flo:fhi])
            np.testing.assert_array_equal(part.row_val[lo:hi], full.row_val[flo:fhi])


class TestDirtyRowMerge:
    def stream(self, ratings):
        """Re-rates a base entry, re-rates a streamed entry, adds new ones."""
        u = int(np.flatnonzero(ratings.row_counts())[0])
        v = int(ratings.user_items(u)[0][0])
        ops = [(u, v, 1.25)]  # re-rating a base entry
        ops += stream_ops(10, seed=11)
        ops.append(ops[1][:2] + (4.75,))  # re-rating a streamed entry
        ops.append((u, v, 2.5))  # and the base entry once more
        ops += stream_ops(6, seed=12)
        base = {(r, c) for r in range(ratings.m) for c in ratings.user_items(r)[0].tolist()}
        assert any((r, c) not in base for r, c, _ in ops)  # new entries too
        return ops

    def test_rows_equal_full_rebuild(self, tmp_path):
        engine, ratings, *_ = make_engine(tmp_path)
        ops = self.stream(ratings)
        for i, op in enumerate(ops):
            engine.ingest(*op)
            if i % 4 == 3:
                engine.apply()
        assert_rows_match(engine, merged_oracle(ratings, ops))
        engine.close()

    def test_rows_equal_full_rebuild_after_resume_across_compaction(self, tmp_path):
        engine, ratings, *_ = make_engine(tmp_path, compact_every=1)
        ops = self.stream(ratings)
        kill_at = len(ops) - 5
        for i, op in enumerate(ops[:kill_at]):
            engine.ingest(*op)
            if i % 3 == 2:
                engine.apply()
        assert engine.compactions >= 1
        del engine
        resumed = IngestEngine.resume(
            tmp_path, ratings,
            config=IngestConfig(compact_every=1, cg=CGConfig(max_iters=8)),
        )
        assert_rows_match(resumed, merged_oracle(ratings, ops[:kill_at]))
        for op in ops[kill_at:]:
            resumed.ingest(*op)
        resumed.apply()
        assert_rows_match(resumed, merged_oracle(ratings, ops))
        resumed.close()


class TestApplyIsDirtySized:
    def test_no_corpus_sized_matrix_and_exact_dirty_rows(self, tmp_path, monkeypatch):
        from repro.runtime.executor import CsrView, ShardExecutor

        engine, ratings, *_ = make_engine(tmp_path)
        ops = [(3, 2, 5.0), (3, 7, 1.0), (8, 2, 2.0)]
        for op in ops:
            engine.ingest(*op)
        built = []
        for cls in (RatingMatrix, CsrView):
            init = cls.__init__

            def spy(self, *args, _init=init, **kwargs):
                _init(self, *args, **kwargs)
                built.append(self.m)

            monkeypatch.setattr(cls, "__init__", spy)
        solved = {}
        half_step = ShardExecutor.half_step

        def spy_half_step(self, rows, *args, **kwargs):
            solved[kwargs["key"]] = np.diff(rows.row_ptr).tolist()
            return half_step(self, rows, *args, **kwargs)

        monkeypatch.setattr(ShardExecutor, "half_step", spy_half_step)
        result = engine.apply()
        assert built and engine.m not in built and engine.n not in built
        assert result.users.tolist() == [3, 8] and result.items.tolist() == [2, 7]
        # half_step saw exactly the merged dirty rows, in id order.
        oracle = merged_oracle(ratings, ops)
        assert solved == {
            "x": oracle.row_counts()[[3, 8]].tolist(),
            "theta": oracle.col_counts()[[2, 7]].tolist(),
        }
        engine.close()
