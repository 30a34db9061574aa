"""ingest-mixed: streamed ratings made visible to reads, under read traffic.

The Netflix surrogate trained at f=32 (the ``repro train`` default) is
served with its IVF index while an open loop streams ratings through
``IngestEngine.ingest`` beside reads; a quarter of the reads come from a
user who wrote within the last second.  The loop folds in
(``IngestEngine.apply`` then ``ModelStore.apply_delta``) when the serving
queue is empty, or when the next batch holds a read from a user with a
pending write (read-your-writes).  There is no timer, so visibility
measures fold-in and install time, not a cadence.

Each repetition replays the same two phases: the open loop, then a
**burst** of ratings ingested back to back and folded in every
``burst_fold`` ratings, timed as ratings made visible per second.  The
fold size is the open loop's own: the median count of ratings one of its
fold-ins makes visible (``open_loop_ratings_per_fold`` in the report), so
the burst runs the open loop's fold-in at saturation.  The burst folds in
a multiple of ``IngestConfig.compact_every`` times, so every burst pays
for the same number of compactions.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import schedule
from .harness import Context, Outcome, Rep, Workload, in_child
from .openloop import open_loop
from .serve_catalog import save_factors, scoring_tally, serving_extras
from .stats import median, median_of_medians, percentile
from .train_netflix import PLAN


@dataclass(frozen=True)
class IngestSize:
    scale: float = 1.0
    f: int = 32
    write_rate: float = 100.0
    read_rate: float = 200.0
    open_seconds: float = 3.0
    recent_share: float = 0.25
    recent_window: float = 1.0
    # The open loop folds in a median of 7 ratings at a time (146 fold-ins,
    # seeds 1 and 2, 2-core x86 VM); 24 such folds, six compactions.
    burst: int = 168
    burst_fold: int = 7
    max_batch: int = 16
    # Outstanding reads plus acked-but-invisible writes: about one fold-in's
    # worth of both arrive while a fold-in runs, so allow three batches.
    backlog_slack: int = 48
    k: int = 10


TINY = IngestSize(
    scale=0.05, f=8, write_rate=40.0, read_rate=80.0, open_seconds=0.5, burst=32, burst_fold=8
)


@dataclass
class IngestState:
    engine: object
    ingest: object
    stream: schedule.MixedStream
    burst: tuple
    directory: str
    acked: list[int] = field(default_factory=list)
    applied: list[int] = field(default_factory=list)


class Publisher:
    """Folds pending ratings in and installs them into serving."""

    def __init__(self, state: IngestState) -> None:
        self.state = state
        self.visible_ms: list[float] = []
        self.due: dict[int, float] = {}
        self.folded: list[int] = []  # ratings made visible by each fold-in

    @property
    def pending(self) -> int:
        return self.state.ingest.pending_count

    def pending_users(self) -> set[int]:
        return self.state.ingest.pending_users()

    @property
    def outstanding(self) -> int:
        """Acked ratings not yet visible to reads."""
        return len(self.due)

    def write(self, user: int, item: int, rating: float, due: float) -> float | None:
        """Ingest one rating; returns its ack latency (ms) or None if refused."""
        state = self.state
        try:
            seq = state.ingest.ingest(
                user, item, rating, health=state.engine.health, tick=state.engine.tick_now
            )
        except ValueError:
            return None
        acked = time.perf_counter()
        state.acked.append(seq)
        self.due[seq] = due
        return (acked - due) * 1e3

    def publish(self) -> None:
        state = self.state
        engine = state.engine
        tick = engine.tick_now
        result = state.ingest.apply(health=engine.health, tick=tick)
        if result.noop:
            return
        engine.store.apply_delta(
            users=result.users,
            user_rows=result.user_rows,
            items=result.items,
            item_rows=result.item_rows,
            seq=result.seq,
            health=engine.health,
            tick=tick,
        )
        visible = time.perf_counter()
        self.folded.append(len(result.applied_seqs))
        for seq in result.applied_seqs:
            state.applied.append(seq)
            self.visible_ms.append((visible - self.due.pop(seq)) * 1e3)


def burst(state: IngestState, fold: int, count: int | None = None) -> dict:
    """Ingest a fixed batch back to back, folding in every ``fold`` ratings;
    ratings made visible per second."""
    pub = Publisher(state)
    users, items, ratings = (a[:count] for a in state.burst)
    start = time.perf_counter()
    acked = 0
    for lo in range(0, len(users), fold):
        for u, v, r in zip(users[lo: lo + fold], items[lo: lo + fold], ratings[lo: lo + fold]):
            if pub.write(int(u), int(v), float(r), start) is not None:
                acked += 1
        pub.publish()
    seconds = time.perf_counter() - start
    return {"rate": len(pub.visible_ms) / seconds, "writes": len(users), "acked": acked}


def train_and_save(workdir: str, size: IngestSize) -> tuple[str, str]:
    """Train the served model and write it with its training corpus, as
    ``repro train`` would; returns the two file paths."""
    from repro.core.als import ALSModel
    from repro.core.config import ALSConfig
    from repro.data.datasets import load_surrogate
    from repro.runtime.plan import RuntimePlan

    split, spec = load_surrogate("netflix", scale=size.scale)
    model = ALSModel(ALSConfig(f=size.f), runtime=RuntimePlan(**PLAN))
    model.fit(split.train, split.test, epochs=10, target_rmse=spec.target_rmse)
    model.runtime.close()
    model_path = os.path.join(workdir, "model.npz")
    corpus_path = os.path.join(workdir, "corpus.npz")
    save_factors(model_path, model.x_, model.theta_)
    np.savez(corpus_path, **vars(split.train))
    return model_path, corpus_path


class IngestMixed(Workload):
    name = "ingest-mixed"
    setups = 15  # a set-up takes well under a second: take more of them
    outer_spans = ("streaming.apply", "streaming.ingest", "serving.apply_delta", "serving.tick")

    def __init__(self, size: IngestSize | None = None) -> None:
        self.size = size or IngestSize()

    def prepare(self, ctx: Context) -> tuple[str, str]:
        return in_child(train_and_save, ctx.workdir, self.size)

    def setup(self, ctx: Context, prepared: tuple[str, str]) -> IngestState:
        from repro.data.sparse import RatingMatrix
        from repro.serving import IndexConfig, ServingConfig, ServingEngine
        from repro.streaming import IngestEngine

        s = self.size
        path, corpus_path = prepared
        with np.load(corpus_path) as corpus:
            train = RatingMatrix(**{k: corpus[k] for k in corpus.files})
        directory = tempfile.mkdtemp(prefix="ingest-", dir=ctx.workdir)
        engine = ServingEngine(
            path,
            config=ServingConfig(queue_capacity=1024, max_batch=s.max_batch, budget_ticks=256),
            index_config=IndexConfig(seed=0),
        )
        ingest = IngestEngine(
            engine.store.x, engine.store.theta, train,
            directory=os.path.join(directory, "stream"),
        )
        m, n = engine.store.x.shape[0], engine.store.theta.shape[0]
        stream = schedule.mixed_stream(
            ctx.seed,
            write_rate=s.write_rate,
            read_rate=s.read_rate,
            duration=s.open_seconds,
            n_users=m,
            n_items=n,
            recent_share=s.recent_share,
            recent_window=s.recent_window,
        )
        writes = schedule.write_burst(ctx.seed, count=s.burst, n_users=m, n_items=n)
        state = IngestState(
            engine=engine, ingest=ingest, stream=stream, burst=writes, directory=directory
        )
        # Warm-up: one fold of the burst runs the whole write path once (WAL segment,
        # delta files, index surgery) before anything is timed.
        burst(state, s.burst_fold, count=s.burst_fold)
        return state

    def teardown(self, state: IngestState) -> None:
        state.ingest.close()
        shutil.rmtree(state.directory, ignore_errors=True)

    def corpus_m(self, state: IngestState) -> int:
        return state.ingest.m

    def repetition(self, state: IngestState, ctx: Context, tracer) -> dict:
        s = self.size
        pub = Publisher(state)
        with scoring_tally(state.engine) as tally:
            loop = open_loop(
                state.engine, state.stream, k=s.k, max_batch=s.max_batch,
                slack=s.backlog_slack, publisher=pub, tracer=tracer,
            )
            data = {
                "open": {**loop, "visible_ms": pub.visible_ms, "folded": pub.folded},
                "burst": burst(state, s.burst_fold),
            }
        return {**data, **tally}

    def finish(self, state: IngestState, ctx: Context, reps: list[Rep]) -> Outcome:
        from repro.runtime.plan import RuntimePlan

        engine, ingest = state.engine, state.ingest
        Publisher(state).publish()  # nothing may be left pending
        ryw = engine.health.read_your_writes_audit()
        acks = Counter(state.acked)
        applied = Counter(state.applied)
        same_factors = bool(
            engine.store.x.tobytes() == ingest.x.tobytes()
            and engine.store.theta.tobytes() == ingest.theta.tobytes()
        )

        def kept(rs: list[Rep], key: str) -> list[list[float]]:
            """Per repetition, ``key`` samples of open-loop phases that kept up."""
            return [r.data["open"][key] for r in rs if not r.data["open"]["backlog_grew"]]

        def visible_p50(rs: list[Rep]) -> float:
            return median_of_medians(kept(rs, "visible_ms"))

        def tails(key: str) -> dict:
            groups = kept(plain, key)
            pooled = [v for group in groups for v in group]
            return {"unit": "ms", "pooled": percentile(pooled, 99.0).as_dict(),
                    "median_of_repetitions": median([percentile(g, 99.0).value for g in groups if g]),
                    "repetitions": len(groups)}

        plain = [r for r in reps if not r.traced]
        vis = [v for group in kept(plain, "visible_ms") for v in group]
        read = [v for group in kept(plain, "read_ms") for v in group]
        ack = [v for r in plain for v in r.data["open"]["ack_ms"]]
        late = [v for r in plain for v in r.data["open"]["late_ms"]]
        folded = [v for r in plain for v in r.data["open"]["folded"]]
        rates = [r.data["burst"]["rate"] for r in plain]

        reads = sum(r.data["open"]["reads"] for r in reps)
        reads_failed = sum(
            r.data["open"]["reads"] if r.data["open"]["backlog_grew"] else r.data["open"]["reads_failed"]
            for r in reps
        )
        writes = sum(r.data["open"]["writes"] + r.data["burst"]["writes"] for r in reps)
        writes_failed = sum(
            r.data["open"]["writes"] if r.data["open"]["backlog_grew"]
            else r.data["open"]["writes"] - r.data["open"]["writes_acked"]
            for r in reps
        ) + sum(r.data["burst"]["writes"] - r.data["burst"]["acked"] for r in reps)
        return Outcome(
            end_to_end={
                "latency_p50_ms": visible_p50(plain),
                "throughput_per_s": median(rates),
            },
            attempted={"reads": reads, "writes": writes},
            failed={"reads": reads_failed, "writes": writes_failed},
            checks={
                "serving_matches_ingest_bytes": same_factors,
                "read_your_writes": not ryw,
                "acks_applied_exactly_once": acks == applied and max(applied.values(), default=1) == 1,
            },
            report={
                "visible_p50_ms": {
                    "unit": "ms",
                    "median_of_repetitions": visible_p50(plain),
                    "pooled": percentile(vis, 50.0).as_dict(),
                },
                "visible_p99_ms": tails("visible_ms"),
                "ack_p50_ms": {"unit": "ms", **percentile(ack, 50.0).as_dict()},
                "read_p50_ms": {"unit": "ms", **percentile(read, 50.0).as_dict()},
                "read_p99_ms": tails("read_ms"),
                "runtime_plan": RuntimePlan(**PLAN).as_dict(),  # trained the served model
                "open_loop_ratings_per_fold": percentile(folded, 50.0).as_dict() if folded else None,
                "burst_visible_per_s": {"unit": "1/s", "value": median(rates), "n": len(rates), "runs": rates},
                "generator_late_ms": {
                    "p50": percentile(late, 50.0).as_dict(),
                    "p99": percentile(late, 99.0).as_dict(),
                },
                "end_of_phase_depth": [r.data["open"]["end_depth"] for r in reps],
                "backlog_grew": [r.data["open"]["backlog_grew"] for r in reps],
                "read_your_writes_violations": ryw[:10],
                "ingest": {k: v for k, v in ingest.stats().items() if k != "digest"},
            },
            latency_p50_of=visible_p50,
        )

    def layer_extras(self, state: IngestState, reps: list[Rep], tracer) -> dict:
        return serving_extras(state.engine, reps)
