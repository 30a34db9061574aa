"""serve-catalog: top-10 reads through ``ServingEngine`` on an IVF catalogue.

The ``repro bench`` retrieval catalogue (4096 users x 262,144 items, f=64,
64 planted clusters, fixed) behind a 512-cell index probed 16 cells deep.
``--seed`` draws the traffic.  Each repetition replays the same two phases:

* **open loop**: Poisson arrivals at ``rate`` (about a fifth of saturation),
  replayed by :func:`perfbench.openloop.open_loop`, each read timed from
  its due time to the end of the tick that answered it;
* **saturation**: a fixed batch of reads submitted ``max_batch`` at a time
  and drained, timed as answered reads per second.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import schedule
from .harness import ROOT, Context, Outcome, Rep, Workload, in_child
from .openloop import ReadLog, open_loop
from .stats import median, median_of_medians, percentile

def recall_floor(root: str) -> float:
    """The retrieval recall floor ``repro bench`` already gates."""
    import json

    with open(os.path.join(root, "benchmarks", "baseline.json")) as fh:
        return float(json.load(fh)["sections"]["retrieval"]["recall_floor"])


@dataclass(frozen=True)
class ServeSize:
    users: int = 4096
    items: int = 262_144
    f: int = 64
    clusters: int = 64
    ncells: int = 512
    nprobe: int = 16
    max_batch: int = 16
    backlog_slack: int = 16  # outstanding reads; one batch
    k: int = 10
    # About a fifth of saturation (2,000-2,600 req/s on a 2-core x86 VM).  At
    # 800 req/s (40%) reads queue behind the batch in progress, which turns
    # the host's drift in speed into a read p50 that moved 40% between runs.
    rate: float = 400.0
    open_seconds: float = 1.0
    saturation_reads: int = 1024
    recall_reads: int = 256


TINY = ServeSize(
    users=256, items=4096, f=16, clusters=8, ncells=64, nprobe=8,
    rate=200.0, open_seconds=0.4, saturation_reads=64, recall_reads=32,
)


def save_factors(path: str, x: np.ndarray, theta: np.ndarray) -> None:
    """Write factors as a servable model file (the ``repro train`` format)."""
    from repro.core.als import ALSModel
    from repro.core.config import ALSConfig
    from repro.persistence import save_model

    model = ALSModel(ALSConfig(f=x.shape[1]))
    model.x_, model.theta_ = x, theta
    save_model(path, model)


def saturate(engine, users: np.ndarray, k: int, max_batch: int) -> dict:
    """Drain a fixed batch of reads in full batches; answered reads per second."""
    clock = time.perf_counter
    log = ReadLog(engine)
    rids: list[int] = []
    start = clock()
    for lo in range(0, len(users), max_batch):
        now = clock()
        for u in users[lo: lo + max_batch]:
            rids.append(log.submit(int(u), k, now))
        engine.tick()
        log.settle(now, clock())
    engine.run_until_drained()
    log.settle(start, clock())
    seconds = clock() - start
    return {"rps": log.ok / seconds, "ok": log.ok, "failed": log.failed,
            "submitted": log.submitted, "rids": rids}


def write_catalog(path: str, size: ServeSize) -> str:
    from repro.serving.index import clustered_catalog

    x, theta = clustered_catalog(size.users, size.items, size.f, clusters=size.clusters, seed=0)
    save_factors(path, x, theta)
    return path


def exact_top_k(x: np.ndarray, theta: np.ndarray, users: np.ndarray, k: int) -> list[set]:
    """Brute-force top-k item sets, a few users at a time."""
    out = []
    for lo in range(0, len(users), 16):
        scores = x[users[lo: lo + 16]] @ theta.T
        top = np.argpartition(scores, scores.shape[1] - k, axis=1)[:, -k:]
        out.extend(set(map(int, row)) for row in top)
    return out


@contextmanager
def scoring_tally(engine):
    """Items and requests the engine scored inside the ``with`` block."""
    batcher = engine.batcher
    items, requests = batcher.items_scored, batcher.requests_scored
    tally: dict = {}
    yield tally
    tally["items_scored"] = batcher.items_scored - items
    tally["requests_scored"] = batcher.requests_scored - requests


def serving_extras(engine, reps: list[Rep]) -> dict:
    """Per-layer serving values of the traced repetitions."""
    traced = [r.data for r in reps if r.traced]
    scored = sum(d["items_scored"] for d in traced)
    requests = sum(d["requests_scored"] for d in traced)
    n_items = engine.store.theta.shape[0]
    return {
        "queue_wait_ms": [w for d in traced for w in d["open"]["queue_wait_ms"]],
        "scored_fraction": scored / (requests * n_items) if requests else 0.0,
        "arena_peak_mb": engine.batcher.workspace.peak_resident_bytes / 2**20,
    }


@dataclass
class ServeState:
    engine: object
    stream: schedule.MixedStream
    saturation_users: np.ndarray


class ServeCatalog(Workload):
    name = "serve-catalog"
    outer_spans = ("serving.tick",)

    def __init__(self, size: ServeSize | None = None) -> None:
        self.size = size or ServeSize()

    def prepare(self, ctx: Context) -> str:
        return in_child(write_catalog, os.path.join(ctx.workdir, "catalog.npz"), self.size)

    def setup(self, ctx: Context, path: str) -> ServeState:
        from repro.serving import IndexConfig, ServingConfig, ServingEngine

        s = self.size
        engine = ServingEngine(
            path,
            # Deep queue and deadline: a read is refused only when the
            # engine is far behind, which the backlog detector reports.
            config=ServingConfig(queue_capacity=1024, max_batch=s.max_batch, budget_ticks=256),
            index_config=IndexConfig(ncells=s.ncells, nprobe=s.nprobe, seed=0),
        )
        stream = schedule.mixed_stream(
            ctx.seed, write_rate=0.0, read_rate=s.rate, duration=s.open_seconds,
            n_users=s.users, n_items=s.items,
        )
        sat_users = schedule.saturation_stream(ctx.seed, count=s.saturation_reads, n_users=s.users)
        # Warm-up: one saturation pass sizes the scoring arena and warms
        # the index pages.
        saturate(engine, sat_users, s.k, s.max_batch)
        return ServeState(engine=engine, stream=stream, saturation_users=sat_users)

    def repetition(self, state: ServeState, ctx: Context, tracer) -> dict:
        s = self.size
        with scoring_tally(state.engine) as tally:
            loop = open_loop(
                state.engine, state.stream,
                k=s.k, max_batch=s.max_batch, slack=s.backlog_slack, tracer=tracer,
            )
            sat = saturate(state.engine, state.saturation_users, s.k, s.max_batch)
        return {"open": loop, "saturation": sat, **tally}

    def finish(self, state: ServeState, ctx: Context, reps: list[Rep]) -> Outcome:
        s = self.size
        engine = state.engine
        last = reps[-1].data["saturation"]
        users = state.saturation_users[: s.recall_reads]
        exact = exact_top_k(engine.store.x, engine.store.theta, users, s.k)
        got = [{i for i, _ in engine.results.get(rid, [])} for rid in last["rids"][: s.recall_reads]]
        recall = float(np.mean([len(a & b) / s.k for a, b in zip(exact, got)]))
        floor = recall_floor(ROOT)

        def latencies(rs: list[Rep]) -> list[list[float]]:
            """Per repetition, the read latencies of phases that kept up."""
            return [r.data["open"]["read_ms"] for r in rs if not r.data["open"]["backlog_grew"]]

        def read_p50(rs: list[Rep]) -> float:
            return median_of_medians(latencies(rs))

        plain = [r for r in reps if not r.traced]
        lat = [v for group in latencies(plain) for v in group]
        p99s = [percentile(group, 99.0).value for group in latencies(plain) if group]
        late = [v for r in plain for v in r.data["open"]["late_ms"]]
        rps = [r.data["saturation"]["rps"] for r in plain]
        attempted = sum(r.data["open"]["reads"] + r.data["saturation"]["submitted"] for r in reps)
        failed = sum(
            r.data["open"]["reads"] if r.data["open"]["backlog_grew"]
            else r.data["open"]["reads_failed"]
            for r in reps
        ) + sum(r.data["saturation"]["failed"] for r in reps)
        audit = engine.health.audit()
        return Outcome(
            end_to_end={
                "latency_p50_ms": read_p50(plain),
                "throughput_per_s": median(rps),
            },
            attempted={"reads": attempted},
            failed={"reads": failed},
            checks={
                "recall_at_10_above_floor": recall >= floor,
                "accounting_balanced": not audit,
            },
            report={
                "read_p50_ms": {
                    "unit": "ms",
                    "median_of_repetitions": read_p50(plain),
                    "pooled": percentile(lat, 50.0).as_dict(),
                },
                "read_p99_ms": {
                    "unit": "ms",
                    "pooled": percentile(lat, 99.0).as_dict(),
                    "median_of_repetitions": median(p99s),
                    "repetitions": len(p99s),
                },
                "read_saturated_rps": {"unit": "req/s", "value": median(rps), "n": len(rps), "runs": rps},
                "recall_at_10": {"unit": "fraction", "value": recall, "n": len(got), "floor": floor},
                "open_loop_rate": s.rate,
                "generator_late_ms": {
                    "p50": percentile(late, 50.0).as_dict(),
                    "p99": percentile(late, 99.0).as_dict(),
                },
                "end_of_phase_depth": [r.data["open"]["end_depth"] for r in reps],
                "backlog_grew": [r.data["open"]["backlog_grew"] for r in reps],
                "accounting_violations": audit[:10],
            },
            latency_p50_of=read_p50,
        )

    def layer_extras(self, state: ServeState, reps: list[Rep], tracer) -> dict:
        return serving_extras(state.engine, reps)
