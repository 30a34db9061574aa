"""What the benchmark reports: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is this module written out; a
test keeps the two in step.  Every workload reports every metric.  The
end-to-end metrics are defined on all three workloads (README.md gives
each definition per workload); a per-layer metric of a layer that a
workload never calls reads 0, with its call count 0 in the layer report.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "WORKLOADS", "benchmark_json"]

RUN_SECONDS = 25

WORKLOADS = {
    "train-netflix": (
        "ALS fit to the Table II RMSE 0.92 on the Netflix surrogate at f=100: "
        "core and runtime do the work, serving and streaming none"
    ),
    "serve-catalog": (
        "top-10 reads on a 262K-item IVF catalogue, open loop at 400 req/s then "
        "drained in full batches: serving index and batcher do the work"
    ),
    "ingest-mixed": (
        "100 ratings/s streamed into the f=32 Netflix model beside 200 reads/s, "
        "folded in on demand: streaming and reload do the work"
    ),
}

#: name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
]

#: name, unit, better.
PER_LAYER = [
    ("runtime.half_step_x_ms", "ms", "lower"),
    ("runtime.half_step_theta_ms", "ms", "lower"),
    ("runtime.arena_requests_per_epoch", "count", "lower"),
    ("runtime.arena_peak_mb", "MB", "lower"),
    ("core.get_hermitian_ms", "ms", "lower"),
    ("core.solve_ms", "ms", "lower"),
    ("core.cg_iterations", "count", "lower"),
    ("train.epochs_to_target", "count", "lower"),
    ("metrics.rmse_ms", "ms", "lower"),
    ("gpusim.launch_ms", "ms", "lower"),
    ("serving.submit_ms", "ms", "lower"),
    ("serving.queue_wait_ms", "ms", "lower"),
    ("serving.tick_p50_ms", "ms", "lower"),
    ("serving.tick_p99_ms", "ms", "lower"),
    ("serving.batch_size", "count", "higher"),
    ("serving.score_batch_ms", "ms", "lower"),
    ("serving.scored_fraction", "fraction", "lower"),
    ("serving.index_build_s", "s", "lower"),
    ("serving.apply_delta_ms", "ms", "lower"),
    ("serving.update_items_ms", "ms", "lower"),
    ("streaming.wal_append_p50_ms", "ms", "lower"),
    ("streaming.wal_append_p99_ms", "ms", "lower"),
    ("streaming.apply_p50_ms", "ms", "lower"),
    ("streaming.apply_p99_ms", "ms", "lower"),
    ("streaming.corpus_build_ms", "ms", "lower"),
    ("streaming.delta_save_ms", "ms", "lower"),
    ("streaming.compact_ms", "ms", "lower"),
    ("streaming.ratings_per_apply", "count", "higher"),
    ("streaming.rows_per_apply", "count", "lower"),
    ("streaming.engine_init_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.uncovered_ms", "ms", "lower"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this module defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
