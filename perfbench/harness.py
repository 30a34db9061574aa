"""The run loop every workload shares, and the result it prints.

One run of a workload:

1. **set-up**, ``Workload.setups`` times from scratch (what a deployment waits for
   before its first timed operation: data, model, index and engine
   construction, warm-up); ``setup_s`` is the median, and the last set-up
   is kept.  Artifacts a deployment starts from (a trained model file)
   are prepared once, before, untimed, and built in a child process
   (:func:`in_child`) so their memory stays out of ``peak_rss_mb``;
2. **repetitions** of the workload's pre-generated stream until
   ``--seconds`` have passed (at least ``MIN_REPS``).  With ``--trace 1``
   every other repetition runs with the layer probes installed, so the
   traced and untraced halves give the tracing overhead.  ``peak_rss_mb``
   is read after the first ``MIN_REPS`` repetitions: the engines keep
   per-request records, so a peak taken after a time-bounded count of
   repetitions would grow with the program's speed;
3. **checks** of the program's outputs, then the result line.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

from . import spec
from .stats import median, percentile
from .tracing import Tracer, layer_probes

__all__ = ["Context", "Rep", "Workload", "fingerprint", "in_child", "per_layer_metrics", "run"]

MIN_REPS = 3

#: The checkout the benchmark runs in (this package's parent directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Context:
    """What a workload needs to know about the run it is part of."""

    seed: int
    seconds: float
    trace: bool
    workdir: str


@dataclass
class Rep:
    """One repetition's measurements (workload-specific ``data``)."""

    traced: bool
    data: dict


class Workload:
    """Interface of the three workloads (see the modules named after them)."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3
    #: Outer spans (the calls the workload makes); the self time of the
    #: first, outside every layer span, is ``trace.uncovered_ms``.
    outer_spans: tuple[str, ...] = ()

    def prepare(self, ctx: Context) -> Any:
        """Build the artifacts a deployment starts from (untimed, once)."""
        return None

    def setup(self, ctx: Context, prepared: Any) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what a set-up holds (files, engines)."""

    def corpus_m(self, state: Any) -> int | None:
        """User count of a streaming corpus, for the corpus-rebuild probe."""
        return None

    def repetition(self, state: Any, ctx: Context, tracer: Tracer | None) -> dict:
        raise NotImplementedError

    def finish(self, state: Any, ctx: Context, reps: list[Rep]) -> "Outcome":
        raise NotImplementedError

    def layer_extras(self, state: Any, reps: list[Rep], tracer: Tracer) -> dict:
        """Per-layer values the workload measures itself (not from spans)."""
        return {}


@dataclass
class Outcome:
    """A workload's verdict: metrics, operation counts and checks."""

    end_to_end: dict[str, float]
    attempted: dict[str, int]
    failed: dict[str, int]
    checks: dict[str, bool]
    report: dict
    #: ``latency_p50_ms`` over some of the repetitions (for the overhead
    #: of tracing: traced half against untraced half).
    latency_p50_of: Callable[[list[Rep]], float]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_child(fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)`` in a forked child process, waited for; returns its result.

    What the child allocates never counts towards this process's peak RSS.
    """
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(fn, *args).result()


def _blas_threads() -> int | None:
    """Threads the BLAS runtime will use, asked of the library itself."""
    import ctypes

    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def src_lines(root: str) -> int:
    """Lines of Python under ``src/``: the size of the program, tracked beside its speed."""
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def fingerprint(root: str, plan: dict | None) -> dict:
    """The machine and program a measurement belongs to."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "runtime_plan": plan,
        "src_lines": src_lines(root),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced repetitions.
# ---------------------------------------------------------------------------


def _p(values: list[float], q: float = 50.0) -> float:
    return percentile(values, q).value if values else 0.0


def per_layer_metrics(tracer: Tracer, extras: dict) -> tuple[dict, dict]:
    """Every per-layer metric (0 where the layer did no work) and the
    call counts behind them."""
    m = "measure"

    def d(name: str) -> list[float]:
        return tracer.durations(name, m)

    epochs = extras.get("epochs", 0)
    # Kernel time per unit of the workload's work: an epoch of a fit, or
    # one fold-in of streamed ratings (one span per shard and side).
    applies = [s.args for s in tracer.named("streaming.apply", m) if s.args and s.args.get("ratings")]
    units = epochs or len(applies)
    solve_iters = [s.args["cg_iterations"] for s in tracer.named("core.solve", m) if s.args]
    batches = [s.args["batch"] for s in tracer.named("serving.score_batch", m) if s.args]

    def per_unit(name: str) -> float:
        return sum(d(name)) / units if units else 0.0

    def setup_s(name: str) -> float:
        spans = tracer.durations(name, "setup")
        return spans[-1] / 1e3 if spans else 0.0

    values = {
        "runtime.half_step_x_ms": _p(d("runtime.half_step_x")),
        "runtime.half_step_theta_ms": _p(d("runtime.half_step_theta")),
        "runtime.arena_requests_per_epoch": (
            extras.get("arena_requests", 0) / epochs if epochs else 0.0
        ),
        "runtime.arena_peak_mb": extras.get("arena_peak_mb", 0.0),
        "core.get_hermitian_ms": per_unit("core.get_hermitian"),
        "core.solve_ms": per_unit("core.solve"),
        "core.cg_iterations": _p(solve_iters),
        "train.epochs_to_target": extras.get("epochs_to_target", 0),
        "metrics.rmse_ms": per_unit("metrics.rmse"),
        "gpusim.launch_ms": per_unit("gpusim.launch"),
        "serving.submit_ms": _p(d("serving.submit")),
        "serving.queue_wait_ms": _p(extras.get("queue_wait_ms", [])),
        "serving.tick_p50_ms": _p(d("serving.tick")),
        "serving.tick_p99_ms": _p(d("serving.tick"), 99.0),
        "serving.batch_size": sum(batches) / len(batches) if batches else 0.0,
        "serving.score_batch_ms": _p(d("serving.score_batch")),
        "serving.scored_fraction": extras.get("scored_fraction", 0.0),
        "serving.index_build_s": setup_s("serving.index_build"),
        "serving.apply_delta_ms": _p(d("serving.apply_delta")),
        "serving.update_items_ms": _p(d("serving.update_items")),
        "streaming.wal_append_p50_ms": _p(d("streaming.wal_append")),
        "streaming.wal_append_p99_ms": _p(d("streaming.wal_append"), 99.0),
        "streaming.apply_p50_ms": _p(d("streaming.apply")),
        "streaming.apply_p99_ms": _p(d("streaming.apply"), 99.0),
        "streaming.corpus_build_ms": _p(d("streaming.corpus_build")),
        "streaming.delta_save_ms": _p(d("streaming.delta_save")),
        "streaming.compact_ms": _p(d("streaming.compact")),
        "streaming.ratings_per_apply": (
            sum(a["ratings"] for a in applies) / len(applies) if applies else 0.0
        ),
        "streaming.rows_per_apply": (
            sum(a["rows"] for a in applies) / len(applies) if applies else 0.0
        ),
        "streaming.engine_init_s": setup_s("streaming.engine_init"),
        "trace.overhead_pct": extras.get("overhead_pct", 0.0),
        "trace.uncovered_ms": _p(extras.get("uncovered_ms", [])),
    }
    calls = {}
    for s in tracer.spans:
        key = f"{s.phase}:{s.name}"
        calls[key] = calls.get(key, 0) + 1
    calls.update({f"counter:{k}": v for k, v in tracer.counters.items()})
    return values, calls


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def run(workload: Workload, ctx: Context, out_dir: str) -> tuple[dict, dict]:
    """Run ``workload``; returns ``(result_line, report)``."""
    tracer = Tracer() if ctx.trace else None
    prepared = workload.prepare(ctx)
    setup_times: list[float] = []
    state = None
    for i in range(workload.setups):
        if state is not None:
            workload.teardown(state)
            state = None
        last = i == workload.setups - 1
        start = time.perf_counter()
        if tracer is not None and last:
            # The kept set-up is traced, for the set-up-only layer
            # metrics; ``setup_s`` is not reported by a traced run.
            tracer.phase = "setup"
            with tracer.installed(layer_probes(tracer)):
                state = workload.setup(ctx, prepared)
        else:
            state = workload.setup(ctx, prepared)
        setup_times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.counters.clear()  # counters cover the measured repetitions

    try:
        reps: list[Rep] = []
        peak_mb = None
        deadline = time.perf_counter() + ctx.seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            traced = tracer is not None and len(reps) % 2 == 1
            if traced:
                tracer.phase = "measure"
                with tracer.installed(layer_probes(tracer, corpus_m=workload.corpus_m(state))):
                    data = workload.repetition(state, ctx, tracer)
            else:
                data = workload.repetition(state, ctx, None)
            reps.append(Rep(traced=traced, data=data))
            if len(reps) == MIN_REPS:
                peak_mb = peak_rss_mb()
        outcome = workload.finish(state, ctx, reps)

        layers: dict = {}
        calls: dict = {}
        if tracer is not None:
            extras = workload.layer_extras(state, reps, tracer)
            uncovered = {
                name: tracer.uncovered_ms(name, "measure") for name in workload.outer_spans
            }
            extras["uncovered_ms"] = uncovered[workload.outer_spans[0]]
            plain = outcome.latency_p50_of([r for r in reps if not r.traced])
            traced_p50 = outcome.latency_p50_of([r for r in reps if r.traced])
            extras["overhead_pct"] = (traced_p50 / plain - 1.0) * 100.0
            layers, calls = per_layer_metrics(tracer, extras)
    finally:
        workload.teardown(state)

    e2e = {"setup_s": median(setup_times), "peak_rss_mb": peak_mb, **outcome.end_to_end}
    correct = all(outcome.checks.values())
    attempted = sum(outcome.attempted.values())
    failed = sum(outcome.failed.values())
    if ctx.trace:
        metrics = {n: {"value": float(layers[n]), "unit": u} for n, u, _b in spec.PER_LAYER}
    else:
        metrics = {n: {"value": float(e2e[n]), "unit": u} for n, u, _b, _bound in spec.END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload.name,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "setup_s": {"median": median(setup_times), "n": len(setup_times), "runs": setup_times},
        "peak_rss_mb": {"value": peak_mb, "after_repetitions": MIN_REPS},
        "repetitions": len(reps),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        **outcome.report,
        "fingerprint": fingerprint(ROOT, outcome.report.get("runtime_plan")),
    }
    if tracer is not None:
        report["layers"] = layers
        report["layer_calls"] = calls
        report["uncovered_ms_p50"] = {name: _p(v) for name, v in uncovered.items()}
        report["unmeasured"] = UNMEASURED
        stem = f"{workload.name}-seed{ctx.seed}"
        with open(os.path.join(out_dir, f"trace-{stem}.json"), "w") as fh:
            json.dump(tracer.chrome_trace({"workload": workload.name, "seed": ctx.seed}), fh)
        with open(os.path.join(out_dir, f"layers-{stem}.json"), "w") as fh:
            json.dump(report, fh, indent=1)
    return result, report


#: Layer metrics the benchmark cannot take from outside the program.
UNMEASURED = {
    "serving.select_cells_ms": (
        "MicroBatcher ranks cells inline in a private method and never calls "
        "ItemIndex.select_cells, so the probe on that public function sees no call; "
        "cell ranking is inside serving.score_batch_ms"
    ),
}
