"""Spans and counters recorded around the calls into each layer.

The benchmark traces the program from the outside: :func:`layer_probes`
lists the public functions at every layer boundary (named after the
modules that own them), and :meth:`Tracer.install` swaps each for a thin
wrapper that records a span — name, start, end, parent span — and puts
the original back on :meth:`Tracer.uninstall`.  Nothing in the program
changes, and an untraced repetition runs the original functions with no
wrapper at all, which is how the tracing overhead is measured.

Spans stay in memory until the run ends; :meth:`Tracer.chrome_trace`
writes them in the Chrome trace-event format (``chrome://tracing`` or
Perfetto).  Spans of one read share its request id and spans of one
write share its WAL sequence, through the ``ids`` argument.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Probe", "Tracer", "layer_probes"]

Namer = Callable[[tuple, dict], str]
Annotator = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int = -1
    parent: int = -1
    phase: str = ""
    args: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def add(self, args: dict) -> None:
        self.args = {**(self.args or {}), **args}


@dataclass(frozen=True)
class Probe:
    """One function to trace: ``owner.attr`` (a module or a class).

    ``name`` is the span name, or a function of the call's arguments
    that returns it.  ``annotate`` turns ``(args, kwargs, result)`` into
    span arguments.  A ``count_only`` probe bumps a counter per call and
    records no span (for calls too frequent and too cheap to time).  A
    ``factory`` builds the stand-in from the original instead of the
    default wrapper.
    """

    owner: Any
    attr: str
    name: str | Namer
    annotate: Annotator | None = None
    count_only: bool = False
    factory: Callable[[Any], Any] | None = None


@dataclass
class Tracer:
    """Records spans into memory while its probes are installed."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    phase: str = ""
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, args: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter_ns(), parent=parent, phase=self.phase, args=args)
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, **args):
        idx = self.begin(name, args or None)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        if probe.count_only:
            counters = self.counters
            key = probe.name

            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            name = probe.name if isinstance(probe.name, str) else probe.name(args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if probe.annotate is not None:
                self.spans[idx].add(probe.annotate(args, kwargs, result))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, probes: list[Probe]) -> None:
        if self._saved:
            raise RuntimeError("probes already installed")
        for probe in probes:
            original = vars(probe.owner)[probe.attr]
            self._saved.append((probe.owner, probe.attr, original))
            stand_in = (
                probe.factory(original) if probe.factory is not None
                else self.wrap(original, probe)
            )
            setattr(probe.owner, probe.attr, stand_in)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, probes: list[Probe]):
        self.install(probes)
        try:
            yield self
        finally:
            self.uninstall()

    # -- queries ------------------------------------------------------------

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        """Durations (ms) of the closed spans called ``name``."""
        return [s.ms for s in self.named(name, phase) if s.end >= 0]

    def annotate_last(self, name: str, **args) -> None:
        """Attach ``args`` to the newest span called ``name``."""
        for span in reversed(self.spans):
            if span.name == name:
                span.add(args)
                return

    def named(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phase is None or s.phase == phase)]

    def children_ms(self) -> dict[int, float]:
        """Summed duration of each span's direct children."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0 and s.end >= 0:
                out[s.parent] += s.ms
        return out

    def uncovered_ms(self, name: str, phase: str | None = None) -> list[float]:
        """Self time of each span called ``name``: what no child span covers."""
        covered = self.children_ms()
        return [
            s.ms - covered.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s.name == name and s.end >= 0 and (phase is None or s.phase == phase)
        ]

    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """The spans as a Chrome trace-event document."""
        t0 = min((s.start for s in self.spans), default=0)
        events = []
        for s in self.spans:
            if s.end < 0:
                continue
            args = dict(s.args or {})
            if s.phase:
                args["phase"] = s.phase
            events.append(
                {
                    "name": s.name,
                    "cat": s.layer,
                    "ph": "X",
                    "ts": (s.start - t0) / 1e3,
                    "dur": (s.end - s.start) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"counters": dict(self.counters), **(metadata or {})},
        }


# ---------------------------------------------------------------------------
# The layer boundaries.
# ---------------------------------------------------------------------------


class _CorpusProbe:
    """Stands in for ``RatingMatrix`` inside the streaming module.

    ``IngestEngine`` builds matrices with ``RatingMatrix.from_coo`` both
    for its whole corpus (m equal to the user count: the O(corpus)
    rebuild) and for the compact per-shard gathers; the probe names the
    two differently and forwards everything else to the real class.
    """

    def __init__(self, tracer: Tracer, real: type, corpus_m: int) -> None:
        self._tracer = tracer
        self._real = real
        self._corpus_m = corpus_m

    def from_coo(self, rows, cols, vals, m=None, n=None):
        name = "streaming.corpus_build" if m == self._corpus_m else "streaming.gather"
        with self._tracer.span(name):
            return self._real.from_coo(rows, cols, vals, m=m, n=n)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _half_step_name(args: tuple, kwargs: dict) -> str:
    return f"runtime.half_step_{kwargs.get('key', 'x')}"


def layer_probes(tracer: Tracer, *, corpus_m: int | None = None) -> list[Probe]:
    """Every traced layer boundary, keyed to the module that owns it.

    ``corpus_m`` (the ingest corpus' user count) enables the probe that
    separates the streaming corpus rebuild from the per-shard gathers.
    """
    from repro.core import als
    from repro.gpusim.engine import SimEngine
    from repro.runtime import executor
    from repro.runtime.arena import Workspace
    from repro.serving import reload
    from repro.serving.batcher import MicroBatcher
    from repro.serving.engine import ServingEngine
    from repro.serving.index import ItemIndex
    from repro.streaming import ingest
    from repro.streaming.wal import RatingsWAL

    probes = [
        # runtime: the executor's half-step, and arena traffic (counted).
        Probe(
            executor.ShardExecutor,
            "half_step",
            _half_step_name,
            annotate=lambda a, kw, r: {"cg_iterations": r.cg_iterations},
        ),
        Probe(Workspace, "request", "runtime.arena_request", count_only=True),
        # core kernels, where the executor and the fold-in call them.
        Probe(executor, "hermitian_rows", "core.get_hermitian"),
        Probe(executor, "cg_solve_batched", "core.solve",
              annotate=lambda a, kw, r: {"cg_iterations": r.iterations}),
        Probe(ingest, "hermitian_rows", "core.get_hermitian"),
        Probe(ingest, "cg_solve_batched", "core.solve",
              annotate=lambda a, kw, r: {"cg_iterations": r.iterations}),
        # metrics and the gpusim pricing inside fit.
        Probe(als, "rmse", "metrics.rmse"),
        Probe(SimEngine, "launch", "gpusim.launch"),
        # serving: admission, the tick, batch scoring, index, reload.
        Probe(ServingEngine, "submit", "serving.submit", annotate=lambda a, kw, r: {"ids": [r]}),
        Probe(ServingEngine, "tick", "serving.tick"),
        Probe(
            MicroBatcher,
            "score_batch",
            "serving.score_batch",
            annotate=lambda a, kw, r: {
                "batch": len(a[3]), "ids": [q.request_id for q in a[3]]
            },
        ),
        Probe(ItemIndex, "select_cells", "serving.select_cells"),
        Probe(ItemIndex, "update_items", "serving.update_items"),
        Probe(reload, "build_index", "serving.index_build"),
        Probe(reload.ModelStore, "apply_delta", "serving.apply_delta"),
        # streaming: WAL, ingest/apply, delta checkpoints.
        Probe(RatingsWAL, "append", "streaming.wal_append",
              annotate=lambda a, kw, r: {"ids": [r]}),
        Probe(ingest.IngestEngine, "__init__", "streaming.engine_init"),
        Probe(
            ingest.IngestEngine,
            "ingest",
            "streaming.ingest",
            annotate=lambda a, kw, r: {"ids": [r]},
        ),
        Probe(
            ingest.IngestEngine,
            "apply",
            "streaming.apply",
            annotate=lambda a, kw, r: {
                "ids": list(r.applied_seqs),
                "ratings": len(r.applied_seqs),
                "rows": int(r.users.size + r.items.size),
            },
        ),
        Probe(ingest, "save_delta", "streaming.delta_save"),
        Probe(ingest, "compact", "streaming.compact"),
    ]
    if corpus_m is not None:
        probes.append(
            Probe(
                ingest,
                "RatingMatrix",
                "streaming.corpus_build",
                factory=lambda real: _CorpusProbe(tracer, real, corpus_m),
            )
        )
    return probes
