import json
import types

import pytest

from perfbench.tracing import Probe, Tracer, layer_probes


def make_owner():
    calls = []

    def work(x):
        calls.append(x)
        return x * 2

    return types.SimpleNamespace(work=work, calls=calls)


class TestSpans:
    def test_spans_nest_with_parents(self):
        t = Tracer()
        with t.span("outer.call"):
            with t.span("core.inner", ids=[7]):
                pass
        outer, inner = t.spans
        assert outer.parent == -1 and inner.parent == 0
        assert inner.args == {"ids": [7]}
        assert outer.end >= inner.end >= inner.start >= outer.start

    def test_uncovered_time_is_self_time_outside_children(self):
        t = Tracer()
        with t.span("outer.call"):
            with t.span("core.inner"):
                pass
        outer, inner = t.spans
        (uncovered,) = t.uncovered_ms("outer.call")
        assert uncovered == pytest.approx(outer.ms - inner.ms)

    def test_chrome_trace_is_valid_json_with_one_event_per_span(self):
        t = Tracer(phase="measure")
        with t.span("serving.tick"):
            pass
        t.counters["runtime.arena_request"] += 3
        doc = json.loads(json.dumps(t.chrome_trace({"workload": "w"})))
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X" and event["cat"] == "serving"
        assert event["args"]["phase"] == "measure"
        assert doc["otherData"]["counters"] == {"runtime.arena_request": 3}


class TestProbes:
    def test_install_wraps_and_uninstall_restores(self):
        owner = make_owner()
        original = owner.work
        t = Tracer()
        probe = Probe(owner, "work", "core.work", annotate=lambda a, kw, r: {"out": r})
        with t.installed([probe]):
            assert owner.work is not original
            assert owner.work(3) == 6
        assert owner.work is original
        (span,) = t.spans
        assert span.name == "core.work" and span.args == {"out": 6}
        owner.work(4)
        assert len(t.spans) == 1  # untraced after uninstall

    def test_count_only_probe_records_no_span(self):
        owner = make_owner()
        t = Tracer()
        with t.installed([Probe(owner, "work", "runtime.count", count_only=True)]):
            owner.work(1)
            owner.work(2)
        assert t.counters["runtime.count"] == 2 and not t.spans

    def test_span_closes_when_the_call_raises(self):
        def boom():
            raise KeyError("x")

        owner = types.SimpleNamespace(boom=boom)
        t = Tracer()
        with t.installed([Probe(owner, "boom", "core.boom")]):
            with pytest.raises(KeyError):
                owner.boom()
        assert t.spans[0].end >= 0 and not t._stack

    def test_layer_probes_install_and_restore_every_boundary(self):
        t = Tracer()
        probes = layer_probes(t, corpus_m=10)
        before = [vars(p.owner)[p.attr] for p in probes]
        with t.installed(probes):
            assert all(vars(p.owner)[p.attr] is not b for p, b in zip(probes, before))
        assert all(vars(p.owner)[p.attr] is b for p, b in zip(probes, before))

    def test_corpus_probe_separates_rebuild_from_gathers(self):
        import numpy as np

        from repro.streaming import ingest

        t = Tracer()
        with t.installed(layer_probes(t, corpus_m=4)):
            rows = np.array([0, 1, 3])
            cols = np.array([0, 1, 0])
            vals = np.ones(3, np.float32)
            ingest.RatingMatrix.from_coo(rows, cols, vals, m=4, n=2)
            ingest.RatingMatrix.from_coo(rows[:1], cols[:1], vals[:1], m=1, n=2)
        assert [s.name for s in t.spans] == ["streaming.corpus_build", "streaming.gather"]
