"""Tiny-size runs of every workload, and their checks tripping on bad output."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import harness, ingest_mixed, serve_catalog, spec, train_netflix

ROOT = harness.ROOT


def ctx(tmp_path, trace=False):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return harness.Context(seed=5, seconds=0.2, trace=trace, workdir=str(work))


def tiny(name):
    return {
        "train-netflix": train_netflix.TrainNetflix(train_netflix.TINY),
        "serve-catalog": serve_catalog.ServeCatalog(serve_catalog.TINY),
        "ingest-mixed": ingest_mixed.IngestMixed(ingest_mixed.TINY),
    }[name]


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, name, trace):
    result, report = harness.run(tiny(name), ctx(tmp_path, trace), str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in wanted]
    for (metric, unit, *_rest) in wanted:
        value = result["metrics"][metric]
        assert value["unit"] == unit and np.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert os.path.exists(tmp_path / f"trace-{name}-seed5.json")
    assert report["fingerprint"]["nproc"] >= 1 and report["fingerprint"]["src_lines"] > 0


def run_reps(workload, context, reps=2):
    prepared = workload.prepare(context)
    state = workload.setup(context, prepared)
    out = [harness.Rep(traced=False, data=workload.repetition(state, context, None))
           for _ in range(reps)]
    return state, out


def test_train_check_trips_on_a_missed_target(tmp_path):
    workload = train_netflix.TrainNetflix(
        train_netflix.TrainSize(scale=0.05, f=8, epoch_cap=1, target=0.01)
    )
    context = ctx(tmp_path)
    state, reps = run_reps(workload, context)
    outcome = workload.finish(state, context, reps)
    assert not outcome.checks["rmse_reaches_target"]
    assert outcome.failed["fits"] == outcome.attempted["fits"] == 2


def test_train_check_trips_on_non_finite_factors(tmp_path):
    workload = tiny("train-netflix")
    context = ctx(tmp_path)
    state, reps = run_reps(workload, context)
    reps[0].data["finite"] = False
    outcome = workload.finish(state, context, reps)
    assert not outcome.checks["factors_finite"]


def test_serve_check_trips_on_wrong_answers(tmp_path):
    workload = tiny("serve-catalog")
    context = ctx(tmp_path)
    state, reps = run_reps(workload, context)
    assert workload.finish(state, context, reps).checks["recall_at_10_above_floor"]
    for rid in reps[-1].data["saturation"]["rids"]:
        state.engine.results[rid] = [(i, 0.0) for i in range(10)]
    assert not workload.finish(state, context, reps).checks["recall_at_10_above_floor"]


def test_ingest_checks_trip_on_diverged_factors_and_lost_acks(tmp_path):
    workload = tiny("ingest-mixed")
    context = ctx(tmp_path)
    state, reps = run_reps(workload, context)
    try:
        outcome = workload.finish(state, context, reps)
        assert all(outcome.checks.values()), outcome.checks
        state.engine.store.x[0, 0] += 1.0
        state.applied.pop()
        checks = workload.finish(state, context, reps).checks
        assert not checks["serving_matches_ingest_bytes"]
        assert not checks["acks_applied_exactly_once"]
    finally:
        workload.teardown(state)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("_out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-netflix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    with pytest.raises(ValueError):
        json.loads(last[0])
