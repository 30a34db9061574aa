import json
import os
import re

from perfbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec_written_out():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_spec_stays_within_the_format_limits():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert len(json.dumps(doc)) < 64 * 1024
