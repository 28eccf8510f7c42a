"""Self-tests of the benchmark harness: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import job
import run
import spans
from gen import generate
from workloads import RUN_SECONDS, WORKLOADS, GenSpec

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TINY = GenSpec(users=3, days=1, interval_s=120, places=4, shared_places=2, shared_pool=5,
               dwell_s=(4000, 6000), feature_density=1.0)


@pytest.mark.parametrize("spec", [TINY, *(w.gen for w in WORKLOADS.values())])
def test_generator_is_byte_identical_for_a_seed(spec):
    a, b = generate(spec, 7), generate(spec, 7)
    assert a.traces_csv == b.traces_csv
    assert a.features_csv == b.features_csv
    assert a.planted == b.planted
    assert generate(spec, 8).traces_csv != a.traces_csv


def test_generator_emits_sorted_canonical_csv():
    inputs = generate(TINY, 3)
    lines = inputs.traces_csv.splitlines()
    assert lines[0] == "user_id,timestamp,lat,lon"
    rows = [line.split(",") for line in lines[1:]]
    assert rows and all(len(r) == 4 for r in rows)
    assert {r[0] for r in rows} == set(inputs.planted) and len(inputs.planted) == TINY.users
    keys = [(r[0], int(r[1])) for r in rows]
    assert keys == sorted(keys)
    features = inputs.features_csv.splitlines()
    assert features[0] == "feature_id,lat,lon,category,name"
    assert len(features) > 1 and all(len(f.split(",")) == 5 for f in features)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("bench.job", 0.0, 10.0, -1),          # 0
        _span("poi.a", 1.0, 4.0, 0),                 # 1
        _span("features.a1", 2.0, 3.0, 1),           # 2
        _span("poi.b", 5.0, 9.0, 0),                 # 3
        _span("metrics.b1", 5.0, 6.0, 3),            # 4
        _span("metrics.b2", 5.5, 7.0, 3),            # 5: overlaps b1, counted once
        _span("metrics.b3", 8.5, 9.5, 3),            # 6: runs past its parent, clipped
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])
    assert spans.layer_self(tree) == pytest.approx(
        {"bench": 3.0, "poi": 3.5, "features": 1.0, "metrics": 3.5})
    tot = spans.totals(tree)
    assert tot["poi.a"]["s"] == pytest.approx(3.0)
    assert tot["metrics.b1"]["calls"] == 1


def test_patch_records_nested_spans_and_restores():
    class Store:
        @classmethod
        def build(cls, n):
            return list(range(n))

    def inner(x):
        return x + 1

    mod = SimpleNamespace()
    mod.inner = inner
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = spans.Tracer()
    with tracer.patch([(mod, "outer", "experiment.outer", None, None),
                       (mod, "inner", "poi.inner", lambda a, r: a[0], None),
                       (Store, "build", "features.build", None, lambda a, r: len(r))],
                      [(mod, "inner", "poi.inner_calls")]):
        assert mod.outer(3) == 8
        assert Store.build(4) == [0, 1, 2, 3]
    assert mod.inner is inner and Store.build(2) == [0, 1]
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["experiment.outer", "poi.inner", "features.build"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, -1]
    assert tracer.spans[1][spans.WORK] == 3 and tracer.spans[2][spans.OUT] == 4
    assert tracer.counts["poi.inner_calls"] == 1


def test_benchmark_json_lists_what_the_harness_reports():
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"job_s", "setup_s", "peak_rss_mb"}
    reported = [(m, unit) for m, _, _, unit in job.PER_LAYER] + job.EXTRA_PER_LAYER
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == reported
    assert doc["run_seconds"] == RUN_SECONDS


def test_end_to_end_metrics_when_every_job_failed():
    res = {"job_s": [], "peak_rss_mb": 70.5}
    assert run.end_to_end(res, [0.5, 0.3, 0.4]) == {
        "setup_s": {"value": 0.4, "unit": "s"}, "peak_rss_mb": {"value": 70.5, "unit": "MB"}}
    assert run.end_to_end({**res, "job_s": [2.0, 1.0, 3.0]}, [0.4])["job_s"] == {"value": 2.0, "unit": "s"}
