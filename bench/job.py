"""One benchmark process: load the inputs, time jobs, check the outputs.

``run.py`` starts this file in a fresh interpreter for every sample, so
``setup_s`` always includes the import of geopriv:

* ``--mode setup`` loads the inputs and prints the set-up time;
* ``--mode run`` loads the inputs, runs the workload's job once untimed to
  warm the process up, repeats it for ``--seconds``, then runs the
  correctness gates outside the timed region.
  With ``--trace 1`` it alternates untraced and traced jobs, derives the
  per-layer metrics from the traced ones and writes the spans to
  ``.bench_run/trace-<workload>-seed<n>.json``.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(ROOT / "src"))  # geopriv itself is imported inside load()

MIN_JOBS = 3
MAX_LOOP_S = 120.0  # keeps a run inside its time limit however slow a job is
ORACLE_USERS = 2
ORACLE_SLICE = 400  # points per sampled trace; the literal walk is quadratic
ORACLE_QUERIES = 20
PLANTED_TOL_M = 100.0


@dataclass
class Context:
    workload: Workload
    seed: int
    dataset: object
    store: object
    scratch: Path
    digest: str | None = None


def load(inputs: Path) -> tuple[object, object, float]:
    """Import geopriv and load the traces and features: the set-up a user
    pays before the first job."""
    t0 = time.perf_counter()
    from geopriv import ingest
    from geopriv.features import FeatureStore

    with open(inputs / "traces.csv", encoding="utf-8") as fh:
        dataset = ingest.parse_canonical(fh)
    with open(inputs / "features.csv", encoding="utf-8", newline="") as fh:
        store = FeatureStore.build(ingest.parse_features(fh))
    return dataset, store, time.perf_counter() - t0


def _config(ctx: Context):
    from geopriv import experiment

    w = ctx.workload
    return experiment.ExperimentConfig(
        levels=tuple(experiment.DEFAULT_LEVELS[i] for i in w.levels),
        runs=w.runs,
        master_seed=ctx.seed,
        sweep=experiment.SweepConfig(*w.sweep_m),
        precision=experiment.PrecisionConfig(samples=w.precision_samples),
    )


def study_job(ctx: Context, out: Path):
    """What a user pays for one study: run_experiment plus write_report."""
    from geopriv import experiment

    report = experiment.run_experiment(ctx.dataset, _config(ctx), ctx.store)
    experiment.write_report(report, out)
    return None


def campaign_job(ctx: Context, out: Path):
    """The command-line stage hand-off, through the API."""
    from geopriv import experiment, ingest
    from geopriv.poi import ExtractionParams

    w = ctx.workload
    ds = ingest.filter_dataset(ctx.dataset, ingest.FilterPolicy(*w.filter_policy))
    with open(out / "traces.csv", "w", encoding="utf-8", newline="") as fh:
        ingest.write_canonical(ds, fh)
    truth = experiment.extract_ground_truth(ds, ExtractionParams())
    with open(out / "pois.csv", "w", encoding="utf-8", newline="") as fh:
        ingest.write_pois(truth, fh)
    with open(out / "pois.csv", encoding="utf-8") as fh:
        parsed_truth = ingest.parse_pois(fh)
    level = experiment.DEFAULT_LEVELS[w.levels[0]]
    campaign = experiment.obfuscation_campaign(ds, level, w.runs, ctx.seed)
    parsed = []
    for run, rds in enumerate(campaign):
        path = out / f"run_{run:03d}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            ingest.write_canonical(rds, fh)
        with open(path, encoding="utf-8") as fh:
            parsed.append(ingest.parse_canonical(fh))
    return truth, parsed_truth, campaign, parsed


def check_campaign(artifacts) -> list[str]:
    truth, parsed_truth, campaign, parsed = artifacts
    problems = []
    if parsed_truth != {u: ps for u, ps in truth.items() if len(ps)}:
        problems.append("POI CSV does not round-trip the ground truth")
    if parsed != campaign:
        problems.append("canonical CSV does not round-trip the campaign")
    return problems


JOBS = {"study": study_job, "campaign": campaign_job}


def dir_digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def run_job(ctx: Context, tracer: spans.Tracer | None) -> tuple[float, list[str]]:
    """One timed job; returns its wall time and any failed checks."""
    out = Path(tempfile.mkdtemp(dir=ctx.scratch))
    try:
        block = tracer.span("bench.job") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with block:
            artifacts = JOBS[ctx.workload.kind](ctx, out)
        elapsed = time.perf_counter() - t0
        problems = check_campaign(artifacts) if artifacts else []
        digest = dir_digest(out)
    finally:
        shutil.rmtree(out)
    if ctx.digest is None:
        ctx.digest = digest
    elif digest != ctx.digest:
        problems.append(f"report digest {digest} differs from {ctx.digest}")
    return elapsed, problems


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same_point(got, want) -> bool:
    return abs(got.lat - want.lat) <= 1e-9 and abs(got.lon - want.lon) <= 1e-9


def oracle_gate(ctx: Context) -> list[str]:
    """A seeded sample of extraction and query results against the naive
    oracles in tests/oracles.py, with the tolerance the test suite uses."""
    import numpy as np
    from geopriv import experiment, mechanism, poi
    from geopriv.core import MobilityTrace
    from geopriv.features import DEFAULT_TOP_K

    oracles = _load_oracles()
    w = ctx.workload
    gen = np.random.Generator(np.random.PCG64(ctx.seed))
    base = poi.ExtractionParams()
    params = [base, replace(base, max_distance=float(w.sweep_m[1]))] if w.kind == "study" else [base]
    level = experiment.DEFAULT_LEVELS[w.levels[0]]
    problems = []
    users = ctx.dataset.users()
    for user in gen.choice(users, ORACLE_USERS, replace=False).tolist():
        locs = ctx.dataset.traces[user].locations
        a = int(gen.integers(0, max(len(locs) - ORACLE_SLICE, 1)))
        real = MobilityTrace(user, locs[a:a + ORACLE_SLICE])
        rng = mechanism.RandomSource(int(gen.integers(0, 2**63)))
        for trace in (real, mechanism.obfuscate_trace(real, level, rng)):
            for p in params:
                got = poi.extract_stays(trace, p)
                want = oracles.extract_stays_literal(trace, p)
                if len(got) != len(want) or not all(
                    (g.start_t, g.end_t, g.point_count) == (o.start_t, o.end_t, o.point_count)
                    and _same_point(g.centroid, o.centroid)
                    for g, o in zip(got, want)
                ):
                    problems.append(f"extract_stays differs from the oracle for {user} at {p.max_distance} m")
                got_pois = poi.dj_cluster(got, p)
                want_pois = oracles.dj_cluster_literal(want, p)
                if len(got_pois) != len(want_pois) or not all(
                    g.support == o.support and _same_point(g.centroid, o.centroid)
                    for g, o in zip(got_pois, want_pois)
                ):
                    problems.append(f"dj_cluster differs from the oracle for {user} at {p.max_distance} m")
    features = list(ctx.store)
    for _ in range(ORACLE_QUERIES):
        locs = ctx.dataset.traces[users[int(gen.integers(0, len(users)))]].locations
        c = locs[int(gen.integers(0, len(locs)))].point
        if ctx.store.top_k(c, DEFAULT_TOP_K) != oracles.brute_force_top_k(features, c, DEFAULT_TOP_K):
            problems.append(f"top_k differs from brute force at {c}")
        r = float(gen.uniform(0.0, 2000.0))
        if ctx.store.range_query(c, r) != oracles.brute_force_range(features, c, r):
            problems.append(f"range_query differs from brute force at {c}, {r:.1f} m")
    return problems


def planted_gate(ctx: Context, planted: dict) -> tuple[list[str], int]:
    """Every place the generator planted is found among the ground-truth
    POIs; also returns how many ground-truth POIs there are."""
    from geopriv import experiment
    from geopriv.core import GeoPoint, distance
    from geopriv.poi import ExtractionParams

    truth = experiment.extract_ground_truth(ctx.dataset, ExtractionParams())
    problems = []
    for user, places in planted.items():
        found = truth[user].pois if user in truth else ()
        for lat, lon in places:
            if not any(distance(GeoPoint(lat, lon), p.centroid) <= PLANTED_TOL_M for p in found):
                problems.append(f"planted place ({lat}, {lon}) of {user} not among its POIs")
    return problems, sum(len(ps) for ps in truth.values())


EXPERIMENT_STEPS = ("extract_ground_truth", "obfuscation_campaign", "threshold_sweep",
                    "evaluate", "precision_summary", "write_report")
LAYERS = ("ingest", "mechanism", "poi", "features", "metrics", "experiment")


def instrumented(tracer: spans.Tracer):
    """The public calls each layer's spans wrap. Functions are patched where
    their callers look them up: experiment imports its helpers by name,
    poi.extract_pois calls extract_stays and dj_cluster through poi's
    globals, and metrics reaches the store through FeatureStore methods."""
    from geopriv import experiment, ingest, metrics, poi
    from geopriv.features import FeatureStore

    n_args = lambda a, r: len(a[0])  # noqa: E731
    n_result = lambda a, r: len(r)  # noqa: E731
    n_points = lambda a, r: r.total_locations()  # noqa: E731
    written = lambda a, r: r  # noqa: E731
    targets = [
        (ingest, "parse_canonical", "ingest.parse_canonical", n_points, None),
        (ingest, "write_canonical", "ingest.write_canonical", written, None),
        (ingest, "filter_dataset", "ingest.filter_dataset", None, None),
        (ingest, "dataset_digest", "ingest.dataset_digest", None, None),
        (experiment, "dataset_digest", "ingest.dataset_digest", None, None),
        (ingest, "parse_features", "ingest.parse_features", None, None),
        (ingest, "parse_pois", "ingest.parse_pois", None, None),
        (ingest, "write_pois", "ingest.write_pois", None, None),
        (experiment, "obfuscate_trace", "mechanism.obfuscate_trace", n_args, None),
        (experiment, "extract_pois", "poi.extract_pois", None, None),
        (poi, "extract_stays", "poi.extract_stays", n_args, n_result),
        (poi, "dj_cluster", "poi.dj_cluster", n_args, n_result),
        (FeatureStore, "build", "features.build", None, None),
        (FeatureStore, "top_k", "features.top_k", None, None),
        (FeatureStore, "range_query", "features.range_query", None, n_result),
        (experiment, "remap", "metrics.remap", None, None),
        (experiment, "semantic_distances", "metrics.semantic_distances", None, None),
        (experiment, "reidentification_rate", "metrics.reidentification_rate", None, None),
        (experiment, "precision_trial", "metrics.precision_trial", None, lambda a, r: int(r[1] == 0)),
        (experiment, "threshold_sweep", "experiment.threshold_sweep", None, lambda a, r: len(r.rows)),
    ]
    targets += [
        (experiment, name, f"experiment.{name}", None, None)
        for name in ("run_experiment", *EXPERIMENT_STEPS) if name != "threshold_sweep"
    ]
    counters = [(metrics, "poi_set_distance", "metrics.poi_set_distance")]
    return tracer.patch(targets, counters)


# (metric, span, field, unit); fields: s, self_s, calls, out, rate (work per
# second), ratio (out per call).
PER_LAYER = [
    ("ingest.parse_canonical.s", "ingest.parse_canonical", "s", "s"),
    ("ingest.parse_canonical.points_per_s", "ingest.parse_canonical", "rate", "1/s"),
    ("ingest.write_canonical.s", "ingest.write_canonical", "s", "s"),
    ("ingest.write_canonical.points_per_s", "ingest.write_canonical", "rate", "1/s"),
    ("ingest.filter_dataset.s", "ingest.filter_dataset", "s", "s"),
    ("ingest.dataset_digest.s", "ingest.dataset_digest", "s", "s"),
    ("mechanism.obfuscate_trace.s", "mechanism.obfuscate_trace", "s", "s"),
    ("mechanism.obfuscate_trace.calls", "mechanism.obfuscate_trace", "calls", "count"),
    ("mechanism.obfuscate_trace.points_per_s", "mechanism.obfuscate_trace", "rate", "1/s"),
    ("poi.extract_stays.s", "poi.extract_stays", "s", "s"),
    ("poi.extract_stays.calls", "poi.extract_stays", "calls", "count"),
    ("poi.extract_stays.points_per_s", "poi.extract_stays", "rate", "1/s"),
    ("poi.dj_cluster.s", "poi.dj_cluster", "s", "s"),
    ("poi.dj_cluster.stays_per_s", "poi.dj_cluster", "rate", "1/s"),
    ("poi.stays", "poi.extract_stays", "out", "count"),
    ("poi.pois", "poi.dj_cluster", "out", "count"),
    ("features.top_k.s", "features.top_k", "s", "s"),
    ("features.top_k.calls", "features.top_k", "calls", "count"),
    ("features.range_query.s", "features.range_query", "s", "s"),
    ("features.range_query.calls", "features.range_query", "calls", "count"),
    ("features.range_query.hits", "features.range_query", "out", "count"),
    ("features.build.s", "features.build", "s", "s"),
    ("metrics.remap.s", "metrics.remap", "s", "s"),
    ("metrics.semantic_distances.s", "metrics.semantic_distances", "s", "s"),
    ("metrics.reidentification_rate.s", "metrics.reidentification_rate", "s", "s"),
    ("metrics.precision_trial.s", "metrics.precision_trial", "s", "s"),
    ("metrics.precision_trial.calls", "metrics.precision_trial", "calls", "count"),
    ("metrics.precision_trial.empty_ratio", "metrics.precision_trial", "ratio", "ratio"),
]
PER_LAYER += [
    (f"experiment.{step}.{field}", f"experiment.{step}", field, "s")
    for step in EXPERIMENT_STEPS for field in ("s", "self_s")
]
PER_LAYER += [("experiment.threshold_sweep.thresholds", "experiment.threshold_sweep", "out", "count")]
# Not span fields: call counts without spans, layer self time, harness figures.
EXTRA_PER_LAYER = [("metrics.poi_set_distance.calls", "count")]
EXTRA_PER_LAYER += [(f"{layer}.self_s", "s") for layer in LAYERS]
EXTRA_PER_LAYER += [("bench.job_traced.s", "s"), ("bench.trace_overhead.s", "s")]


def per_layer(setup: spans.Tracer, jobs: spans.Tracer, n_jobs: int,
              untraced: list[float], traced: list[float]) -> dict[str, dict]:
    """Per-layer figures for one traced set-up plus one traced job (job
    spans are averaged over the traced jobs)."""
    tot: dict[str, dict[str, float]] = {}
    for tracer, scale in ((setup, 1.0), (jobs, 1.0 / n_jobs)):
        for name, t in spans.totals(tracer.spans).items():
            acc = tot.setdefault(name, dict.fromkeys(t, 0.0))
            for k, v in t.items():
                acc[k] += v * scale
    out = {}
    for metric, name, field, unit in PER_LAYER:
        t = tot.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0.0, "work": 0.0, "out": 0.0})
        if field == "rate":
            value = t["work"] / t["s"] if t["s"] > 0 else 0.0
        elif field == "ratio":
            value = t["out"] / t["calls"] if t["calls"] > 0 else 0.0
        else:
            value = t[field]
        out[metric] = {"value": value, "unit": unit}
    out["metrics.poi_set_distance.calls"] = {
        "value": jobs.counts["metrics.poi_set_distance"] / n_jobs, "unit": "count"}
    own = spans.layer_self(setup.spans)
    for layer, s in spans.layer_self(jobs.spans).items():
        own[layer] = own.get(layer, 0.0) + s / n_jobs
    for layer in LAYERS:
        out[f"{layer}.self_s"] = {"value": own.get(layer, 0.0), "unit": "s"}
    out["bench.job_traced.s"] = {"value": statistics.median(traced), "unit": "s"}
    out["bench.trace_overhead.s"] = {
        "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    return out


def layer_shares(jobs: spans.Tracer) -> dict[str, float]:
    """Each layer's self time as a share of traced job wall time."""
    wall = sum(s[spans.END] - s[spans.START] for s in jobs.spans if s[spans.NAME] == "bench.job")
    return {layer: s / wall for layer, s in sorted(spans.layer_self(jobs.spans).items())}


def write_trace(path: Path, workload: str, seed: int, setup: spans.Tracer, jobs: spans.Tracer) -> None:
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start", "end", "parent", "work", "out"],
        "setup_spans": setup.spans,
        "job_spans": jobs.spans,
        "counts": dict(jobs.counts),
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    inputs = Path(args.inputs)
    setup_tracer, job_tracer = spans.Tracer(), spans.Tracer()
    if args.trace:
        import geopriv  # noqa: F401  (patching needs the modules loaded)

        with instrumented(setup_tracer), setup_tracer.span("bench.setup"):
            dataset, store, setup_s = load(inputs)
    else:
        dataset, store, setup_s = load(inputs)
    ctx = Context(w, args.seed, dataset, store, inputs)

    untraced, traced, problems = [], [], []
    attempted = failed = 0
    start = None  # set after the first job, which warms the process up untimed
    while True:
        if start is not None:
            elapsed = time.perf_counter() - start
            if elapsed > MAX_LOOP_S or (attempted > MIN_JOBS and elapsed >= args.seconds):
                break
        warm_up = start is None
        use_trace = bool(args.trace) and not warm_up and attempted % 2 == 0
        attempted += 1
        try:
            if use_trace:
                with instrumented(job_tracer):
                    dt, job_problems = run_job(ctx, job_tracer)
            else:
                dt, job_problems = run_job(ctx, None)
        except Exception:  # a job that raises is a failed job; keep measuring
            traceback.print_exc()
            failed += 1
        else:
            if not warm_up:
                (traced if use_trace else untraced).append(dt)
            if job_problems:
                failed += 1
                problems += job_problems
        if warm_up:
            start = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    planted = json.loads((inputs / "planted.json").read_text(encoding="utf-8"))
    gate_problems, truth_pois = [], None
    try:
        gate_problems, truth_pois = planted_gate(ctx, planted)
        gate_problems += oracle_gate(ctx)
    except Exception:  # a gate that raises fails like one that finds a difference
        traceback.print_exc()
        gate_problems.append("a correctness gate raised")
    if gate_problems:
        failed = attempted  # the outputs came from code that failed its oracle
    for p in problems + gate_problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "job_s": untraced,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "report_digest": ctx.digest,
        "sizes": {
            "users": len(dataset.traces),
            "points": dataset.total_locations(),
            "features": len(store),
            "truth_pois": truth_pois,
            "planted": sum(len(v) for v in planted.values()),
        },
    }
    if args.trace and traced and untraced:
        RUN_DIR.mkdir(exist_ok=True)
        trace_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(trace_path, args.workload, args.seed, setup_tracer, job_tracer)
        result["per_layer"] = per_layer(setup_tracer, job_tracer, len(traced), untraced, traced)
        result["shares"] = layer_shares(job_tracer)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", required=True, help="directory holding the generated inputs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True, help="how long to repeat the job")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.mode == "setup":
        result = {"setup_s": load(Path(args.inputs))[2]}
    else:
        result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
