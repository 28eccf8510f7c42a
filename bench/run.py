"""Seeded benchmark of the geopriv study pipeline.

Usage, from the root of the repository (no install needed; the package is
imported from ``src/``)::

    python3 bench/run.py --workload study-cab --seed 1       # one workload
    python3 bench/run.py --workload all --seed 1             # every workload
    python3 bench/run.py --workload study-crowd --trace 1    # per-layer figures
    python3 -m pytest bench                                  # the benchmark's self-tests

Options: ``--seed N`` fixes the generated inputs (same seed, same bytes);
``--seconds S`` is how long the jobs are repeated (default ``RUN_SECONDS`` of
``bench/workloads.py``, the ``run_seconds`` of ``BENCHMARK.json``);
``--trace 1`` reports the per-layer metrics instead of the end-to-end ones.

Workloads (sizes and configurations in ``bench/workloads.py``):

* ``study-cab`` isolates the ``poi`` layer: long dense traces whose
  threshold sweep re-extracts stays from every obfuscated copy;
* ``study-crowd`` isolates ``metrics`` and ``features``: many users,
  shared places and a dense feature map make re-identification, top-k and
  range queries the bulk of the job;
* ``campaign-io`` isolates ``ingest`` and ``mechanism``: the command-line
  stage hand-off (filter, write, POI CSV round trip, a three-run campaign
  written and parsed back), with no sweep and no scoring.

What is measured. A job is what a user pays for one study: for the
``study-*`` workloads ``run_experiment`` plus ``write_report`` into a
temporary directory, for ``campaign-io`` the stage chain. Inputs are
generated (``bench/gen.py``), written as canonical CSV and loaded by the
program; loading is set-up, not job. Every sample runs in a fresh
single-threaded interpreter (``bench/job.py``):

* ``job_s``: median wall seconds of the untraced jobs of one run, after
  one untimed warm-up job (it is checked and counted as attempted);
* ``setup_s``: median, over 16 fresh processes, of the wall seconds to
  import geopriv, parse the traces and features and build the
  ``FeatureStore``;
* ``peak_rss_mb``: high-water resident memory of the process timing jobs.

Correctness gates run outside the timed region: every job's report files
must hash to the same digest (printed as ``report_digest``), a seeded sample
of ``extract_stays``, ``dj_cluster``, ``top_k`` and ``range_query`` results
must match ``tests/oracles.py``, and every place the generator planted must
be among the ground-truth POIs. A job fails if it raises or fails a gate;
``failed`` over ``attempted`` is the error rate. A gate that fails or raises
fails every job of the run; a run whose jobs all fail reports no ``job_s``.

Reading a trace. ``--trace 1`` alternates untraced and traced jobs. Traced
jobs wrap each layer's public functions from outside the package (see
``job.instrumented``) and record spans ``[name, start, end, parent, work,
out]`` in memory; they are written to ``.bench_run/trace-<workload>-seed<n>.json``
(``setup_spans`` for one traced set-up, ``job_spans`` for all traced jobs,
``parent`` indexing the same list, -1 at the top). A span's name is
``<layer>.<function>``; its self time is its duration minus what its
children cover. Per-layer metrics describe one set-up plus one job: set-up
spans once, job spans averaged over the traced jobs. ``<layer>.self_s`` sums
the self time of a layer's spans, and ``bench.trace_overhead.s`` is the
traced minus the untraced median job time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from gen import generate
from workloads import RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"

SETUP_PROBES = 15  # set-up-only processes; the timing process adds a sixteenth sample
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
# One interpreter thread per process, and no hash randomisation.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def _child(mode: str, workload: str, inputs: Path, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "job.py"), "--mode", mode, "--workload", workload,
           "--inputs", str(inputs), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env={**os.environ, **CHILD_ENV},
                          timeout=PROBE_TIMEOUT_S if mode == "setup" else RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setups: list[float]) -> dict[str, dict]:
    """The end-to-end metrics of one run; ``job_s`` only if a job completed."""
    metrics = {}
    if res["job_s"]:
        metrics["job_s"] = {"value": statistics.median(res["job_s"]), "unit": "s"}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    inputs = generate(WORKLOADS[name].gen, seed)
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    try:
        (work / "traces.csv").write_text(inputs.traces_csv, encoding="utf-8")
        (work / "features.csv").write_text(inputs.features_csv, encoding="utf-8")
        (work / "planted.json").write_text(json.dumps(inputs.planted), encoding="utf-8")
        # Set-up probes run on both sides of the timing process, so that
        # setup_s samples the host over the same span of time as job_s.
        probes = 0 if trace else SETUP_PROBES
        setups = [_child("setup", name, work, seed, seconds, trace)["setup_s"]
                  for _ in range(probes // 2)]
        res = _child("run", name, work, seed, seconds, trace)
        setups += [_child("setup", name, work, seed, seconds, trace)["setup_s"]
                   for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(work)
    setups.append(res["setup_s"])

    sizes = res["sizes"]
    print(f"{name} seed {seed}: {sizes['users']} users, {sizes['points']} points, "
          f"{sizes['features']} features, {sizes['truth_pois']} ground-truth POIs "
          f"({sizes['planted']} planted)")
    print(f"  error_rate {res['failed'] / res['attempted']:.3f} "
          f"({res['failed']} failed of {res['attempted']} attempted); "
          f"report_digest {res['report_digest']}")
    if trace:
        metrics = res.get("per_layer", {})
        shares = ", ".join(f"{k} {v:.1%}" for k, v in res.get("shares", {}).items())
        print(f"  self-time shares of the traced job: {shares}")
        print(f"  spans written to {res.get('trace_file')}")
    else:
        jobs = res["job_s"]
        metrics = end_to_end(res, setups)
        if len(jobs) >= 2:
            q1, _, q3 = statistics.quantiles(jobs, n=4)
            print(f"  job_s {metrics['job_s']['value']:.4f} s (median of {len(jobs)} jobs; "
                  f"min {min(jobs):.4f}, q1 {q1:.4f}, q3 {q3:.4f}, max {max(jobs):.4f})")
        else:
            print(f"  job_s: {len(jobs)} timed job(s) completed, too few for quartiles")
        print(f"  setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setups)} processes)")
        print(f"  peak_rss_mb {res['peak_rss_mb']:.1f} MB")
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="Seeded benchmark of the geopriv study pipeline.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "geopriv" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"bench: no geopriv sources (src/geopriv, tests/oracles.py) under {ROOT}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
