"""The traced benchmark's hooks still meet the program.

``bench/job.py`` wraps functions through ``owner.__dict__[attr]``, so a
refactor that moves or renames one of them would otherwise fail only in a
``bench/run.py --trace 1`` run, with a KeyError; and a study that stops
calling a step the benchmark times would only read 0 in that step's
per-layer metrics.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from geopriv import experiment, poi
from geopriv.features import FeatureStore, generate_synthetic_features

from synth import dataset_bounds, planted_dataset

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def job(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # job.py imports its siblings
    spec = importlib.util.spec_from_file_location("bench_job", BENCH / "job.py")
    job = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, job)  # its dataclasses look it up
    spec.loader.exec_module(job)
    return job


def test_traced_bench_patches_existing_names(job):
    originals = (experiment.evaluate, poi.extract_stays)
    with job.instrumented(job.spans.Tracer()):
        assert (experiment.evaluate, poi.extract_stays) != originals
    assert (experiment.evaluate, poi.extract_stays) == originals


def test_study_calls_every_timed_step(job, tmp_path):
    dataset, _ = planted_dataset(n_users=2, n_pois=2, points_per_dwell=20, point_interval_s=60, seed=3)
    store = FeatureStore.build(generate_synthetic_features(4, dataset_bounds(dataset, 2000), 5.0))
    config = experiment.ExperimentConfig(
        levels=experiment.DEFAULT_LEVELS[1:2],
        runs=1,
        extraction=poi.ExtractionParams(min_time=900),
        sweep=experiment.SweepConfig(min_m=200, max_m=400, step_m=100),
        precision=experiment.PrecisionConfig(samples=2),
    )
    tracer = job.spans.Tracer()
    with job.instrumented(tracer):
        experiment.write_report(experiment.run_experiment(dataset, config, store), tmp_path)
    names = [span[job.spans.NAME] for span in tracer.spans]
    assert [step for step in job.EXPERIMENT_STEPS if f"experiment.{step}" not in names] == []
    sweeps = [span for span in tracer.spans if span[job.spans.NAME] == "experiment.threshold_sweep"]
    assert [span[job.spans.OUT] for span in sweeps] == [len(config.sweep.thresholds())]
