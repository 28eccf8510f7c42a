"""The names the traced benchmark patches exist where it patches them.

``bench/job.py`` wraps functions through ``owner.__dict__[attr]``, so a
refactor that moves or renames one of them would otherwise fail only in a
``bench/run.py --trace 1`` run, with a KeyError.
"""

import importlib.util
import sys
from pathlib import Path

from geopriv import experiment, poi

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_bench_patches_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # job.py imports its siblings
    spec = importlib.util.spec_from_file_location("bench_job", BENCH / "job.py")
    job = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, job)  # its dataclasses look it up
    spec.loader.exec_module(job)
    originals = (experiment.evaluate, poi.extract_stays)
    with job.instrumented(job.spans.Tracer()):
        assert (experiment.evaluate, poi.extract_stays) != originals
    assert (experiment.evaluate, poi.extract_stays) == originals
