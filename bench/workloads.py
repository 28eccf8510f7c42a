"""The benchmark's workloads: input sizes and the study each one runs.

Sizes are chosen so that one job takes one to three seconds on a 2-core
machine: a 20-second run then times seven to fifteen jobs, and a set of ten
runs per workload stays short, which matters on a shared host whose speed
drifts over minutes.

* ``study-cab`` -- few users with long, dense traces (the SF-cab shape):
  the threshold sweep re-extracts POIs from every obfuscated trace six
  times, so ``poi.extract_stays`` dominates.
* ``study-crowd`` -- many users with short, sparse traces and places
  shared between users, over a dense feature map (the Geolife shape): a
  single sweep threshold keeps extraction light while the O(U^2 P^2)
  re-identification, the top-k semantic queries and the precision range
  queries do most of the work.
* ``campaign-io`` -- the command-line stage hand-off driven through the
  API: filter, write, ground truth, POI CSV round trip, a three-run
  obfuscation campaign written and parsed back. The trace reader/writer
  and the mechanism do the work; there is no sweep and no scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seconds of timed jobs in one run: the ``run_seconds`` of BENCHMARK.json,
# which is what ``run.py`` receives as ``--seconds``.
RUN_SECONDS = 20


@dataclass(frozen=True)
class GenSpec:
    """Input size of one workload; see gen.generate."""

    users: int
    days: int
    interval_s: int
    places: int  # recurring places per user
    shared_places: int  # of those, drawn from a pool common to all users
    shared_pool: int
    dwell_s: tuple[int, int]  # uniform range of one dwell's duration
    feature_density: float  # features per km^2 over the city


@dataclass(frozen=True)
class Workload:
    gen: GenSpec
    kind: str  # "study" (run_experiment + write_report) or "campaign" (stage chain)
    levels: tuple[int, ...]  # indices into geopriv.experiment.DEFAULT_LEVELS
    runs: int
    sweep_m: tuple[int, int, int] = (100, 5000, 100)  # min, max, step
    precision_samples: int = 100
    filter_policy: tuple[int, int] = (480, 30)  # min locations per day, min days


WORKLOADS: dict[str, Workload] = {
    "study-cab": Workload(
        gen=GenSpec(users=6, days=2, interval_s=60, places=5, shared_places=0, shared_pool=0,
                    dwell_s=(7200, 10800), feature_density=2.0),
        kind="study", levels=(0, 1), runs=2, sweep_m=(500, 3000, 500),
    ),
    "study-crowd": Workload(
        gen=GenSpec(users=32, days=2, interval_s=300, places=12, shared_places=4, shared_pool=60,
                    dwell_s=(4300, 6000), feature_density=40.0),
        kind="study", levels=(1, 2), runs=2, sweep_m=(2000, 2000, 100), precision_samples=300,
    ),
    "campaign-io": Workload(
        gen=GenSpec(users=8, days=4, interval_s=60, places=5, shared_places=0, shared_pool=0,
                    dwell_s=(5400, 14400), feature_density=2.0),
        kind="campaign", levels=(1,), runs=3, filter_policy=(480, 3),
    ),
}
