"""The study in five stages, one plain function each, and its report files.

1. :func:`extract_ground_truth`: each user's real POIs;
2. :func:`obfuscation_campaign`: independently seeded obfuscated copies of
   the dataset at one privacy level;
3. :func:`threshold_sweep`: the observer's smallest threshold clearing the
   recall target, with the POI sets observed there;
4. :func:`observe`: the observer's POI sets at a given threshold;
5. :func:`evaluate` scores observed POI sets, :func:`precision_summary`
   obfuscated queries.

:func:`run_experiment` composes them per level; :func:`write_report`
writes the result.

Everything is a pure function of (dataset, config, master seed): noise
streams are derived per run and per user, so two executions with the same
master seed write byte-identical reports regardless of scheduling.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .core import Dataset, PoiSet, sequential_sum
from .ingest import dataset_digest
from .features import FeatureStore
from .mechanism import (
    PrivacyLevel,
    RandomSource,
    derive_seed,
    displace,
    inverse_radius_cdf,
    obfuscate_trace,
)
# precision_trial is the one-trial form of precision_summary's pass; the
# traced benchmark (bench/job.py) wraps it under this module's name.
from .metrics import (  # noqa: F401
    geographic_distances,
    precision_trial,
    query_precisions,
    recall_of,
    reidentification_rate,
    remap,
    semantic_distances,
)
from .poi import ExtractionParams, extract_pois, extract_pois_sweep

# The three stock privacy levels: strong, medium, weak.
DEFAULT_LEVELS: tuple[PrivacyLevel, ...] = (
    PrivacyLevel.from_level(math.log(2), 500.0),
    PrivacyLevel.from_level(math.log(6), 500.0),
    PrivacyLevel.from_level(math.log(4), 200.0),
)


@dataclass(frozen=True)
class SweepConfig:
    """Distance-threshold sweep: bounds and step in metres, plus the mean
    recall an observer wants to clear."""

    min_m: int = 100
    max_m: int = 5000
    step_m: int = 100
    recall_target: float = 0.70

    def __post_init__(self) -> None:
        if self.step_m <= 0:
            raise ValueError("sweep step must be > 0")
        if self.min_m <= 0 or self.max_m < self.min_m:
            raise ValueError("sweep bounds must satisfy 0 < min <= max")
        if not 0.0 < self.recall_target < 1.0:
            raise ValueError("recall target must be in (0, 1)")

    def thresholds(self) -> range:
        return range(self.min_m, self.max_m + 1, self.step_m)


@dataclass(frozen=True)
class PrecisionConfig:
    radius_m: float = 500.0
    alpha: float = 0.85
    samples: int = 100
    category: str | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("precision samples must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("precision alpha must be in (0, 1)")
        if not self.radius_m > 0.0:
            raise ValueError("precision radius must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    levels: tuple[PrivacyLevel, ...] = DEFAULT_LEVELS
    runs: int = 10
    master_seed: int = 0
    extraction: ExtractionParams = ExtractionParams()
    sweep: SweepConfig = SweepConfig()
    precision: PrecisionConfig = PrecisionConfig()

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


@dataclass(frozen=True)
class SweepResult:
    """Mean recall per swept threshold for one privacy level.

    ``optimal_m`` is the smallest threshold whose mean recall exceeds the
    target, or None when the target was never reached; ``best_m`` is the
    best-effort threshold (highest mean recall, smallest on ties).
    ``chosen_pois`` holds, per run, the observer's POI sets at
    ``chosen_m``, as :func:`observe` would extract them, ready for
    :func:`evaluate`; no report file reads it, and equality ignores it.
    """

    epsilon: float
    rows: tuple[tuple[int, float], ...]
    optimal_m: int | None
    best_m: int
    chosen_pois: tuple[dict[str, PoiSet], ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def reached(self) -> bool:
        return self.optimal_m is not None

    @property
    def chosen_m(self) -> int:
        return self.optimal_m if self.optimal_m is not None else self.best_m


@dataclass(frozen=True, slots=True)
class UserRecallRow:
    user: str
    epsilon: float
    run: int
    recall: float
    n_real: int
    n_obf: int


@dataclass(frozen=True, slots=True)
class PairRow:
    user: str
    epsilon: float
    run: int
    geo_m: float
    semantic: float


@dataclass(frozen=True, slots=True)
class LevelRecallRow:
    epsilon: float
    threshold_m: int
    mean_recall: float
    n_users: int
    runs: int


@dataclass(frozen=True, slots=True)
class ReidentRow:
    epsilon: float
    rate: float
    n_users: int


@dataclass(frozen=True, slots=True)
class PrecisionRow:
    epsilon: float
    alpha: float
    radius_m: float
    mean_precision: float
    n_samples: int
    n_empty: int


Cdf = tuple[tuple[float, ...], tuple[float, ...]]


@dataclass(frozen=True)
class EvaluationReport:
    user_rows: tuple[UserRecallRow, ...] = ()
    pair_rows: tuple[PairRow, ...] = ()
    recall_rows: tuple[LevelRecallRow, ...] = ()
    reident_rows: tuple[ReidentRow, ...] = ()
    precision_rows: tuple[PrecisionRow, ...] = ()
    sweeps: tuple[SweepResult, ...] = ()
    metadata: dict = field(default_factory=dict)

    def _cdfs(self, value_name: str) -> dict[float, Cdf]:
        """Per scored level, one ``pair_rows`` column sorted, with
        cumulative fractions ending at 1.0; empty for a level without pairs."""
        cdfs = {}
        for level in self.recall_rows:
            pool = [getattr(r, value_name) for r in self.pair_rows if r.epsilon == level.epsilon]
            n = len(pool)
            cdfs[level.epsilon] = tuple(sorted(pool)), tuple((i + 1) / n for i in range(n))
        return cdfs

    @property
    def geo_cdf(self) -> dict[float, Cdf]:
        """Per level, the pooled geographic distances of ``pair_rows``."""
        return self._cdfs("geo_m")

    @property
    def sem_cdf(self) -> dict[float, Cdf]:
        """Per level, the pooled semantic distances of ``pair_rows``."""
        return self._cdfs("semantic")


def extract_ground_truth(dataset: Dataset, params: ExtractionParams) -> dict[str, PoiSet]:
    """Per-user POI extraction over the whole dataset.

    Users whose trace yields no POIs stay in the mapping with an empty
    set; downstream steps exclude and report them.
    """
    return {user: extract_pois(dataset.traces[user], params) for user in dataset.users()}


def obfuscation_campaign(
    dataset: Dataset, level: PrivacyLevel, runs: int, master_seed: int
) -> list[Dataset]:
    """``runs`` independent obfuscations of the dataset.

    Each run gets a seed derived from the master seed and its index, each
    user a stream derived from the run seed, so the campaign is
    reproducible and independent of evaluation order.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    campaign = []
    for run in range(runs):
        rseed = derive_seed(master_seed, f"run:{run}")
        traces = {}
        for user in dataset.users():
            rng = RandomSource(derive_seed(rseed, f"user:{user}"))
            traces[user] = obfuscate_trace(dataset.traces[user], level, rng)
        campaign.append(Dataset(traces))
    return campaign


def _eligible_users(campaign: Sequence[Dataset], ground_truth: Mapping[str, PoiSet]) -> list[str]:
    """Users with ground-truth POIs, sorted.

    Every run must cover them; a run that lacks some is refused by name
    rather than failing on the first missing trace.
    """
    if not campaign:
        raise ValueError("empty campaign")
    eligible = sorted(u for u, ps in ground_truth.items() if len(ps) > 0)
    if not eligible:
        raise ValueError("empty ground truth: no user has POIs")
    for run, ds in enumerate(campaign):
        missing = [u for u in eligible if u not in ds.traces]
        if missing:
            covers = "run 0 covers" if run else "have ground-truth POIs"
            raise ValueError(f"campaign run {run} lacks users that {covers}: {', '.join(missing)}")
    return eligible


def threshold_sweep(
    campaign: Sequence[Dataset],
    ground_truth: Mapping[str, PoiSet],
    params: ExtractionParams,
    sweep: SweepConfig,
    level: PrivacyLevel,
) -> SweepResult:
    """Mean recall for each swept observer distance threshold.

    The observer keeps min_time and min_pts unchanged and varies only
    max_distance (the merge radius follows it proportionally). Recall is
    averaged across users within a run, then across runs.

    Extraction loops run -> user -> threshold: each obfuscated trace is
    projected once and walked once per threshold
    (:func:`~geopriv.poi.extract_pois_sweep`). The recalls are then summed
    per threshold, per run, in eligible-user order, the same additions in
    the same order as a threshold -> run -> user loop, so every row is
    bit-identical to it. The POI sets at ``chosen_m`` are kept on the
    result for :func:`evaluate`.
    """
    eligible = _eligible_users(campaign, ground_truth)
    thresholds = list(sweep.thresholds())
    # per run: user -> one PoiSet per threshold
    swept = [
        {u: extract_pois_sweep(ds.traces[u], params, thresholds) for u in eligible}
        for ds in campaign
    ]

    rows = []
    for k, threshold in enumerate(thresholds):
        run_means = []
        for sets in swept:
            recalls = [
                recall_of(remap(sets[u][k], ground_truth[u]), len(ground_truth[u]))
                for u in eligible
            ]
            run_means.append(sequential_sum(recalls) / len(recalls))
        rows.append((threshold, sequential_sum(run_means) / len(run_means)))

    optimal = next((thr for thr, r in rows if r > sweep.recall_target), None)
    best = max(rows, key=lambda row: (row[1], -row[0]))[0]
    chosen = thresholds.index(optimal if optimal is not None else best)
    return SweepResult(
        epsilon=level.epsilon,
        rows=tuple(rows),
        optimal_m=optimal,
        best_m=best,
        chosen_pois=tuple({u: sets[u][chosen] for u in eligible} for sets in swept),
    )


def precision_summary(
    dataset: Dataset,
    level: PrivacyLevel,
    store: FeatureStore,
    cfg: PrecisionConfig,
    seed: int,
) -> PrecisionRow:
    """Mean query precision over locations sampled from the real traces.

    The trials are those of a loop of :func:`~geopriv.metrics.precision_trial`
    on one seeded stream, drawn at once and scored in one blocked pass
    (:func:`~geopriv.metrics.query_precisions`). Empty-result trials count
    as precision 1 by convention and are tallied in ``n_empty`` so they
    cannot silently inflate the mean.
    """
    traces = [dataset.traces[user] for user in dataset.users()]
    n = sum(len(trace) for trace in traces)
    if n == 0:
        raise ValueError("cannot sample query locations from an empty dataset")
    # every user's points, concatenated in sorted user order
    lats = np.concatenate([trace.lat for trace in traces])
    lons = np.concatenate([trace.lon for trace in traces])
    # A trial draws its point's index, then perturb's bearing and two radius
    # uniforms (none at zero noise): the draws of a loop of precision_trial.
    noisy = level.epsilon != math.inf
    draws = RandomSource(seed).uniforms((4 if noisy else 1) * cfg.samples).reshape(cfg.samples, -1)
    at = (draws[:, 0] * n).astype(np.int64)
    lat, lon = lats[at], lons[at]
    noisy_lat, noisy_lon = displace(lat, lon, level, *draws[:, 1:].T) if noisy else (lat, lon)
    enlarged = cfg.radius_m + inverse_radius_cdf(level, cfg.alpha)
    values, retrieved = query_precisions(
        store, lat, lon, noisy_lat, noisy_lon, cfg.radius_m, enlarged, cfg.category
    )
    return PrecisionRow(
        epsilon=level.epsilon,
        alpha=cfg.alpha,
        radius_m=cfg.radius_m,
        mean_precision=sequential_sum(values) / len(values),
        n_samples=cfg.samples,
        n_empty=retrieved.count(0),
    )


def observe(
    campaign: Sequence[Dataset],
    ground_truth: Mapping[str, PoiSet],
    params: ExtractionParams,
    threshold_m: int,
) -> list[dict[str, PoiSet]]:
    """Per run, the POI sets the observer extracts at ``threshold_m``.

    The observer keeps min_time and min_pts and sets max_distance to the
    threshold. Only users with ground-truth POIs are observed, in sorted
    order; :func:`threshold_sweep` keeps the same sets at its chosen
    threshold as :attr:`SweepResult.chosen_pois`.
    """
    eligible = _eligible_users(campaign, ground_truth)
    attack = replace(params, max_distance=float(threshold_m))
    return [{u: extract_pois(ds.traces[u], attack) for u in eligible} for ds in campaign]


def evaluate(
    observed: Sequence[Mapping[str, PoiSet]],
    ground_truth: Mapping[str, PoiSet],
    level: PrivacyLevel,
    threshold_m: int,
    store: FeatureStore,
) -> EvaluationReport:
    """Score one privacy level's observed POI sets, one mapping per run.

    Produces per-user and per-pair rows, the mean recall and the mean
    re-identification rate. There must be a run, and every run must observe
    the same users, at least one, each with ground-truth POIs, as
    :func:`observe` and :func:`threshold_sweep` do; a run whose users differ
    from run 0's, or a user without ground truth, is refused by name.
    """
    if not observed:
        raise ValueError("no observed runs to evaluate")
    users = sorted(observed[0])
    if not users:
        raise ValueError("observed run 0 observes no users")
    for run, sets in enumerate(observed):
        differ = sorted(set(users).symmetric_difference(sets))
        if differ:
            raise ValueError(f"observed run {run} differs from run 0 in users: {', '.join(differ)}")
    missing = [u for u in users if u not in ground_truth]
    if missing:
        raise ValueError(f"observed users without ground truth: {', '.join(missing)}")

    real_sets = {u: ground_truth[u] for u in users}
    results = [[remap(sets[u], real_sets[u]) for u in users] for sets in observed]
    semantic = iter(semantic_distances([r for run in results for r in run], store))
    user_rows: list[UserRecallRow] = []
    pair_rows: list[PairRow] = []
    run_recalls: list[float] = []
    run_rates: list[float] = []
    for run, (sets, run_results) in enumerate(zip(observed, results)):
        obf_sets = {u: sets[u] for u in users}
        recalls = []
        for u, result in zip(users, run_results):
            rec = recall_of(result, len(real_sets[u]))
            recalls.append(rec)
            user_rows.append(
                UserRecallRow(u, level.epsilon, run, rec, len(real_sets[u]), len(obf_sets[u]))
            )
            pair_rows.extend(
                PairRow(u, level.epsilon, run, g, s)
                for g, s in zip(geographic_distances(result), next(semantic))
            )
        run_recalls.append(sequential_sum(recalls) / len(recalls))
        run_rates.append(reidentification_rate(real_sets, obf_sets))

    return EvaluationReport(
        user_rows=tuple(user_rows),
        pair_rows=tuple(pair_rows),
        recall_rows=(
            LevelRecallRow(
                epsilon=level.epsilon,
                threshold_m=threshold_m,
                mean_recall=sequential_sum(run_recalls) / len(run_recalls),
                n_users=len(users),
                runs=len(observed),
            ),
        ),
        reident_rows=(
            ReidentRow(
                epsilon=level.epsilon,
                rate=sequential_sum(run_rates) / len(run_rates),
                n_users=len(users),
            ),
        ),
        metadata={
            "epsilon": json_number(level.epsilon),
            "threshold_m": threshold_m,
            "runs": len(observed),
            "n_users": len(users),
            "excluded_users": sorted(u for u, ps in ground_truth.items() if len(ps) == 0),
        },
    )


def run_experiment(
    dataset: Dataset, config: ExperimentConfig, store: FeatureStore
) -> EvaluationReport:
    """The full study: ground truth, then per level a campaign, its sweep,
    the scoring of the sweep's chosen POI sets and the precision summary."""
    ground_truth = extract_ground_truth(dataset, config.extraction)
    precision_seed = derive_seed(config.master_seed, "precision")
    reports, sweeps, precision_rows = [], [], []
    for level in config.levels:
        campaign = obfuscation_campaign(dataset, level, config.runs, config.master_seed)
        sweep = threshold_sweep(campaign, ground_truth, config.extraction, config.sweep, level)
        reports.append(evaluate(sweep.chosen_pois, ground_truth, level, sweep.chosen_m, store))
        sweeps.append(replace(sweep, chosen_pois=None))
        precision_rows.append(
            precision_summary(dataset, level, store, config.precision, precision_seed)
        )
    metadata = {
        "master_seed": config.master_seed,
        "runs": config.runs,
        "dataset_digest": dataset_digest(dataset),
        "extraction": asdict(config.extraction),
        "sweep": asdict(config.sweep),
        "precision": asdict(config.precision),
        "levels": [
            {
                "epsilon": json_number(s.epsilon),
                "optimal_threshold_m": s.optimal_m,
                "best_threshold_m": s.best_m,
                "reached": s.reached,
            }
            for s in sweeps
        ],
        "per_level": [r.metadata for r in reports],
    }
    return EvaluationReport(
        user_rows=tuple(row for r in reports for row in r.user_rows),
        pair_rows=tuple(row for r in reports for row in r.pair_rows),
        recall_rows=tuple(row for r in reports for row in r.recall_rows),
        reident_rows=tuple(row for r in reports for row in r.reident_rows),
        precision_rows=tuple(precision_rows),
        sweeps=tuple(sweeps),
        metadata=metadata,
    )


def json_number(x: float) -> float | str:
    """``x`` as strict JSON holds it: zero noise's epsilon as ``"inf"``, which float() reads."""
    return x if math.isfinite(x) else repr(x)


def write_json(path: str | Path, record: Mapping) -> None:
    """``record`` as strict JSON (sorted keys, indent 2, final newline), serialised before the file opens."""
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write a header line, then one line per row; returns the row count.

    Floats are written with repr (so they round-trip exactly), None as an
    empty field.
    """
    out.write(",".join(header) + "\n")
    count = 0
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")
        count += 1
    return count


def _columns(row_type: type, rows: Iterable) -> tuple[list[str], Iterable[list]]:
    """Dataclass rows as a CSV table headed by the dataclass's field names."""
    names = [f.name for f in fields(row_type)]
    return names, ([getattr(r, name) for name in names] for r in rows)


def write_rows(out: TextIO, row_type: type, rows: Iterable) -> int:
    """Write rows of the dataclass ``row_type`` as CSV; returns the row count."""
    return write_csv(out, *_columns(row_type, rows))


def _sweep_table(sweeps: Sequence[SweepResult]):
    return ("epsilon", "threshold_m", "mean_recall"), (
        (s.epsilon, thr, rec) for s in sweeps for thr, rec in s.rows
    )


def _cdf_table(value_name: str, cdfs: Mapping[float, Cdf]):
    return ("epsilon", value_name, "fraction"), (
        (eps, v, f) for eps in sorted(cdfs) for v, f in zip(*cdfs[eps])
    )


def write_sweep_csv(sweeps: Sequence[SweepResult], out: TextIO) -> int:
    return write_csv(out, *_sweep_table(sweeps))


def write_report(report: EvaluationReport, out_dir: str | Path) -> dict:
    """Write every report CSV plus a manifest; returns the manifest.

    A table of row dataclasses is headed by the dataclass's field names.
    Output is byte-stable for a fixed master seed: floats are written with
    repr and the manifest carries no timestamps.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {
        "recall_users.csv": _columns(UserRecallRow, report.user_rows),
        "distances.csv": _columns(PairRow, report.pair_rows),
        "recall.csv": _columns(LevelRecallRow, report.recall_rows),
        "reident.csv": _columns(ReidentRow, report.reident_rows),
        "precision.csv": _columns(PrecisionRow, report.precision_rows),
        "cdf_geo.csv": _cdf_table("geo_m", report.geo_cdf),
        "cdf_semantic.csv": _cdf_table("semantic", report.sem_cdf),
        "sweep.csv": _sweep_table(report.sweeps),
    }
    counts = {}
    for name, (header, rows) in tables.items():
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            counts[name] = write_csv(fh, header, rows)

    manifest = {"files": counts, "metadata": report.metadata}
    write_json(out / "manifest.json", manifest)
    return manifest
