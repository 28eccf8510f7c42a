"""Acceptance suite: the property/oracle criteria the package must meet.

No external data is needed; everything runs on seeded synthetic fixtures.
Each criterion prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure). The optional dataset
reproduction tier lives in test_acceptance_datasets.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from geopriv.core import GeoPoint
from geopriv.experiment import (
    ExperimentConfig,
    PrecisionConfig,
    SweepConfig,
    evaluate,
    extract_ground_truth,
    obfuscation_campaign,
    observe,
    precision_summary,
    run_experiment,
    threshold_sweep,
    write_report,
)
from geopriv.features import Feature, FeatureStore, generate_synthetic_features
from geopriv.mechanism import (
    PrivacyLevel,
    RandomSource,
    derive_seed,
    inverse_radius_cdf,
    obfuscate_trace,
    sample_radii,
)
from geopriv.poi import ExtractionParams, dj_cluster, extract_stays
from geopriv.core import MobilityTrace, TimestampedLocation

from oracles import (
    brute_force_range,
    brute_force_top_k,
    dj_cluster_literal,
    extract_stays_literal,
    inverse_radius_cdf_bisect,
    radius_cdf,
)
from synth import dataset_bounds, planted_dataset, random_params, random_trace

TABLE_LEVELS = (
    PrivacyLevel.from_level(math.log(2), 500.0),
    PrivacyLevel.from_level(math.log(6), 500.0),
    PrivacyLevel.from_level(math.log(4), 200.0),
)
STRONG, MEDIUM, WEAK = TABLE_LEVELS

# Extraction settings shared by the synthetic end-to-end fixtures: dwell
# durations are staggered (31..91 minutes) so the recall curve rises
# gradually through the swept threshold range.
SYNTH_PARAMS = ExtractionParams(min_time=900)
SYNTH_DWELLS = (31, 46, 61, 91)


def _report(n: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {status}: {description}{suffix}")
    assert ok, f"criterion {n} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def trend_world():
    """20 planted users plus a uniform feature field (criteria 6 and 7)."""
    dataset, _ = planted_dataset(
        n_users=20, n_pois=4, points_per_dwell=SYNTH_DWELLS, point_interval_s=60, seed=42
    )
    ground_truth = extract_ground_truth(dataset, SYNTH_PARAMS)
    store = FeatureStore.build(
        generate_synthetic_features(1234, dataset_bounds(dataset, 6000), density_per_km2=10.0)
    )
    return dataset, ground_truth, store


def test_acceptance_1_noise_law():
    n = 1_000_000
    worst = []
    ok = True
    for i, level in enumerate(TABLE_LEVELS):
        radii = sample_radii(level, RandomSource(101 + 2 * i), n)
        mean_err = abs(radii.mean() - 2.0 / level.epsilon) / (2.0 / level.epsilon)

        ordered = np.sort(radii)
        x = level.epsilon * ordered
        cdf = 1.0 - (1.0 + x) * np.exp(-x)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))

        center = GeoPoint(45.0, 5.0)
        trace = MobilityTrace("u", tuple(TimestampedLocation(i, center) for i in range(100_000)))
        noisy = obfuscate_trace(trace, level, RandomSource(102 + 2 * i))
        scale = math.cos(math.radians(center.lat))
        bearings = [
            math.atan2((q.point.lon - center.lon) * scale, q.point.lat - center.lat) % (2 * math.pi)
            for q in noisy.locations
        ]
        counts, _ = np.histogram(bearings, bins=36, range=(0.0, 2 * math.pi))
        pvalue = stats.chisquare(counts).pvalue

        ok = ok and mean_err < 0.01 and ks < 0.005 and pvalue > 0.01
        worst.append(f"eps={level.epsilon:.5f}: mean_err={mean_err:.4%} ks={ks:.4f} chi_p={pvalue:.3f}")
    _report(1, "radial noise law, 1e6 draws per level, bearings uniform", ok, "; ".join(worst))


def test_acceptance_2_inverse_cdf():
    worst_round = 0.0
    worst_rel = 0.0
    for level in TABLE_LEVELS:
        for i in range(1, 100):
            p = i / 100.0
            r = inverse_radius_cdf(level, p)
            worst_round = max(worst_round, abs(radius_cdf(level, r) - p))
            oracle = inverse_radius_cdf_bisect(level, p)
            worst_rel = max(worst_rel, abs(r - oracle) / oracle)
    ok = worst_round <= 1e-9 and worst_rel <= 1e-6
    _report(
        2,
        "inverse radial CDF round-trips and matches the bisection oracle",
        ok,
        f"max |cdf(inv(p))-p|={worst_round:.2e}, max rel dev={worst_rel:.2e}",
    )


def test_acceptance_3_extraction_oracle_equivalence():
    mismatches = 0
    for seed in range(1000, 1200):
        trace = random_trace(seed, max_points=30)
        params = random_params(seed)
        stays = extract_stays(trace, params)
        oracle_stays = extract_stays_literal(trace, params)
        same = len(stays) == len(oracle_stays) and all(
            g.start_t == w.start_t
            and g.end_t == w.end_t
            and g.point_count == w.point_count
            and abs(g.centroid.lat - w.centroid.lat) <= 1e-9
            and abs(g.centroid.lon - w.centroid.lon) <= 1e-9
            for g, w in zip(stays, oracle_stays)
        )
        if same:
            pois = dj_cluster(stays, params)
            oracle_pois = dj_cluster_literal(oracle_stays, params)
            same = len(pois) == len(oracle_pois) and all(
                g.support == w.support
                and abs(g.centroid.lat - w.centroid.lat) <= 1e-9
                and abs(g.centroid.lon - w.centroid.lon) <= 1e-9
                for g, w in zip(pois, oracle_pois)
            )
        if not same:
            mismatches += 1
    _report(
        3,
        "extraction identical to the literal transcription on 200 random traces",
        mismatches == 0,
        f"{mismatches} mismatching traces",
    )


def test_acceptance_4_zero_noise_identity():
    dataset, _ = planted_dataset(
        n_users=10, n_pois=4, points_per_dwell=SYNTH_DWELLS, point_interval_s=60, seed=7
    )
    ground_truth = extract_ground_truth(dataset, SYNTH_PARAMS)
    store = FeatureStore.build(
        generate_synthetic_features(99, dataset_bounds(dataset, 3000), density_per_km2=10.0)
    )
    level = PrivacyLevel.zero_noise()
    campaign = obfuscation_campaign(dataset, level, 2, 5)
    threshold = int(SYNTH_PARAMS.max_distance)
    observed = observe(campaign, ground_truth, SYNTH_PARAMS, [threshold])[threshold]
    report = replace(
        evaluate(observed, ground_truth, level, threshold, store),
        precision_rows=(
            precision_summary(
                dataset, level, store, PrecisionConfig(samples=100), derive_seed(5, "precision")
            ),
        ),
    )
    enlargement = inverse_radius_cdf(level, 0.85)
    ok = (
        len(ground_truth) == 10
        and all(len(ps) > 0 for ps in ground_truth.values())
        and report.recall_rows[0].mean_recall == 1.0
        and all(row.geo_m == 0.0 and row.semantic == 0.0 for row in report.pair_rows)
        and report.reident_rows[0].rate == 1.0
        and report.precision_rows[0].mean_precision == 1.0
        and enlargement == 0.0
    )
    _report(
        4,
        "zero-noise pipeline is the identity on 10 planted users",
        ok,
        f"recall={report.recall_rows[0].mean_recall}, reident={report.reident_rows[0].rate}, "
        f"precision={report.precision_rows[0].mean_precision}, enlargement={enlargement}",
    )


def test_acceptance_5_spatial_queries_exact():
    gen = np.random.Generator(np.random.PCG64(55))
    features = [
        Feature(
            id=f"f{i:04d}",
            point=GeoPoint(float(45 + gen.uniform(-0.2, 0.2)), float(5 + gen.uniform(-0.2, 0.2))),
            category=("restaurant", "shop", "cafe")[int(gen.integers(0, 3))],
        )
        for i in range(1000)
    ]
    store = FeatureStore.build(features)
    mismatches = 0
    for _ in range(1000):
        c = GeoPoint(float(45 + gen.uniform(-0.25, 0.25)), float(5 + gen.uniform(-0.25, 0.25)))
        k = int(gen.integers(1, 30))
        if store.top_k(c, k) != brute_force_top_k(features, c, k):
            mismatches += 1
        radius = float(gen.uniform(0, 25_000))
        category = ("restaurant", None)[int(gen.integers(0, 2))]
        if store.range_query(c, radius, category) != brute_force_range(features, c, radius, category):
            mismatches += 1
    _report(
        5,
        "top-k and range queries equal brute force on 1000 random queries",
        mismatches == 0,
        f"{mismatches} mismatching queries",
    )


def test_acceptance_6_recall_trend(trend_world):
    dataset, ground_truth, _ = trend_world
    campaign = obfuscation_campaign(dataset, MEDIUM, 10, 123)
    cfg = SweepConfig(min_m=100, max_m=3000, step_m=100)
    observed = observe(campaign, ground_truth, SYNTH_PARAMS, cfg.thresholds())
    sweep = threshold_sweep(observed, ground_truth, cfg.recall_target, MEDIUM)
    thresholds = [row[0] for row in sweep.rows]
    recalls = [row[1] for row in sweep.rows]
    rho = stats.spearmanr(thresholds, recalls).statistic
    ok = recalls[-1] > recalls[0] and rho >= 0.9
    _report(
        6,
        "recall rises with the attack threshold (20 users, 10 runs)",
        ok,
        f"recall@100={recalls[0]:.3f}, recall@3000={recalls[-1]:.3f}, spearman={rho:.3f}",
    )


def test_acceptance_7_privacy_monotonicity(trend_world):
    # Both levels are scored at the same attack threshold so the geographic
    # error comparison is controlled; 4000 m is past the strong level's
    # noise diameter, so both levels produce obfuscated POIs.
    dataset, ground_truth, store = trend_world
    threshold = 4000
    medians = {}
    precisions = {}
    for level in (WEAK, STRONG):
        campaign = obfuscation_campaign(dataset, level, 10, 99)
        observed = observe(campaign, ground_truth, SYNTH_PARAMS, [threshold])[threshold]
        report = replace(
            evaluate(observed, ground_truth, level, threshold, store),
            precision_rows=(
                precision_summary(
                    dataset, level, store, PrecisionConfig(samples=100), derive_seed(99, "precision")
                ),
            ),
        )
        values = report.geo_cdf[level.epsilon][0]
        medians[level.epsilon] = float(np.median(values)) if values else math.inf
        precisions[level.epsilon] = report.precision_rows[0].mean_precision
    geo_ok = medians[STRONG.epsilon] >= 1.1 * medians[WEAK.epsilon]
    prec_ok = precisions[WEAK.epsilon] >= 1.1 * precisions[STRONG.epsilon]
    _report(
        7,
        "stronger privacy strictly costs precision and geographic accuracy",
        geo_ok and prec_ok,
        f"median_geo strong/weak={medians[STRONG.epsilon]:.0f}/{medians[WEAK.epsilon]:.0f} m, "
        f"precision weak/strong={precisions[WEAK.epsilon]:.3f}/{precisions[STRONG.epsilon]:.3f}",
    )


def test_acceptance_8_deterministic_reports(tmp_path):
    dataset, _ = planted_dataset(
        n_users=6, n_pois=2, points_per_dwell=(31, 61), point_interval_s=60, seed=13
    )
    store = FeatureStore.build(
        generate_synthetic_features(17, dataset_bounds(dataset, 3000), density_per_km2=8.0)
    )
    config = ExperimentConfig(
        levels=(MEDIUM, WEAK),
        runs=2,
        master_seed=2024,
        extraction=SYNTH_PARAMS,
        sweep=SweepConfig(min_m=1500, max_m=4500, step_m=1500),
        precision=PrecisionConfig(samples=20),
    )
    write_report(run_experiment(dataset, config, store), tmp_path / "a")
    write_report(run_experiment(dataset, config, store), tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    different = [
        name
        for name in names
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    _report(
        8,
        "two executions with one master seed write byte-identical reports",
        sorted(p.name for p in (tmp_path / "b").iterdir()) == names and not different,
        f"{len(names)} files compared" + (f", differing: {different}" if different else ""),
    )
