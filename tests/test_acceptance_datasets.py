"""Optional acceptance tier: reproduction on the two public datasets.

These tests need local copies of the datasets and are skipped unless the
environment points at them:

  GEOPRIV_SFCABS_DIR    directory of per-taxi ``new_<id>.txt`` files
  GEOPRIV_GEOLIFE_DIR   directory of per-user Geolife folders (PLT files)
  GEOPRIV_SF_FEATURES   feature CSV of San-Francisco-area restaurants

The ground-truth checks run in minutes; the full pipeline checks take a
few hours end to end on a workstation, because the threshold sweeps
re-extract POIs from every obfuscated copy of multi-million-point traces.
Sweeps are narrowed to a window around the published reproduction targets,
which is sufficient to check the +-100 m criterion.
"""

import math
import os

import pytest

from geopriv.experiment import (
    SweepConfig,
    evaluate,
    extract_ground_truth,
    obfuscation_campaign,
    observe,
    precision_summary,
    threshold_sweep,
    PrecisionConfig,
)
from geopriv.features import FeatureStore
from geopriv.ingest import FilterPolicy, filter_dataset, parse_features, parse_geolife, parse_sfcabs
from geopriv.mechanism import PrivacyLevel
from geopriv.poi import ExtractionParams

STRONG = PrivacyLevel.from_level(math.log(2), 500.0)
MEDIUM = PrivacyLevel.from_level(math.log(6), 500.0)
WEAK = PrivacyLevel.from_level(math.log(4), 200.0)
PARAMS = ExtractionParams()  # 1 h, 250 m, 2
RUNS = 10
MASTER_SEED = 20_240_101

# Published reproduction targets for the public datasets.
SF_POIS = 1111
GEOLIFE_POIS = 258
GEOLIFE_USERS = 61
# per level (strong, medium, weak): optimal threshold m, recall %, re-identification %
SF_TARGETS = {
    STRONG.epsilon: (2000, 71.01, 5.79),
    MEDIUM.epsilon: (1000, 71.54, 8.12),
    WEAK.epsilon: (700, 73.31, 9.66),
}
GEOLIFE_TARGETS = {
    STRONG.epsilon: (2500, 60.57, 63.04),
    MEDIUM.epsilon: (1200, 70.56, 82.90),
    WEAK.epsilon: (600, 71.94, 89.63),
}
# The 70 % recall target is reported as not always reachable for the
# strongest level on the per-person dataset; accept the unreached flag there.
MAY_BE_UNREACHED = {(id(GEOLIFE_TARGETS), STRONG.epsilon)}

sfcabs_dir = os.environ.get("GEOPRIV_SFCABS_DIR")
geolife_dir = os.environ.get("GEOPRIV_GEOLIFE_DIR")
sf_features = os.environ.get("GEOPRIV_SF_FEATURES")

needs_sfcabs = pytest.mark.skipif(not sfcabs_dir, reason="GEOPRIV_SFCABS_DIR not set")
needs_geolife = pytest.mark.skipif(not geolife_dir, reason="GEOPRIV_GEOLIFE_DIR not set")
needs_features = pytest.mark.skipif(
    not (sfcabs_dir and sf_features), reason="GEOPRIV_SFCABS_DIR or GEOPRIV_SF_FEATURES not set"
)


def _report(n, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {status}: {description}{suffix}")
    assert ok, f"criterion {n} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def sf_world():
    dataset = parse_sfcabs(sfcabs_dir)
    return dataset, extract_ground_truth(dataset, PARAMS)


@pytest.fixture(scope="module")
def geolife_world():
    dataset = filter_dataset(parse_geolife(geolife_dir), FilterPolicy())
    return dataset, extract_ground_truth(dataset, PARAMS)


@needs_sfcabs
def test_acceptance_9a_sf_ground_truth(sf_world):
    dataset, truth = sf_world
    total = sum(len(ps) for ps in truth.values())
    ok = abs(total - SF_POIS) <= 0.05 * SF_POIS
    _report(
        "9a",
        "cab-dataset ground truth POI count",
        ok,
        f"{total} POIs over {len(dataset.traces)} taxis ({dataset.total_locations()} locations)",
    )


@needs_geolife
def test_acceptance_9b_geolife_ground_truth(geolife_world):
    dataset, truth = geolife_world
    total = sum(len(ps) for ps in truth.values())
    users_ok = abs(len(dataset.traces) - GEOLIFE_USERS) <= 1
    pois_ok = abs(total - GEOLIFE_POIS) <= 0.05 * GEOLIFE_POIS
    _report(
        "9b",
        "per-person dataset filtering and ground truth POI count",
        users_ok and pois_ok,
        f"{len(dataset.traces)} users, {total} POIs ({dataset.total_locations()} locations)",
    )


def _check_targets(n, name, dataset, truth, targets, store=None):
    details = []
    ok = True
    for level in (STRONG, MEDIUM, WEAK):
        ref_thr, ref_recall, ref_reident = targets[level.epsilon]
        campaign = obfuscation_campaign(dataset, level, RUNS, MASTER_SEED)
        cfg = SweepConfig(min_m=max(100, ref_thr - 400), max_m=ref_thr + 300, step_m=100)
        observed = observe(campaign, truth, PARAMS, cfg.thresholds())
        sweep = threshold_sweep(observed, truth, cfg.recall_target, level)
        thr_ok = sweep.reached and abs(sweep.optimal_m - ref_thr) <= 100
        if (id(targets), level.epsilon) in MAY_BE_UNREACHED and not sweep.reached:
            thr_ok = True
        report = evaluate(observed[sweep.chosen_m], truth, level, sweep.chosen_m, store) if store else None
        if report is None:
            # distance metrics need a feature store; recall and linking do not
            from geopriv.metrics import recall_of, remap, reidentification_rate

            eligible = {u: ps for u, ps in truth.items() if len(ps) > 0}
            recalls, rates = [], []
            for obf in observed[sweep.chosen_m]:
                recalls.append(
                    sum(recall_of(remap(obf[u], eligible[u]), len(eligible[u])) for u in eligible)
                    / len(eligible)
                )
                rates.append(reidentification_rate(eligible, obf))
            mean_recall = sum(recalls) / len(recalls)
            mean_reident = sum(rates) / len(rates)
        else:
            mean_recall = report.recall_rows[0].mean_recall
            mean_reident = report.reident_rows[0].rate
        recall_ok = abs(mean_recall * 100 - ref_recall) <= 5.0
        reident_ok = abs(mean_reident * 100 - ref_reident) <= 10.0
        ok = ok and thr_ok and recall_ok and reident_ok
        details.append(
            f"eps={level.epsilon:.5f}: thr={sweep.chosen_m}({'' if sweep.reached else 'unreached,'}ref {ref_thr}), "
            f"recall={mean_recall:.2%}(ref {ref_recall}%), reident={mean_reident:.2%}(ref {ref_reident}%)"
        )
    _report(n, f"{name} thresholds, recall and re-identification", ok, "; ".join(details))


@needs_sfcabs
def test_acceptance_10a_sf_pipeline(sf_world):
    dataset, truth = sf_world
    _check_targets("10a", "cab dataset", dataset, truth, SF_TARGETS)


@needs_geolife
def test_acceptance_10b_geolife_pipeline(geolife_world):
    dataset, truth = geolife_world
    _check_targets("10b", "per-person dataset", dataset, truth, GEOLIFE_TARGETS)


@needs_features
def test_acceptance_11_precision_bands(sf_world):
    dataset, _ = sf_world
    with open(sf_features, encoding="utf-8", newline="") as fh:
        store = FeatureStore.build(parse_features(fh))
    cfg = PrecisionConfig(radius_m=500.0, alpha=0.85, samples=100, category="restaurant")
    strong = precision_summary(dataset, STRONG, store, cfg, MASTER_SEED).mean_precision
    weak = precision_summary(dataset, WEAK, store, cfg, MASTER_SEED).mean_precision
    ok = strong < 0.15 and 0.30 <= weak <= 0.55
    _report(
        11,
        "query precision bands on a real feature extract",
        ok,
        f"strong={strong:.3f} (<0.15), weak={weak:.3f} ([0.30, 0.55])",
    )
