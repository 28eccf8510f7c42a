"""Golden report digest: the refactor contract.

``run_experiment`` + ``write_report`` on the acceptance-8 fixture must keep
writing byte-for-byte the same report files. A refactor that changes any
digest below changes the paper's numbers; re-bless only with the reason
recorded in CHANGES.md.
"""

import hashlib
import math

from geopriv.experiment import (
    ExperimentConfig,
    PrecisionConfig,
    SweepConfig,
    run_experiment,
    write_report,
)
from geopriv.features import FeatureStore, generate_synthetic_features
from geopriv.mechanism import PrivacyLevel
from geopriv.poi import ExtractionParams

from synth import dataset_bounds, planted_dataset

GOLDEN = {
    "cdf_geo.csv": "524ae38d4baef31e27df4c329a7914c0",
    "cdf_semantic.csv": "a04b9a4c895d9dcb52c6755bbe48b63e",
    "distances.csv": "253efbb485fae7d323eb72286a038e22",
    "manifest.json": "f596d2abab745ef6ab2eb54d6e52f81c",
    "precision.csv": "a33a09cead07b62b58699fb56777cbe4",
    "recall.csv": "61f729e19bd796eb5e49a770dd30a231",
    "recall_users.csv": "27bb49bdd5e0235845faadf7baa17dd3",
    "reident.csv": "5b549878fa8dd2a408801a02c244254b",
    "sweep.csv": "4fb04cda677b68b4db0fc3c7e441ed46",
}


def test_report_files_match_golden_digests(tmp_path):
    dataset, _ = planted_dataset(
        n_users=6, n_pois=2, points_per_dwell=(31, 61), point_interval_s=60, seed=13
    )
    store = FeatureStore.build(
        generate_synthetic_features(17, dataset_bounds(dataset, 3000), density_per_km2=8.0)
    )
    config = ExperimentConfig(
        levels=(
            PrivacyLevel.from_level(math.log(6), 500.0),
            PrivacyLevel.from_level(math.log(4), 200.0),
        ),
        runs=2,
        master_seed=2024,
        extraction=ExtractionParams(min_time=900),
        sweep=SweepConfig(min_m=1500, max_m=4500, step_m=1500),
        precision=PrecisionConfig(samples=20),
    )
    write_report(run_experiment(dataset, config, store), tmp_path)
    digests = {
        p.name: hashlib.blake2b(p.read_bytes(), digest_size=16).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN
