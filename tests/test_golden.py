"""Golden report digest: the refactor contract.

``run_experiment`` + ``write_report`` on the acceptance-8 fixture must keep
writing byte-for-byte the same report files, and the command line's
``ingest``, ``pois`` and ``obfuscate`` the same hand-off files. A refactor
that changes any digest below changes the paper's numbers or its data
files; re-bless only with the reason recorded in CHANGES.md.
"""

import hashlib
import math

from click.testing import CliRunner

from geopriv.cli import main
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
    "manifest.json": "48c2e2097c832040125c6c13c6690c21",
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


# The stage hand-off files of the command line for the same fixture: the
# source is written as a cab-style CSV (coordinates at five decimals, rows
# newest first), so `ingest` sorts it and writes the six-decimal form, while
# POI centroids and noisy points take the full-repr form.
GOLDEN_CLI = {
    "campaign/campaign.json": "a8a5844724027104f406bae4da4525ac",
    "campaign/run_000.csv": "2285e3bea77421a7e39387802862573f",
    "campaign/run_001.csv": "9cb1bda642cdfb95d8035fa9305414fb",
    "ingested.csv": "6dad71a84b5214a6a4c349bc677ef6a3",
    "pois.csv": "8e44431d1562599456a6c8d3ad3f24fe",
    "pois.csv.json": "f2be1a976eeefb1c72a52f1a21c76998",
}


def test_cli_hand_off_files_match_golden_digests(tmp_path):
    dataset, _ = planted_dataset(
        n_users=6, n_pois=2, points_per_dwell=(31, 61), point_interval_s=60, seed=13
    )
    rows = [
        f"{user},{loc.t},{loc.point.lat:.5f},{loc.point.lon:.5f}"
        for user in dataset.users()
        for loc in dataset.traces[user].locations
    ]
    source = tmp_path / "source.csv"
    source.write_text("\n".join(["user_id,timestamp,lat,lon", *reversed(rows)]) + "\n")
    out = tmp_path / "out"
    epsilon = PrivacyLevel.from_level(math.log(6), 500.0).epsilon
    for args in (
        ["ingest", "--format", "csv", "--input", source, "--output", out / "ingested.csv"],
        ["pois", "--input", out / "ingested.csv", "--output", out / "pois.csv", "--min-time", "900"],
        ["obfuscate", "--input", out / "ingested.csv", "--epsilon", repr(epsilon),
         "--runs", "2", "--seed", "2024", "--output-dir", out / "campaign"],
    ):
        out.mkdir(exist_ok=True)
        result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
    digests = {
        p.relative_to(out).as_posix(): hashlib.blake2b(p.read_bytes(), digest_size=16).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert digests == GOLDEN_CLI
