import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geopriv.core import Dataset, GeoPoint, MobilityTrace, Poi, PoiSet, TimestampedLocation as TL
from geopriv.experiment import (
    EvaluationReport,
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
from geopriv.features import FeatureStore, generate_synthetic_features
from geopriv.mechanism import PrivacyLevel, derive_seed
from geopriv.poi import ExtractionParams

from oracles import offset, run_experiment_literal
from synth import dataset_bounds, planted_dataset

MEDIUM = PrivacyLevel.from_level(math.log(6), 500.0)
PARAMS = ExtractionParams(min_time=900)
_POI = Poi(GeoPoint(45.0, 5.0), 2)


@pytest.fixture(scope="module")
def small_world():
    dataset, centers = planted_dataset(
        n_users=6, n_pois=3, points_per_dwell=(31, 46, 61), point_interval_s=60, seed=11
    )
    store = FeatureStore.build(
        generate_synthetic_features(77, dataset_bounds(dataset, 4000), density_per_km2=12.0)
    )
    return dataset, centers, store


class TestGroundTruth:
    def test_empty_dataset(self):
        assert extract_ground_truth(Dataset({}), PARAMS) == {}

    def test_planted_pois_recovered(self, small_world):
        dataset, centers, _ = small_world
        truth = extract_ground_truth(dataset, PARAMS)
        assert set(truth) == set(dataset.traces)
        from geopriv.core import distance

        for user, pois in centers.items():
            got = truth[user]
            assert len(got) == len(pois)
            for planted in pois:
                assert min(distance(planted, p.centroid) for p in got.pois) < 50.0


class TestCampaign:
    def test_zero_noise_single_run_is_the_dataset(self, small_world):
        dataset, _, _ = small_world
        campaign = obfuscation_campaign(dataset, PrivacyLevel.zero_noise(), 1, 42)
        assert campaign == [dataset]

    def test_same_master_seed_reproduces(self, small_world):
        dataset, _, _ = small_world
        a = obfuscation_campaign(dataset, MEDIUM, 3, 7)
        b = obfuscation_campaign(dataset, MEDIUM, 3, 7)
        assert a == b

    def test_runs_are_pairwise_different(self, small_world):
        dataset, _, _ = small_world
        campaign = obfuscation_campaign(dataset, MEDIUM, 4, 7)
        for i in range(4):
            for j in range(i + 1, 4):
                assert campaign[i] != campaign[j]

    def test_run_count_validated(self, small_world):
        dataset, _, _ = small_world
        with pytest.raises(ValueError):
            obfuscation_campaign(dataset, MEDIUM, 0, 1)


class TestThresholdSweep:
    def test_zero_noise_optimal_is_first_at_or_above_original(self, small_world):
        dataset, _, _ = small_world
        truth = extract_ground_truth(dataset, PARAMS)
        campaign = obfuscation_campaign(dataset, PrivacyLevel.zero_noise(), 1, 0)
        cfg = SweepConfig(min_m=100, max_m=400, step_m=150, recall_target=0.7)
        result = threshold_sweep(campaign, truth, PARAMS, cfg, MEDIUM)
        by_thr = dict(result.rows)
        assert by_thr[250] == 1.0
        assert by_thr[100] < 0.7
        assert result.optimal_m == 250
        assert result.reached

    def test_unreached_flag_with_best_effort(self, small_world):
        dataset, _, _ = small_world
        truth = extract_ground_truth(dataset, PARAMS)
        campaign = obfuscation_campaign(dataset, MEDIUM, 2, 5)
        cfg = SweepConfig(min_m=100, max_m=200, step_m=100, recall_target=0.7)
        result = threshold_sweep(campaign, truth, PARAMS, cfg, MEDIUM)
        assert not result.reached
        assert result.optimal_m is None
        assert result.best_m in (100, 200)
        assert result.chosen_m == result.best_m

    def test_empty_ground_truth_rejected(self, small_world):
        dataset, _, _ = small_world
        campaign = obfuscation_campaign(dataset, MEDIUM, 1, 5)
        with pytest.raises(ValueError, match="ground truth"):
            threshold_sweep(campaign, {}, PARAMS, SweepConfig(), MEDIUM)


def test_run_missing_users_rejected_by_name(small_world):
    # runs are loaded from separate files, so one may lack users run 0 has
    dataset, _, store = small_world
    truth = extract_ground_truth(dataset, PARAMS)
    campaign = obfuscation_campaign(dataset, MEDIUM, 3, 5)
    kept = {u: tr for u, tr in campaign[2].traces.items() if u not in ("u00", "u03")}
    campaign[2] = Dataset(kept)
    message = "campaign run 2 lacks users that run 0 covers: u00, u03"
    with pytest.raises(ValueError, match=message):
        threshold_sweep(campaign, truth, PARAMS, SweepConfig(1000, 2000, 1000), MEDIUM)
    with pytest.raises(ValueError, match=message):
        observe(campaign, truth, PARAMS, 2000)


def test_ground_truth_users_missing_from_run_0_rejected_by_name(small_world):
    # a user with POIs that run 0 lacks is refused, not dropped from the scores
    dataset, _, _ = small_world
    truth = extract_ground_truth(dataset, PARAMS)
    truth["zz"] = truth["u01"]
    campaign = obfuscation_campaign(dataset, MEDIUM, 2, 5)
    campaign[0] = Dataset({u: tr for u, tr in campaign[0].traces.items() if u != "u02"})
    message = "campaign run 0 lacks users that have ground-truth POIs: u02, zz"
    with pytest.raises(ValueError, match=message):
        threshold_sweep(campaign, truth, PARAMS, SweepConfig(1000, 2000, 1000), MEDIUM)
    with pytest.raises(ValueError, match=message):
        observe(campaign, truth, PARAMS, 2000)


def test_evaluate_refuses_runs_observing_other_users(small_world):
    dataset, _, store = small_world
    truth = extract_ground_truth(dataset, PARAMS)
    observed = observe(obfuscation_campaign(dataset, MEDIUM, 2, 5), truth, PARAMS, 2000)
    observed[1] = {u: ps for u, ps in observed[1].items() if u != "u04"}
    with pytest.raises(ValueError, match="observed run 1 differs from run 0 in users: u04"):
        evaluate(observed, truth, MEDIUM, 2000, store)


@pytest.mark.parametrize(
    "observed, truth, message",
    [
        ([], {"a": PoiSet("a", (_POI,))}, "no observed runs"),
        ([{}], {"a": PoiSet("a", (_POI,))}, "observed run 0 observes no users"),
        ([{"a": PoiSet("a", (_POI,))}], {}, "observed users without ground truth: a"),
        ([{"a": PoiSet("a", (_POI,))}], {"a": PoiSet("a", ())}, "user 'a' has no real POIs"),
    ],
    ids=["no runs", "no users", "user without ground truth", "user without real POIs"],
)
def test_evaluate_refuses_mismatched_observations_by_name(small_world, observed, truth, message):
    with pytest.raises(ValueError, match=message):
        evaluate(observed, truth, MEDIUM, 2000, small_world[2])


class TestEvaluate:
    def test_zero_noise_identity_pipeline(self, small_world):
        dataset, _, store = small_world
        truth = extract_ground_truth(dataset, PARAMS)
        level = PrivacyLevel.zero_noise()
        campaign = obfuscation_campaign(dataset, level, 2, 0)
        report = evaluate(observe(campaign, truth, PARAMS, 250), truth, level, 250, store)
        precision = precision_summary(
            dataset, level, store, PrecisionConfig(samples=25), derive_seed(0, "precision")
        )
        report = replace(report, precision_rows=(precision,))
        assert report.recall_rows[0].mean_recall == 1.0
        assert report.reident_rows[0].rate == 1.0
        assert all(row.geo_m == 0.0 and row.semantic == 0.0 for row in report.pair_rows)
        assert report.precision_rows[0].mean_precision == 1.0

    def test_cdf_fractions_monotone_to_one(self, small_world):
        dataset, _, store = small_world
        truth = extract_ground_truth(dataset, PARAMS)
        campaign = obfuscation_campaign(dataset, MEDIUM, 2, 3)
        report = evaluate(observe(campaign, truth, PARAMS, 2000), truth, MEDIUM, 2000, store)
        values, fractions = report.geo_cdf[MEDIUM.epsilon]
        assert list(values) == sorted(values)
        assert list(fractions) == sorted(fractions)
        assert fractions[-1] == 1.0


class TestSweepReuse:
    """run_experiment hands the sweep's POI sets at the chosen threshold to
    evaluate; the reports must equal those of the public stage chain the
    command line follows: sweep, then observe afresh at chosen_m, evaluate
    and summarise precision."""

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize(
        "sweep_cfg, reached",
        [
            (SweepConfig(min_m=1600, max_m=4000, step_m=800, recall_target=0.5), True),
            (SweepConfig(min_m=2000, max_m=2800, step_m=400, recall_target=0.99), False),
        ],
    )
    def test_reports_byte_identical_to_cli_chain(self, small_world, tmp_path, runs, sweep_cfg, reached):
        dataset, _, store = small_world
        config = ExperimentConfig(
            levels=(MEDIUM,),
            runs=runs,
            master_seed=21,
            extraction=PARAMS,
            sweep=sweep_cfg,
            precision=PrecisionConfig(samples=10),
        )
        manifest = write_report(run_experiment(dataset, config, store), tmp_path / "api")

        truth = extract_ground_truth(dataset, PARAMS)
        campaign = obfuscation_campaign(dataset, MEDIUM, runs, config.master_seed)
        sweep = threshold_sweep(campaign, truth, PARAMS, sweep_cfg, MEDIUM)
        assert sweep.reached == reached
        observed = observe(campaign, truth, PARAMS, sweep.chosen_m)
        report = evaluate(observed, truth, MEDIUM, sweep.chosen_m, store)
        precision = precision_summary(
            dataset, MEDIUM, store, config.precision, derive_seed(config.master_seed, "precision")
        )
        assert report.pair_rows  # the chosen threshold finds obfuscated POIs
        chain = write_report(
            replace(report, precision_rows=(precision,), sweeps=(sweep,)), tmp_path / "cli"
        )

        assert manifest["files"] == chain["files"]
        assert manifest["metadata"]["per_level"] == [json.loads(json.dumps(report.metadata))]
        for name in manifest["files"]:
            assert (tmp_path / "api" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


@pytest.mark.parametrize(
    "bad", [{"samples": 0}, {"alpha": 1.0}, {"radius_m": 0.0}], ids=["samples", "alpha", "radius"]
)
def test_precision_config_validated(bad):
    with pytest.raises(ValueError, match="precision"):
        PrecisionConfig(**bad)


class TestPrecisionSummary:
    def test_counts_empty_retrievals(self, small_world):
        dataset, _, _ = small_world
        empty_region = FeatureStore.build(
            generate_synthetic_features(5, (10.0, 10.0, 10.1, 10.1), 5.0)
        )
        row = precision_summary(dataset, MEDIUM, empty_region, PrecisionConfig(samples=10), 3)
        assert row.n_empty == 10
        assert row.mean_precision == 1.0

    def test_deterministic_for_seed(self, small_world):
        dataset, _, store = small_world
        a = precision_summary(dataset, MEDIUM, store, PrecisionConfig(samples=20), 9)
        b = precision_summary(dataset, MEDIUM, store, PrecisionConfig(samples=20), 9)
        assert a == b


class TestWriteReport:
    EXPECTED_FILES = (
        "recall_users.csv",
        "distances.csv",
        "recall.csv",
        "reident.csv",
        "precision.csv",
        "cdf_geo.csv",
        "cdf_semantic.csv",
        "sweep.csv",
        "manifest.json",
    )

    def test_empty_report_writes_headers(self, tmp_path):
        manifest = write_report(EvaluationReport(), tmp_path)
        for name in self.EXPECTED_FILES:
            assert (tmp_path / name).exists()
        for name, count in manifest["files"].items():
            assert count == 0
            text = (tmp_path / name).read_text()
            assert len(text.splitlines()) == 1  # header only

    def test_fixed_seed_runs_are_byte_identical(self, small_world, tmp_path):
        dataset, _, store = small_world
        config = ExperimentConfig(
            levels=(MEDIUM,),
            runs=2,
            master_seed=21,
            extraction=PARAMS,
            sweep=SweepConfig(min_m=800, max_m=2400, step_m=800),
            precision=PrecisionConfig(samples=10),
        )
        write_report(run_experiment(dataset, config, store), tmp_path / "a")
        write_report(run_experiment(dataset, config, store), tmp_path / "b")
        for name in self.EXPECTED_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_cdf_files_end_at_one(self, small_world, tmp_path):
        dataset, _, store = small_world
        config = ExperimentConfig(
            levels=(MEDIUM,),
            runs=1,
            master_seed=4,
            extraction=PARAMS,
            sweep=SweepConfig(min_m=1000, max_m=2000, step_m=1000),
            precision=PrecisionConfig(samples=5),
        )
        write_report(run_experiment(dataset, config, store), tmp_path)
        lines = (tmp_path / "cdf_geo.csv").read_text().splitlines()
        assert lines[0] == "epsilon,geo_m,fraction"
        assert lines[-1].endswith(",1.0")

    def test_zero_noise_manifest_is_strict_json(self, small_world, tmp_path):
        dataset, _, store = small_world
        config = ExperimentConfig(
            levels=(PrivacyLevel.zero_noise(),),
            runs=1,
            extraction=PARAMS,
            sweep=SweepConfig(min_m=1000, max_m=2000, step_m=1000),
            precision=PrecisionConfig(samples=5),
        )
        write_report(run_experiment(dataset, config, store), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=_refuse)
        assert manifest["metadata"]["levels"][0]["epsilon"] == "inf"
        assert manifest["metadata"]["per_level"][0]["epsilon"] == "inf"

    def test_user_with_empty_trace_is_excluded_and_changes_no_report(self, small_world, tmp_path):
        # "u02a" sorts between real users, so the precision sample's index
        # into the concatenated points would shift if it counted
        dataset, _, store = small_world
        with_empty = Dataset({**dataset.traces, "u02a": MobilityTrace("u02a", ())})
        config = ExperimentConfig(
            levels=(MEDIUM,),
            runs=2,
            master_seed=8,
            extraction=PARAMS,
            sweep=SweepConfig(min_m=800, max_m=2400, step_m=800),
            precision=PrecisionConfig(samples=10),
        )
        report = run_experiment(with_empty, config, store)
        assert report.metadata["per_level"][0]["excluded_users"] == ["u02a"]
        write_report(report, tmp_path / "with")
        write_report(run_experiment(dataset, config, store), tmp_path / "without")
        for name in self.EXPECTED_FILES:
            if name.endswith(".csv"):
                assert (tmp_path / "with" / name).read_bytes() == (
                    tmp_path / "without" / name
                ).read_bytes(), name


def _refuse(token: str):
    raise ValueError(f"not strict JSON: {token}")


BASE = GeoPoint(45.0, 5.0)
TINY_STORE = FeatureStore.build(generate_synthetic_features(5, (44.97, 4.96, 45.03, 5.04), density_per_km2=3.0))


@st.composite
def _tiny_studies(draw):
    """One to five users dwelling at six places they share, or with an
    empty trace, or moving without stopping; one or two levels (zero noise
    among them), one or two runs, a short sweep with a low, middle or
    unreachable recall target and steps fine enough for thresholds to tie.
    Positions come from a drawn seed."""
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    places = [offset(BASE, *gen.uniform(-2500.0, 2500.0, 2).tolist()) for _ in range(6)]
    traces = {}
    for user in draw(st.lists(st.sampled_from(("a", "b", "c", "u1", "u10")), min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(("dwells", "dwells", "dwells", "empty", "moving")))
        locations = []
        t = 0
        if kind == "dwells":
            for _ in range(draw(st.integers(2, 8))):
                place = places[int(gen.integers(len(places)))]
                for _ in range(draw(st.integers(6, 14))):
                    locations.append(TL(t, offset(place, *gen.uniform(-60.0, 60.0, 2).tolist())))
                    t += 120
                t += 1800
        elif kind == "moving":
            for i in range(draw(st.integers(1, 8))):
                locations.append(TL(t, offset(BASE, 900.0 * i, 0.0)))
                t += 300
        traces[user] = MobilityTrace(user, tuple(locations))
    low = draw(st.sampled_from((100, 200, 400)))
    config = ExperimentConfig(
        levels=tuple(draw(st.lists(
            st.sampled_from((PrivacyLevel.zero_noise(), PrivacyLevel(0.02), MEDIUM)), min_size=1, max_size=2, unique=True
        ))),
        runs=draw(st.integers(1, 2)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        extraction=ExtractionParams(
            min_time=600, max_distance=draw(st.sampled_from((150.0, 250.0))), min_pts=draw(st.integers(1, 2))
        ),
        sweep=SweepConfig(
            min_m=low,
            max_m=low + draw(st.sampled_from((0, 100, 300))),
            step_m=draw(st.sampled_from((50, 100))),
            recall_target=draw(st.sampled_from((0.3, 0.7, 0.99))),
        ),
        precision=PrecisionConfig(samples=draw(st.integers(1, 4))),
    )
    return Dataset(traces), config


class TestStudyOracle:
    """The whole study against the stage oracles composed in the naive
    threshold -> run -> user order: the sweep's loop order and recall
    sums, the chosen threshold's tie-break, the exclusion rules and the
    reuse of the sweep's POI sets by evaluate all show in the bytes."""

    @settings(max_examples=150, deadline=None)
    @given(_tiny_studies())
    def test_report_bytes_match_the_literal_study(self, study):
        dataset, config = study
        try:
            want = run_experiment_literal(dataset, config, TINY_STORE)
        except ValueError:
            with pytest.raises(ValueError, match="empty ground truth"):
                run_experiment(dataset, config, TINY_STORE)
            return
        with tempfile.TemporaryDirectory() as tmp:
            got_dir, want_dir = Path(tmp) / "got", Path(tmp) / "want"
            write_report(run_experiment(dataset, config, TINY_STORE), got_dir)
            write_report(want, want_dir)
            names = sorted(p.name for p in got_dir.iterdir())
            assert names == sorted(p.name for p in want_dir.iterdir())
            for name in names:
                assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes(), name
