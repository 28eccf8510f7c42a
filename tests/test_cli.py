import json
import math
import shutil

import pytest
from click.testing import CliRunner

from geopriv import cli, experiment
from geopriv.cli import main
from geopriv.core import Dataset, GeoPoint, MobilityTrace, TimestampedLocation
from geopriv.features import FeatureStore, generate_synthetic_features
from geopriv.ingest import FilterPolicy, dataset_digest, parse_canonical, parse_pois, write_canonical
from geopriv.mechanism import PrivacyLevel
from geopriv.poi import ExtractionParams

from synth import dataset_bounds, planted_dataset


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset, _ = planted_dataset(
        n_users=4, n_pois=2, points_per_dwell=(31, 46), point_interval_s=60, seed=3
    )
    traces = root / "traces.csv"
    with open(traces, "w", newline="") as fh:
        write_canonical(dataset, fh)
    b = dataset_bounds(dataset, 3000)
    synthetic = f"density=8,seed=5,bbox={b[0]},{b[1]},{b[2]},{b[3]}"
    return root, dataset, traces, synthetic


def _run(*args):
    runner = CliRunner()
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestIngest:
    def test_csv_round_trip(self, world, tmp_path):
        root, dataset, traces, _ = world
        out = tmp_path / "copy.csv"
        _run("ingest", "--format", "csv", "--input", str(traces), "--output", str(out))
        with open(out) as fh:
            assert parse_canonical(fh) == dataset

    def test_sfcabs_with_filter(self, tmp_path):
        cab = tmp_path / "cabs"
        cab.mkdir()
        lines = [f"37.75 -122.39 0 {86400 + i}" for i in range(10)]
        (cab / "new_yellow.txt").write_text("\n".join(reversed(lines)) + "\n")
        out = tmp_path / "cabs.csv"
        r = _run(
            "ingest", "--format", "sfcabs", "--input", str(cab), "--output", str(out),
            "--filter-locs", "5", "--filter-days", "1",
        )
        assert "10 locations" in r.output
        r2 = _run(
            "ingest", "--format", "sfcabs", "--input", str(cab), "--output", str(out),
            "--filter-locs", "15", "--filter-days", "1",
        )
        assert "0 locations" in r2.output

    def test_filter_days_alone_keeps_default_locations_per_day(self, tmp_path):
        # one day each, with one record more / exactly as many records as
        # the policy's default day threshold
        per_day = FilterPolicy().min_locations_per_day
        dataset = Dataset({
            user: MobilityTrace(user, tuple(
                TimestampedLocation(86400 + 60 * i, GeoPoint(37.75, -122.39)) for i in range(n)
            ))
            for user, n in (("busy", per_day + 1), ("quiet", per_day))
        })
        source = tmp_path / "in.csv"
        with open(source, "w", newline="") as fh:
            write_canonical(dataset, fh)
        out = tmp_path / "out.csv"
        _run("ingest", "--format", "csv", "--input", str(source), "--output", str(out), "--filter-days", "1")
        with open(out) as fh:
            assert parse_canonical(fh).users() == ["busy"]


class TestPoisCommand:
    def test_extracts_per_user(self, world, tmp_path):
        root, dataset, traces, _ = world
        out = tmp_path / "pois.csv"
        _run(
            "pois", "--input", str(traces), "--output", str(out),
            "--min-time", "900", "--max-distance", "250", "--min-pts", "2",
        )
        with open(out) as fh:
            sets = parse_pois(fh)
        assert set(sets) == set(dataset.traces)
        assert all(len(ps) == 2 for ps in sets.values())
        record = json.loads((tmp_path / "pois.csv.json").read_text(), parse_constant=_refuse)
        assert record == {
            "dataset_digest": dataset_digest(dataset),
            "extraction": {"min_time": 900, "max_distance": 250.0, "min_pts": 2, "merge_factor": 0.75},
        }

    def test_a_setting_strict_json_cannot_hold_writes_nothing(self, world, tmp_path):
        root, dataset, traces, _ = world
        out = tmp_path / "pois.csv"
        result = CliRunner().invoke(main, [
            "pois", "--input", str(traces), "--output", str(out), "--max-distance", "inf",
        ])
        assert result.exit_code == 2, result.output
        assert "Error: Out of range float values are not JSON compliant" in result.output
        assert list(tmp_path.iterdir()) == []


class TestObfuscateCommand:
    def test_writes_runs_and_manifest(self, world, tmp_path):
        root, dataset, traces, _ = world
        out = tmp_path / "campaign"
        _run(
            "obfuscate", "--input", str(traces), "--epsilon", "0.00358",
            "--runs", "3", "--seed", "9", "--output-dir", str(out),
        )
        assert sorted(p.name for p in out.glob("run_*.csv")) == [
            "run_000.csv", "run_001.csv", "run_002.csv",
        ]
        meta = json.loads((out / "campaign.json").read_text())
        assert meta == {"epsilon": 0.00358, "runs": 3, "master_seed": 9,
                        "dataset_digest": dataset_digest(dataset)}

    def test_level_flag_and_determinism(self, world, tmp_path):
        root, dataset, traces, _ = world
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            _run(
                "obfuscate", "--input", str(traces), "--level", "l=0.693,r=500",
                "--runs", "1", "--seed", "4", "--output-dir", str(out),
            )
        assert (a / "run_000.csv").read_bytes() == (b / "run_000.csv").read_bytes()

    def test_epsilon_and_level_are_exclusive(self, world, tmp_path):
        root, dataset, traces, _ = world
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["obfuscate", "--input", str(traces), "--epsilon", "0.001",
             "--level", "l=1,r=100", "--output-dir", str(tmp_path / "x")],
        )
        assert result.exit_code != 0
        assert "exactly one" in result.output

    @pytest.mark.parametrize("earlier", ["campaign", "stray run file"])
    def test_refuses_a_directory_holding_a_campaign(self, world, tmp_path, earlier):
        root, dataset, traces, _ = world
        out = tmp_path / "campaign"
        if earlier == "campaign":
            _run("obfuscate", "--input", str(traces), "--epsilon", "0.00358",
                 "--runs", "3", "--seed", "9", "--output-dir", str(out))
            held = "campaign.json, run_000.csv, run_001.csv, run_002.csv"
        else:
            out.mkdir()
            (out / "run_007.csv").write_text("kept\n")
            held = "run_007.csv"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        result = CliRunner().invoke(main, [
            "obfuscate", "--input", str(traces), "--epsilon", "0.00358",
            "--runs", "2", "--seed", "9", "--output-dir", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert f"{out} already holds a campaign: {held}\n" in result.output
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture(scope="module")
def pipeline(world, tmp_path_factory):
    """pois + obfuscate once, shared by the downstream command tests."""
    root, dataset, traces, synthetic = world
    work = tmp_path_factory.mktemp("pipeline")
    pois_csv = work / "pois.csv"
    _run(
        "pois", "--input", str(traces), "--output", str(pois_csv),
        "--min-time", "900",
    )
    campaign = work / "campaign"
    _run(
        "obfuscate", "--input", str(traces), "--epsilon", "0.00358",
        "--runs", "2", "--seed", "17", "--output-dir", str(campaign),
    )
    return work, pois_csv, campaign, synthetic


def _refuse(token: str):
    raise ValueError(f"not strict JSON: {token}")


def test_zero_noise_campaign_is_strict_json(world, tmp_path):
    root, dataset, traces, synthetic = world
    pois_csv = tmp_path / "pois.csv"
    _run("pois", "--input", str(traces), "--output", str(pois_csv), "--min-time", "900")
    campaign = tmp_path / "campaign"
    _run(
        "obfuscate", "--input", str(traces), "--epsilon", "inf",
        "--runs", "1", "--seed", "3", "--output-dir", str(campaign),
    )
    meta = json.loads((campaign / "campaign.json").read_text(), parse_constant=_refuse)
    assert meta == {"epsilon": "inf", "runs": 1, "master_seed": 3, "dataset_digest": dataset_digest(dataset)}
    r = _run(
        "sweep", "--real", str(pois_csv), "--campaign", str(campaign),
        "--min", "1000", "--max", "2000", "--step", "1000",
    )
    assert "1000\t1.0000" in r.output
    report = tmp_path / "report"
    _run(
        "evaluate", "--real", str(pois_csv), "--campaign", str(campaign), "--threshold", "1000",
        "--synthetic", synthetic, "--out", str(report),
    )
    manifest = json.loads((report / "manifest.json").read_text(), parse_constant=_refuse)
    assert manifest["metadata"]["epsilon"] == "inf"


class TestSweepCommand:
    def test_reports_table_and_optimal(self, pipeline):
        work, pois_csv, campaign, _ = pipeline
        out = work / "sweep.csv"
        r = _run(
            "sweep", "--real", str(pois_csv), "--campaign", str(campaign),
            "--min", "1000", "--max", "3000", "--step", "1000",
            "--target", "0.5", "--out", str(out),
        )
        assert "optimal threshold" in r.output or "unreached" in r.output
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,threshold_m,mean_recall"
        assert len(lines) == 4


@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_campaign_run_missing_a_user_is_a_usage_error(pipeline, tmp_path, command):
    work, pois_csv, campaign, synthetic = pipeline
    broken = tmp_path / "campaign"
    shutil.copytree(campaign, broken)
    run_001 = broken / "run_001.csv"
    lines = run_001.read_text().splitlines(keepends=True)
    run_001.write_text("".join(line for line in lines if not line.startswith("u01,")))
    args = {
        "sweep": ["--min", "1000", "--max", "2000", "--step", "1000"],
        "evaluate": ["--threshold", "2000", "--synthetic", synthetic, "--out", str(tmp_path / "r")],
    }[command]
    result = CliRunner().invoke(
        main, [command, "--real", str(pois_csv), "--campaign", str(broken), *args]
    )
    assert result.exit_code == 2, result.output
    assert "run_001.csv lacks users that run_000.csv covers: u01" in result.output


def _scoring_args(command, synthetic, out):
    """The options besides --real and --campaign of a quick ``sweep`` or ``evaluate``."""
    return {
        "sweep": ["--min", "1000", "--max", "2000", "--step", "1000", "--out", str(out)],
        "evaluate": ["--threshold", "2000", "--synthetic", synthetic, "--out", str(out)],
    }[command]


def _without_users(source, target, users):
    lines = source.read_text().splitlines(keepends=True)
    target.write_text("".join(line for line in lines if line.split(",")[0] not in users))


def _copy_record(source, target):
    """Give the POI file ``target``, cut by hand from ``source``, the record ``pois`` wrote for ``source``."""
    shutil.copy(f"{source}.json", f"{target}.json")


@pytest.mark.parametrize("case", ["no run_001.csv", "no campaign.json", "runs disagree",
                                  "extra run file", "no epsilon", "not an object"])
@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_campaign_record_and_run_files_must_agree(pipeline, tmp_path, command, case):
    work, pois_csv, campaign, synthetic = pipeline
    broken = tmp_path / "campaign"
    shutil.copytree(campaign, broken)
    if case == "no run_001.csv":
        (broken / "run_001.csv").unlink()
    elif case == "no campaign.json":
        (broken / "campaign.json").unlink()
    elif case == "extra run file":
        shutil.copy(broken / "run_001.csv", broken / "run_002.csv")
    else:
        record = json.loads((broken / "campaign.json").read_text())
        if case == "runs disagree":
            record["runs"] = 3
        elif case == "no epsilon":
            del record["epsilon"]
        else:
            record = [record]
        (broken / "campaign.json").write_text(json.dumps(record))
    files = "run_000.csv, run_001.csv"
    meta = broken / "campaign.json"
    exact = f"{meta} must be a JSON object with exactly the keys dataset_digest, epsilon, master_seed, runs"
    message = {
        "no run_001.csv": f"{meta} records 2 runs, but its run files are: run_000.csv",
        "no campaign.json": f"[Errno 2] No such file or directory: '{meta}'",
        "runs disagree": f"{meta} records 3 runs, but its run files are: {files}",
        "extra run file": f"{meta} records 2 runs, but its run files are: {files}, run_002.csv",
        "no epsilon": exact,
        "not an object": exact,
    }[case]
    result = CliRunner().invoke(main, [
        command, "--real", str(pois_csv), "--campaign", str(broken),
        *_scoring_args(command, synthetic, tmp_path / "out"),
    ])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}\n" in result.output


@pytest.mark.parametrize("case", ["no record", "record without digest", "record not an object",
                                  "campaign without digest",
                                  "extraction lacks a field", "extraction has an extra key",
                                  "extraction gives text", "other dataset"])
@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_ground_truth_record_must_match_the_campaign(world, pipeline, tmp_path, command, case):
    root, dataset, traces, synthetic = world
    work, pois_csv, campaign, _ = pipeline
    real, broken = tmp_path / "real.csv", tmp_path / "campaign"
    shutil.copy(pois_csv, real)
    _copy_record(pois_csv, real)
    shutil.copytree(campaign, broken)
    record_path = tmp_path / "real.csv.json"
    record = json.loads(record_path.read_text())
    fields = "max_distance, merge_factor, min_pts, min_time"
    if case == "no record":
        record_path.unlink()
        message = f"[Errno 2] No such file or directory: '{record_path}'"
    elif case == "campaign without digest":
        meta = json.loads((broken / "campaign.json").read_text())
        del meta["dataset_digest"]
        (broken / "campaign.json").write_text(json.dumps(meta))
        message = (f"{broken / 'campaign.json'} must be a JSON object with exactly the keys "
                   "dataset_digest, epsilon, master_seed, runs")
    elif case == "other dataset":
        # ground truth from a two-user subset of the campaign's source
        subset = tmp_path / "subset.csv"
        _without_users(traces, subset, {"u02", "u03"})
        with open(subset) as fh:
            subset_digest = dataset_digest(parse_canonical(fh))
        _run("pois", "--input", str(subset), "--output", str(real), "--min-time", "900")
        message = (f"{record_path} records dataset {subset_digest}, "
                   f"but {broken / 'campaign.json'} records dataset {dataset_digest(dataset)}")
    else:
        if case.startswith("record"):
            record = {"extraction": record["extraction"]} if case == "record without digest" else [record]
            message = f"{record_path} must be a JSON object with exactly the keys dataset_digest, extraction"
        else:
            if case == "extraction lacks a field":
                del record["extraction"]["merge_factor"]
            elif case == "extraction has an extra key":
                record["extraction"]["min_stays"] = 2
            else:
                record["extraction"]["min_time"] = "900"
            message = (f'the extraction of {record_path} gives min_time "900", not an integer'
                       if case == "extraction gives text"
                       else f"the extraction of {record_path} must be a JSON object with exactly the keys {fields}")
        record_path.write_text(json.dumps(record))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        command, "--real", str(real), "--campaign", str(broken), *_scoring_args(command, synthetic, out),
    ])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}\n" in result.output
    assert not out.exists()


def test_sweep_extracts_with_the_settings_pois_recorded(world, tmp_path):
    # pois ran at min_time 900, not the default 3600; sweep takes no extraction flag
    root, dataset, traces, _ = world
    real, campaign, out = tmp_path / "pois.csv", tmp_path / "campaign", tmp_path / "sweep.csv"
    _run("pois", "--input", str(traces), "--output", str(real), "--min-time", "900")
    _run("obfuscate", "--input", str(traces), "--epsilon", "0.00358",
         "--runs", "2", "--seed", "17", "--output-dir", str(campaign))
    _run("sweep", "--real", str(real), "--campaign", str(campaign),
         "--min", "1000", "--max", "3000", "--step", "1000", "--out", str(out))
    with open(real) as fh:
        ground_truth = parse_pois(fh)
    runs = []
    for run in range(2):
        with open(campaign / f"run_{run:03d}.csv") as fh:
            runs.append(parse_canonical(fh))
    cfg = experiment.SweepConfig(min_m=1000, max_m=3000, step_m=1000)

    def library_sweep(params):
        observed = experiment.observe(runs, ground_truth, params, cfg.thresholds())
        return experiment.threshold_sweep(observed, ground_truth, cfg.recall_target, PrivacyLevel(0.00358))

    result = library_sweep(ExtractionParams(min_time=900))
    with open(tmp_path / "library.csv", "w", newline="") as fh:
        experiment.write_sweep_csv([result], fh)
    assert out.read_text() == (tmp_path / "library.csv").read_text()
    assert result.rows != library_sweep(ExtractionParams()).rows


@pytest.mark.parametrize("option", ["--min-time", "--min-pts"])
@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_scoring_takes_no_extraction_flags(pipeline, tmp_path, command, option):
    work, pois_csv, campaign, synthetic = pipeline
    result = CliRunner().invoke(main, [
        command, "--real", str(pois_csv), "--campaign", str(campaign), option, "900",
        *_scoring_args(command, synthetic, tmp_path / "out"),
    ])
    assert result.exit_code == 2, result.output
    assert "no such option" in result.output.lower() and option in result.output


@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_config_epsilon_does_not_label_scoring(pipeline, tmp_path, command):
    # the level comes from campaign.json alone; a config's epsilon is for obfuscate
    work, pois_csv, campaign, synthetic = pipeline
    cfg = tmp_path / "geopriv.conf"
    cfg.write_text("epsilon = 0.5\n")
    out = tmp_path / "out"
    _run("--config", str(cfg), command, "--real", str(pois_csv), "--campaign", str(campaign),
         *_scoring_args(command, synthetic, out))
    if command == "sweep":
        assert {line.split(",")[0] for line in out.read_text().splitlines()[1:]} == {"0.00358"}
    else:
        assert json.loads((out / "manifest.json").read_text())["metadata"]["epsilon"] == 0.00358


@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_real_user_missing_from_campaign_is_refused_by_name(pipeline, tmp_path, command):
    work, pois_csv, campaign, synthetic = pipeline
    real = tmp_path / "real.csv"
    real.write_text(pois_csv.read_text() + "zz,45.0,5.0,2\n")
    _copy_record(pois_csv, real)
    result = CliRunner().invoke(main, [
        command, "--real", str(real), "--campaign", str(campaign),
        *_scoring_args(command, synthetic, tmp_path / "out"),
    ])
    assert result.exit_code == 2, result.output
    assert "campaign run 0 lacks users that have ground-truth POIs: zz" in result.output


def test_campaign_user_missing_from_real_is_excluded(pipeline, tmp_path):
    work, pois_csv, campaign, synthetic = pipeline
    real = tmp_path / "real.csv"
    _without_users(pois_csv, real, {"u01"})
    _copy_record(pois_csv, real)
    out = tmp_path / "report"
    r = _run("evaluate", "--real", str(real), "--campaign", str(campaign),
             *_scoring_args("evaluate", synthetic, out))
    assert "over 3 users, 2 runs" in r.output
    metadata = json.loads((out / "manifest.json").read_text())["metadata"]
    assert metadata["excluded_users"] == ["u01"]
    assert metadata["n_users"] == 3


class TestEvaluateCommand:
    def test_writes_report_directory(self, pipeline):
        work, pois_csv, campaign, synthetic = pipeline
        out = work / "report"
        r = _run(
            "evaluate", "--real", str(pois_csv), "--campaign", str(campaign),
            "--threshold", "2000", "--synthetic", synthetic, "--out", str(out),
        )
        assert "mean recall" in r.output
        for name in ("recall.csv", "reident.csv", "cdf_geo.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metadata"]["epsilon"] == 0.00358


class TestReidentCommand:
    def test_zero_noise_rate_is_one(self, pipeline, tmp_path):
        work, pois_csv, campaign, _ = pipeline
        out = tmp_path / "reident.csv"
        r = _run(
            "reident", "--real", str(pois_csv), "--obf", str(pois_csv),
            "--epsilon", "0.00358", "--out", str(out),
        )
        assert "rate 1.0000" in r.output
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,rate,n_users"
        assert lines[1].startswith("0.00358,1.0,")

    def test_real_user_without_obfuscated_row_is_a_miss(self, pipeline, tmp_path):
        # --real holds u00 and u01; --obf lacks u01 and holds u02, u03, which are not scored
        work, pois_csv, campaign, _ = pipeline
        real, obf, out = tmp_path / "real.csv", tmp_path / "obf.csv", tmp_path / "reident.csv"
        _without_users(pois_csv, real, {"u02", "u03"})
        _without_users(pois_csv, obf, {"u01"})
        r = _run("reident", "--real", str(real), "--obf", str(obf), "--epsilon", "0.00358",
                 "--out", str(out))
        assert "rate 0.5000 over 2 users; not in --real, so not scored: u02, u03" in r.output
        assert out.read_text().splitlines()[1] == "0.00358,0.5,2"

    def test_header_only_obf_scores_zero(self, pipeline, tmp_path):
        work, pois_csv, campaign, _ = pipeline
        obf, out = tmp_path / "obf.csv", tmp_path / "reident.csv"
        obf.write_text(pois_csv.read_text().splitlines(keepends=True)[0])
        r = _run("reident", "--real", str(pois_csv), "--obf", str(obf), "--out", str(out))
        assert "rate 0.0000 over 4 users" in r.output
        assert out.read_text().splitlines()[1] == ",0.0,4"


class TestPrecisionCommand:
    def test_reports_mean(self, world, tmp_path):
        root, dataset, traces, synthetic = world
        out = tmp_path / "precision.csv"
        r = _run(
            "precision", "--input", str(traces), "--synthetic", synthetic,
            "--epsilon", "0.00693", "--radius", "500", "--alpha", "0.85",
            "--samples", "20", "--seed", "2", "--out", str(out),
        )
        assert "mean precision" in r.output
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,alpha,radius_m,mean_precision,n_samples,n_empty"
        value = float(lines[1].split(",")[3])
        assert 0.0 <= value <= 1.0

    def test_bad_query_settings_are_usage_errors(self, world):
        root, dataset, traces, synthetic = world
        result = CliRunner().invoke(main, [
            "precision", "--input", str(traces), "--synthetic", synthetic,
            "--epsilon", "0.00693", "--alpha", "1.0",
        ])
        assert result.exit_code == 2, result.output
        assert "precision alpha must be in (0, 1)" in result.output


def _level_table(path, epsilon):
    """The bytes of a report table cut to its header and one level's rows."""
    header, *rows = path.read_bytes().splitlines(keepends=True)
    column = header.rstrip(b"\n").split(b",").index(b"epsilon")
    return header + b"".join(row for row in rows if row.split(b",")[column] == repr(epsilon).encode())


class TestFrontDoors:
    """The study has two front doors: ``run_experiment`` with
    ``write_report``, and the command chain ``pois`` -> ``obfuscate`` ->
    ``sweep`` -> ``evaluate``, plus ``precision``. Per level, the chain
    must write that level's tables of the API's report, byte for byte."""

    def test_command_chain_writes_run_experiments_tables(self, tmp_path):
        dataset, _ = planted_dataset(
            n_users=6, n_pois=3, points_per_dwell=(31, 61, 45), point_interval_s=60, seed=13
        )
        # a user who never dwells has no POIs, and both doors exclude them
        mover = MobilityTrace("u99", tuple(
            TimestampedLocation(60 * i, GeoPoint(45.1 + 0.01 * i, 5.0)) for i in range(40)
        ))
        dataset = Dataset({**dataset.traces, "u99": mover})
        traces = tmp_path / "traces.csv"
        with open(traces, "w", newline="") as fh:
            write_canonical(dataset, fh)
        b = dataset_bounds(dataset, 3000)
        synthetic = f"density=8,seed=5,bbox={b[0]!r},{b[1]!r},{b[2]!r},{b[3]!r}"
        store = FeatureStore.build(generate_synthetic_features(5, b, 8.0))
        config = experiment.ExperimentConfig(
            runs=2, master_seed=2024, extraction=ExtractionParams(min_time=900),
            sweep=experiment.SweepConfig(min_m=100, max_m=2000, step_m=100),
        )
        api = tmp_path / "api"
        metadata = experiment.write_report(experiment.run_experiment(dataset, config, store), api)["metadata"]

        pois_csv = tmp_path / "pois.csv"
        _run("pois", "--input", str(traces), "--output", str(pois_csv), "--min-time", "900")
        for i, level in enumerate(experiment.DEFAULT_LEVELS):
            eps, campaign, cli_out = repr(level.epsilon), tmp_path / f"campaign{i}", tmp_path / f"cli{i}"
            cli_out.mkdir()
            _run("obfuscate", "--input", str(traces), "--epsilon", eps, "--runs", "2", "--seed", "2024",
                 "--output-dir", str(campaign))
            verdict = _run("sweep", "--real", str(pois_csv), "--campaign", str(campaign), "--min", "100",
                           "--max", "2000", "--step", "100", "--out", str(cli_out / "sweep.csv")
                           ).output.splitlines()[-1]
            # the chain's sweep chooses the threshold the API chose
            swept = metadata["levels"][i]
            threshold = str(swept["optimal_threshold_m"] if swept["reached"] else swept["best_threshold_m"])
            assert verdict.endswith(f"threshold: {threshold} m (recall target 0.7 reached)" if swept["reached"]
                                    else f"unreached; best threshold {threshold} m")
            _run("evaluate", "--real", str(pois_csv), "--campaign", str(campaign), "--threshold", threshold,
                 "--synthetic", synthetic, "--out", str(cli_out / "report"))
            _run("precision", "--input", str(traces), "--epsilon", eps, "--seed", "2024",
                 "--synthetic", synthetic, "--out", str(cli_out / "precision.csv"))
            for name in ("recall_users.csv", "distances.csv", "recall.csv", "reident.csv",
                         "cdf_geo.csv", "cdf_semantic.csv"):
                assert (cli_out / "report" / name).read_bytes() == _level_table(api / name, level.epsilon), name
            for name in ("sweep.csv", "precision.csv"):
                assert (cli_out / name).read_bytes() == _level_table(api / name, level.epsilon), name
            level_metadata = json.loads((cli_out / "report" / "manifest.json").read_text())["metadata"]
            assert level_metadata == metadata["per_level"][i]
            assert level_metadata["excluded_users"] == ["u99"]
        # the fixture holds a level that misses the recall target and one that clears it
        assert {level["reached"] for level in metadata["levels"]} == {False, True}


@pytest.mark.parametrize("case", ["pois", "sweep", "evaluate", "obfuscate", "ingest", "corrupt input"])
def test_bad_settings_and_input_are_usage_errors(world, pipeline, tmp_path, case):
    root, dataset, traces, synthetic = world
    work, pois_csv, campaign, _ = pipeline
    corrupt = tmp_path / "corrupt.csv"
    corrupt.write_text("user_id,timestamp,lat,lon\nu1,100,0,0\ngarbage\n")
    downstream = ["--real", pois_csv, "--campaign", campaign]
    args, message = {
        "pois": (["pois", "--input", traces, "--output", tmp_path / "p.csv", "--min-time", "0"],
                 "min_time must be > 0"),
        "sweep": (["sweep", *downstream, "--step", "0"], "sweep step must be > 0"),
        "evaluate": (["evaluate", *downstream, "--threshold", "0", "--synthetic", synthetic,
                      "--out", tmp_path / "r"], "max_distance must be > 0"),
        "obfuscate": (["obfuscate", "--input", traces, "--epsilon", "0.01", "--runs", "0",
                       "--output-dir", tmp_path / "c"], "runs must be >= 1"),
        "ingest": (["ingest", "--format", "csv", "--input", traces, "--output", tmp_path / "i.csv",
                    "--filter-days", "0"], "filter thresholds must be >= 1"),
        "corrupt input": (["pois", "--input", corrupt, "--output", tmp_path / "p.csv"],
                          "corrupt input: 1 of 2 lines malformed"),
    }[case]
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}\n" in result.output


@pytest.mark.parametrize("case", ["obfuscate onto a file", "pois into no directory", "ingest into no directory",
                                  "precision into no directory", "reident into no directory",
                                  "sweep into no directory", "evaluate onto a file", "geolife from a file",
                                  "config not UTF-8"])
def test_unreadable_and_unwritable_paths_are_usage_errors(world, pipeline, tmp_path, case):
    root, dataset, traces, synthetic = world
    work, pois_csv, campaign, _ = pipeline
    a_file, nowhere = tmp_path / "a-file", tmp_path / "nodir" / "out.csv"
    a_file.write_bytes(b"\xffmin_time = 900\n" if case == "config not UTF-8" else b"kept\n")
    before = a_file.read_bytes()
    level = ["--epsilon", "0.00693"]
    args, message = {
        "obfuscate onto a file": (["obfuscate", "--input", traces, *level, "--runs", "1", "--output-dir", a_file],
                                  f"[Errno 17] File exists: '{a_file}'"),
        "pois into no directory": (["pois", "--input", traces, "--output", nowhere],
                                   f"[Errno 2] No such file or directory: '{nowhere}.json'"),
        "ingest into no directory": (["ingest", "--format", "csv", "--input", traces, "--output", nowhere],
                                     f"[Errno 2] No such file or directory: '{nowhere}'"),
        "precision into no directory": (["precision", "--input", traces, "--synthetic", synthetic, *level,
                                         "--samples", "5", "--out", nowhere],
                                        f"[Errno 2] No such file or directory: '{nowhere}'"),
        "reident into no directory": (["reident", "--real", pois_csv, "--obf", pois_csv, "--out", nowhere],
                                      f"[Errno 2] No such file or directory: '{nowhere}'"),
        "sweep into no directory": (["sweep", "--real", pois_csv, "--campaign", campaign,
                                     *_scoring_args("sweep", synthetic, nowhere)],
                                    f"[Errno 2] No such file or directory: '{nowhere}'"),
        "evaluate onto a file": (["evaluate", "--real", pois_csv, "--campaign", campaign,
                                  *_scoring_args("evaluate", synthetic, a_file)],
                                 f"[Errno 17] File exists: '{a_file}'"),
        "geolife from a file": (["ingest", "--format", "geolife", "--input", a_file, "--output", tmp_path / "g.csv"],
                                f"[Errno 20] Not a directory: '{a_file}'"),
        "config not UTF-8": (["--config", a_file, "pois", "--input", traces, "--output", tmp_path / "p.csv"],
                             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    }[case]
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}" in result.output
    assert a_file.read_bytes() == before and not nowhere.parent.exists()


@pytest.mark.parametrize("case", ["epsilon a list", "epsilon a string", "epsilon null", "epsilon NaN",
                                  "runs true", "digest a number", "min_pts true", "max_distance Infinity",
                                  "not JSON"])
@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_record_values_of_the_wrong_kind_are_refused_by_file_and_key(pipeline, tmp_path, command, case):
    work, pois_csv, campaign, synthetic = pipeline
    real, broken = tmp_path / "real.csv", tmp_path / "campaign"
    shutil.copy(pois_csv, real)
    _copy_record(pois_csv, real)
    shutil.copytree(campaign, broken)
    meta_path, record_path = broken / "campaign.json", tmp_path / "real.csv.json"
    meta, record = json.loads(meta_path.read_text()), json.loads(record_path.read_text())
    number_or_inf = 'not a number or "inf"'
    path, text, message = {
        "epsilon a list": (meta_path, {**meta, "epsilon": [0.01]}, f"{meta_path} gives epsilon [0.01], {number_or_inf}"),
        "epsilon a string": (meta_path, {**meta, "epsilon": "0.01"}, f'{meta_path} gives epsilon "0.01", {number_or_inf}'),
        "epsilon null": (meta_path, {**meta, "epsilon": None}, f"{meta_path} gives epsilon null, {number_or_inf}"),
        "epsilon NaN": (meta_path, {**meta, "epsilon": math.nan}, f"{meta_path} gives epsilon NaN, {number_or_inf}"),
        "runs true": (meta_path, {**meta, "runs": True}, f"{meta_path} gives runs true, not an integer"),
        "digest a number": (record_path, {**record, "dataset_digest": 7},
                            f"{record_path} gives dataset_digest 7, not a string"),
        "min_pts true": (record_path, {**record, "extraction": {**record["extraction"], "min_pts": True}},
                         f"the extraction of {record_path} gives min_pts true, not an integer"),
        "max_distance Infinity": (record_path, {**record, "extraction": {**record["extraction"], "max_distance": math.inf}},
                                  f"the extraction of {record_path} gives max_distance Infinity, not a number"),
        "not JSON": (meta_path, None, f"{meta_path} holds no JSON: Expecting value: line 1 column 1 (char 0)"),
    }[case]
    path.write_text("" if text is None else json.dumps(text))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        command, "--real", str(real), "--campaign", str(broken), *_scoring_args(command, synthetic, out),
    ])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}\n" in result.output
    assert not out.exists()


@pytest.mark.parametrize("case", ["epsilon negative", "epsilon zero", "min_time zero", "max_distance negative"])
@pytest.mark.parametrize("command", ["sweep", "evaluate"])
def test_record_values_out_of_range_are_refused_by_file_and_key(pipeline, tmp_path, command, case):
    work, pois_csv, campaign, synthetic = pipeline
    real, broken = tmp_path / "real.csv", tmp_path / "campaign"
    shutil.copy(pois_csv, real)
    _copy_record(pois_csv, real)
    shutil.copytree(campaign, broken)
    meta_path, record_path = broken / "campaign.json", tmp_path / "real.csv.json"
    meta, record = json.loads(meta_path.read_text()), json.loads(record_path.read_text())
    extraction = record["extraction"]
    path, text, message = {
        "epsilon negative": (meta_path, {**meta, "epsilon": -1},
                             f"{meta_path} gives epsilon -1: epsilon must be > 0, got -1.0"),
        "epsilon zero": (meta_path, {**meta, "epsilon": 0.0},
                         f"{meta_path} gives epsilon 0.0: epsilon must be > 0, got 0.0"),
        "min_time zero": (record_path, {**record, "extraction": {**extraction, "min_time": 0}},
                          f"{record_path} gives extraction {json.dumps({**extraction, 'min_time': 0})}: "
                          "min_time must be > 0"),
        "max_distance negative": (record_path, {**record, "extraction": {**extraction, "max_distance": -5.0}},
                                  f"{record_path} gives extraction {json.dumps({**extraction, 'max_distance': -5.0})}: "
                                  "max_distance must be > 0"),
    }[case]
    path.write_text(json.dumps(text))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        command, "--real", str(real), "--campaign", str(broken), *_scoring_args(command, synthetic, out),
    ])
    assert result.exit_code == 2, result.output
    assert f"Error: {message}\n" in result.output
    assert not out.exists()


def _reading_nothing(monkeypatch):
    """Make every input reader of the command line fail the test."""
    def read(*args, **kwargs):
        raise AssertionError("an input was read before the output path was checked")

    for reader in ("_load", "_read_record", "_resolve_store"):
        monkeypatch.setattr(cli, reader, read)


@pytest.mark.parametrize("case", ["ingest into no directory", "pois into no directory", "obfuscate onto a file",
                                  "sweep into no directory", "evaluate onto a file", "reident into no directory",
                                  "precision into no directory", "sweep onto a directory",
                                  "evaluate under a file"])
def test_output_paths_are_refused_before_any_input_is_read(world, pipeline, tmp_path, monkeypatch, case):
    root, dataset, traces, synthetic = world
    work, pois_csv, campaign, _ = pipeline
    a_file, nowhere = tmp_path / "a-file", tmp_path / "nodir" / "out.csv"
    a_file.write_text("kept\n")
    scored = ["--real", pois_csv, "--campaign", campaign]
    level = ["--epsilon", "0.00693"]
    missing = f"[Errno 2] No such file or directory: '{nowhere}'"
    args, message = {
        "ingest into no directory": (["ingest", "--format", "csv", "--input", traces, "--output", nowhere], missing),
        "pois into no directory": (["pois", "--input", traces, "--output", nowhere],
                                   f"[Errno 2] No such file or directory: '{nowhere}.json'"),
        "obfuscate onto a file": (["obfuscate", "--input", traces, *level, "--runs", "1", "--output-dir", a_file],
                                  f"[Errno 17] File exists: '{a_file}'"),
        "sweep into no directory": (["sweep", *scored, *_scoring_args("sweep", synthetic, nowhere)], missing),
        "evaluate onto a file": (["evaluate", *scored, *_scoring_args("evaluate", synthetic, a_file)],
                                 f"[Errno 17] File exists: '{a_file}'"),
        "reident into no directory": (["reident", "--real", pois_csv, "--obf", pois_csv, "--out", nowhere], missing),
        "precision into no directory": (["precision", "--input", traces, "--synthetic", synthetic, *level,
                                         "--samples", "5", "--out", nowhere], missing),
        "sweep onto a directory": (["sweep", *scored, *_scoring_args("sweep", synthetic, tmp_path)],
                                   f"[Errno 21] Is a directory: '{tmp_path}'"),
        "evaluate under a file": (["evaluate", *scored, *_scoring_args("evaluate", synthetic, a_file / "report")],
                                  f"[Errno 20] Not a directory: '{a_file / 'report'}'"),
    }[case]
    _reading_nothing(monkeypatch)
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exit_code == 2, result.output
    # the refusal is all the command prints: no table, no progress line
    assert result.output.startswith("Usage: ") and f"Error: {message}\n" in result.output
    assert a_file.read_text() == "kept\n" and not nowhere.parent.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["obfuscate", "precision"])
def test_master_seeds_outside_64_bits_are_usage_errors(world, tmp_path, command, seed):
    root, dataset, traces, synthetic = world
    out = tmp_path / "out"
    args = {
        "obfuscate": ["--runs", "1", "--output-dir", out],
        "precision": ["--synthetic", synthetic, "--samples", "5", "--out", out],
    }[command]
    result = CliRunner().invoke(main, [str(a) for a in [command, "--input", traces, "--epsilon", "0.00693",
                                                        "--seed", seed, *args]])
    assert result.exit_code == 2, result.output
    assert f"Error: seed must fit in 64 bits, got {seed}\n" in result.output
    assert not out.exists()


def test_the_largest_64_bit_master_seed_is_taken(world, tmp_path):
    root, dataset, traces, synthetic = world
    seed = 2**64 - 1
    _run("obfuscate", "--input", str(traces), "--epsilon", "0.00693", "--runs", "1", "--seed", str(seed),
         "--output-dir", str(tmp_path / "campaign"))
    assert json.loads((tmp_path / "campaign" / "campaign.json").read_text())["master_seed"] == seed
    _run("precision", "--input", str(traces), "--epsilon", "0.00693", "--synthetic", synthetic,
         "--samples", "5", "--seed", str(seed))


@pytest.mark.parametrize("option, spec", [
    ("--level", "l=0.69,l=0.1,r=500"),
    ("--level", "l=0.69,r=500,junk"),
    ("--synthetic", "{synthetic},colour=red"),
    ("--synthetic", "{synthetic},seed=6"),
    ("--synthetic", "density=8,seed=5,bbox=37.7,-122.5,37.8"),
], ids=["repeated key", "item without key", "unknown key", "repeated seed", "value count"])
def test_specs_must_match_their_form(world, option, spec):
    root, dataset, traces, synthetic = world
    spec = spec.format(synthetic=synthetic)
    form, other = {
        "--level": ("l=<f>,r=<m>", ["--synthetic", synthetic]),
        "--synthetic": ("density=<f>,seed=<u64>,bbox=<lat1,lon1,lat2,lon2>", ["--epsilon", "0.00693"]),
    }[option]
    result = CliRunner().invoke(main, ["precision", "--input", str(traces), *other, option, spec])
    assert result.exit_code == 2, result.output
    assert f"expected {form}, got {spec!r}" in result.output


def test_synthetic_bbox_may_not_cross_the_antimeridian(world):
    root, dataset, traces, synthetic = world
    spec = "density=0.00001,seed=5,bbox=0,179.9,0.1,-179.9"
    result = CliRunner().invoke(main, [
        "precision", "--input", str(traces), "--epsilon", "0.00693", "--synthetic", spec,
    ])
    assert result.exit_code == 2, result.output
    assert "bbox may not cross the antimeridian: lon1 179.9 > lon2 -179.9" in result.output


def test_synthetic_bbox_takes_latitudes_in_either_order(world, tmp_path):
    root, dataset, traces, synthetic = world
    head, bbox = synthetic.split("bbox=")
    lat1, lon1, lat2, lon2 = bbox.split(",")
    outputs = []
    for corners in ((lat1, lon1, lat2, lon2), (lat2, lon1, lat1, lon2)):
        out = tmp_path / f"precision-{len(outputs)}.csv"
        _run(
            "precision", "--input", str(traces), "--epsilon", "0.00693", "--samples", "5",
            "--synthetic", head + "bbox=" + ",".join(corners), "--out", str(out),
        )
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, world, tmp_path):
        root, dataset, traces, _ = world
        cfg = tmp_path / "geopriv.conf"
        cfg.write_text(
            "# defaults for every subcommand\n"
            "epsilon = 0.00358\n"
            "runs = 2\n"
            "seed = 33\n"
        )
        out = tmp_path / "from_config"
        _run(
            "--config", str(cfg),
            "obfuscate", "--input", str(traces), "--output-dir", str(out),
        )
        meta = json.loads((out / "campaign.json").read_text())
        assert meta == {"epsilon": 0.00358, "runs": 2, "master_seed": 33,
                        "dataset_digest": dataset_digest(dataset)}

        out2 = tmp_path / "flag_wins"
        _run(
            "--config", str(cfg),
            "obfuscate", "--input", str(traces), "--output-dir", str(out2),
            "--runs", "1",
        )
        meta2 = json.loads((out2 / "campaign.json").read_text())
        assert meta2["runs"] == 1 and meta2["epsilon"] == 0.00358

    def test_unknown_keys_are_refused_by_name(self, world, tmp_path):
        root, dataset, traces, _ = world
        cfg = tmp_path / "typo.conf"
        cfg.write_text("min_tme = 900\nmin-time = 900\nthreshhold = 2000\n")
        result = CliRunner().invoke(
            main, ["--config", str(cfg), "pois", "--input", str(traces), "--output", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "unknown keys: min_tme, threshhold" in result.output
        assert not (tmp_path / "p.csv").exists()

    def test_keys_may_name_the_flag(self, world, tmp_path):
        # --input and --output fill parameters named input_path and output_path
        root, dataset, traces, _ = world
        cfg = tmp_path / "flags.conf"
        cfg.write_text(f"input = {traces}\noutput = {tmp_path / 'from_config.csv'}\nmin-time = 900\n")
        _run("--config", str(cfg), "pois")
        _run("pois", "--input", str(traces), "--output", str(tmp_path / "from_flags.csv"), "--min-time", "900")
        assert (tmp_path / "from_config.csv").read_bytes() == (tmp_path / "from_flags.csv").read_bytes()
