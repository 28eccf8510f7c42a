"""Command-line interface: one subcommand per pipeline stage.

Every flag can also be supplied through a ``key = value`` config file
passed as ``--config``; explicit flags win over the file.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
from pathlib import Path
from typing import Any, Callable, TextIO

import click

from . import experiment, ingest
from .core import Dataset, PoiSet
from .features import FeatureStore, generate_synthetic_features
from .mechanism import PrivacyLevel, derive_seed
from .metrics import reidentification_rate
from .poi import ExtractionParams

# Option defaults come from the dataclasses the options fill in.
_EXTRACTION = ExtractionParams()
_SWEEP = experiment.SweepConfig()
_PRECISION = experiment.PrecisionConfig()


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"--config line without '=': {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Command(click.Command):
    # A refused setting, input or record (a ValueError, from the library or the helpers
    # below) or an unreadable or unwritable path (an OSError) is a usage error: exit 2.
    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(_Command, click.Group):
    # the group's own callback reads --config, so it refuses the same way
    command_class = _Command


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="key = value file supplying defaults for any flag below.")
@click.pass_context
def main(ctx: click.Context, config_path: str | None) -> None:
    """Location-privacy evaluation pipeline for mobility traces."""
    if config_path:
        values = _read_config(config_path)
        ctx.default_map = {name: {} for name in main.commands}
        known: set[str] = set()
        for name, command in main.commands.items():
            for param in command.params:
                # a key names an option by a flag (input for --input) or by its parameter
                keys = {param.name, *(opt.lstrip("-").replace("-", "_") for opt in param.opts)}
                known |= keys
                ctx.default_map[name].update((param.name, values[key]) for key in keys & values.keys())
        unknown = sorted(values.keys() - known)
        if unknown:
            raise ValueError(f"--config gives unknown keys: {', '.join(unknown)}")


def _from_spec(spec: str, form: str, option: str, build: Callable[[dict[str, list[str]]], Any]) -> Any:
    """``build`` of the values by key of a ``key=value,...`` spec; a comma
    item without ``=`` is one more value of the key before it. The spec
    must have the keys of ``form`` (such as ``l=<f>,r=<m>``), in any order,
    with as many values each; any other spec, and values that ``build``
    refuses, raise a ValueError that quotes ``form``."""

    def read(text: str) -> dict[str, list[str]]:
        values: dict[str, list[str]] = {}
        for item in text.split(","):
            key, eq, value = item.partition("=")
            if eq and key not in values:
                values[key] = [value]
            elif eq or not values:
                raise ValueError(f"repeated key or no key: {item!r}")
            else:
                values[next(reversed(values))].append(item)
        return values

    try:
        values = read(spec)
        if {k: len(v) for k, v in values.items()} != {k: len(v) for k, v in read(form).items()}:
            raise ValueError("keys or value counts differ from the form")
        return build(values)
    except ValueError as exc:
        raise ValueError(f"{option}: expected {form}, got {spec!r}") from exc


def _resolve_level(epsilon: float | None, level_spec: str | None) -> PrivacyLevel:
    if (epsilon is None) == (level_spec is None):
        raise ValueError("give exactly one of --epsilon or --level l=<f>,r=<m>")
    if epsilon is not None:
        return PrivacyLevel(epsilon)
    return _from_spec(level_spec, "l=<f>,r=<m>", "--level",
                      lambda v: PrivacyLevel.from_level(float(v["l"][0]), float(v["r"][0])))


def _resolve_store(features_path: str | None, synthetic_spec: str | None) -> FeatureStore:
    if (features_path is None) == (synthetic_spec is None):
        raise ValueError("give exactly one of --features or --synthetic")
    if features_path is not None:
        with open(features_path, encoding="utf-8", newline="") as fh:
            return FeatureStore.build(ingest.parse_features(fh))

    form = "density=<f>,seed=<u64>,bbox=<lat1,lon1,lat2,lon2>"
    density, seed, (lat1, lon1, lat2, lon2) = _from_spec(
        synthetic_spec, form, "--synthetic",
        lambda v: (float(v["density"][0]), int(v["seed"][0]), [float(x) for x in v["bbox"]]))
    # the box runs east from lon1 to lon2, so lon1 > lon2 would cross the
    # antimeridian, which the generator's bounds cannot express
    if lon1 > lon2:
        raise ValueError(f"--synthetic bbox may not cross the antimeridian: lon1 {lon1} > lon2 {lon2}")
    bounds = (min(lat1, lat2), lon1, max(lat1, lat2), lon2)
    return FeatureStore.build(generate_synthetic_features(seed, bounds, density))


def _load(path: str | Path, parse: Callable[[TextIO], Any] = ingest.parse_canonical) -> Any:
    """The dataset, or with another ``parse`` the POI sets, in the text file ``path``."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh)


def _writable(files: tuple[str | None, ...] = (), dirs: tuple[str, ...] = ()) -> None:
    """Refuse, before any input is read, output paths that writing would
    fail on, with the error the write would raise: a file needs an
    existing directory and must not be one; a directory, made with its
    parents, must not be a file nor lie under one."""
    for name in files:
        if name is None:
            continue
        path = Path(name)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), name)
        if not path.parent.is_dir():
            code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), name)
    for name in dirs:
        path = Path(name)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            code = errno.EEXIST if existing == path else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(path))


_RUN_FILE, _RUN_FILES = "run_{:03d}.csv", "run_*.csv"

# A record value's kind: the name a refusal gives it, and its test. A JSON
# true or false is no number, nor are NaN and Infinity, which strict JSON lacks.
_KINDS: dict[str, Callable[[Any], bool]] = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) is int or type(v) is float and math.isfinite(v),
    'a number or "inf"': lambda v: v == "inf" or _KINDS["a number"](v),
    "a string": lambda v: type(v) is str,
}

# The keys of the two records that sweep and evaluate read, with their kinds; a dict is a
# nested object, and a pair also names the setting that the key's value builds.
_CAMPAIGN_RECORD = {"dataset_digest": "a string",
                    "epsilon": ('a number or "inf"', lambda v: PrivacyLevel(float(v))),
                    "master_seed": "an integer", "runs": "an integer"}
_POI_RECORD = {"dataset_digest": "a string",
               "extraction": ({f.name: "an integer" if type(f.default) is int else "a number"
                               for f in dataclasses.fields(ExtractionParams)},
                              lambda v: ExtractionParams(**v))}


def _check_record(where: str, record: Any, keys: dict) -> dict:
    """``record`` if it is a JSON object with exactly the keys of ``keys``, each of its kind,
    with the settings its values build in their place; ``where`` names it."""
    if not isinstance(record, dict) or record.keys() != keys.keys():
        raise ValueError(f"{where} must be a JSON object with exactly the keys {', '.join(sorted(keys))}")
    checked = {}
    for key, spec in keys.items():
        kind, build = spec if isinstance(spec, tuple) else (spec, None)
        value = record[key]
        if isinstance(kind, dict):
            _check_record(f"the {key} of {where}", value, kind)
        elif not _KINDS[kind](value):
            raise ValueError(f"{where} gives {key} {json.dumps(value)}, not {kind}")
        try:
            checked[key] = build(value) if build else value
        except ValueError as exc:
            raise ValueError(f"{where} gives {key} {json.dumps(value)}: {exc}") from None
    return checked


def _read_record(path: Path, keys: dict) -> dict:
    """The JSON record at ``path``, checked against ``keys``."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path} holds no JSON: {exc}") from exc
    return _check_record(str(path), record, keys)


def _load_scored(real_path: str, campaign_dir: str
                 ) -> tuple[list[Dataset], PrivacyLevel, dict[str, PoiSet], ExtractionParams]:
    """The runs and level of an ``obfuscate`` directory, and ``--real``'s POI
    sets (empty for a campaign user it lacks) with the extraction settings of
    its record ``<real>.json``. Both records are checked, and must name the
    same dataset, before any run file is read; the run files must be exactly
    ``run_000.csv`` to ``run_{runs-1:03d}.csv``, each covering run 0's users."""
    root = Path(campaign_dir)
    meta_path, record_path = root / "campaign.json", Path(f"{real_path}.json")
    meta = _read_record(meta_path, _CAMPAIGN_RECORD)
    record = _read_record(record_path, _POI_RECORD)
    if record["dataset_digest"] != meta["dataset_digest"]:
        raise ValueError(f"{record_path} records dataset {record['dataset_digest']}, but "
                         f"{meta_path} records dataset {meta['dataset_digest']}")
    found = {p.name for p in root.glob(_RUN_FILES)}
    names = [_RUN_FILE.format(run) for run in range(len(found))]
    if not found or meta["runs"] != len(found) or set(names) != found:
        raise ValueError(f"{meta_path} records {meta['runs']} runs, "
                         f"but its run files are: {', '.join(sorted(found)) or 'none'}")
    campaign = []
    for name in names:
        campaign.append(_load(root / name))
        missing = sorted(campaign[0].traces.keys() - campaign[-1].traces.keys())
        if missing:
            raise ValueError(f"{name} lacks users that {names[0]} covers: {', '.join(missing)}")
    ground_truth = {user: PoiSet(user, ()) for user in campaign[0].traces} | _load(real_path, ingest.parse_pois)
    return campaign, meta["epsilon"], ground_truth, record["extraction"]


@main.command("ingest")
@click.option("--format", "fmt", type=click.Choice(["sfcabs", "geolife", "csv"]), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--output", "output_path", type=click.Path(), required=True)
@click.option("--filter-days", type=int, default=None, help="keep users with at least this many qualifying days.")
@click.option("--filter-locs", type=int, default=None, help="a day qualifies with more than this many locations.")
def ingest_cmd(fmt: str, input_path: str, output_path: str, filter_days: int | None, filter_locs: int | None) -> None:
    """Load a source dataset and write it as canonical trace CSV."""
    _writable(files=(output_path,))
    dataset = {"csv": _load, "sfcabs": ingest.parse_sfcabs, "geolife": ingest.parse_geolife}[fmt](input_path)
    given = {field: value for field, value in (("min_qualifying_days", filter_days),
                                               ("min_locations_per_day", filter_locs)) if value is not None}
    if given:
        dataset = ingest.filter_dataset(dataset, dataclasses.replace(ingest.FilterPolicy(), **given))
    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        count = ingest.write_canonical(dataset, fh)
    click.echo(f"wrote {count} locations for {len(dataset.traces)} users to {output_path}")


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--min-time", type=int, default=_EXTRACTION.min_time, show_default=True)
@click.option("--max-distance", type=float, default=_EXTRACTION.max_distance, show_default=True)
@click.option("--min-pts", type=int, default=_EXTRACTION.min_pts, show_default=True)
@click.option("--output", "output_path", type=click.Path(), required=True)
def pois(input_path: str, min_time: int, max_distance: float, min_pts: int, output_path: str) -> None:
    """Extract per-user POIs from a canonical trace CSV, and record the
    source dataset's digest and the extraction settings in ``<output>.json``."""
    _writable(files=(f"{output_path}.json", output_path))
    dataset = _load(input_path)
    params = ExtractionParams(min_time=min_time, max_distance=max_distance, min_pts=min_pts)
    poi_sets = experiment.extract_ground_truth(dataset, params)
    # the record first, so a setting strict JSON cannot hold (max_distance inf) writes no file
    record = {"dataset_digest": ingest.dataset_digest(dataset), "extraction": dataclasses.asdict(params)}
    experiment.write_json(f"{output_path}.json", record)
    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        count = ingest.write_pois(poi_sets, fh)
    click.echo(f"wrote {count} POIs for {len(poi_sets)} users to {output_path}")


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--epsilon", type=float, default=None, help="noise scale in 1/metres.")
@click.option("--level", "level_spec", default=None, help="l=<f>,r=<m> privacy mass within a radius.")
@click.option("--runs", type=int, default=experiment.ExperimentConfig().runs, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="64-bit master seed.")
@click.option("--output-dir", type=click.Path(), required=True)
def obfuscate(input_path: str, epsilon: float | None, level_spec: str | None, runs: int, seed: int, output_dir: str) -> None:
    """Write independently obfuscated copies of a dataset into a directory
    that holds no campaign yet."""
    _writable(dirs=(output_dir,))
    out = Path(output_dir)
    held = sorted(p.name for p in [*out.glob("campaign.json"), *out.glob(_RUN_FILES)])
    if held:
        raise ValueError(f"{output_dir} already holds a campaign: {', '.join(held)}")
    level = _resolve_level(epsilon, level_spec)
    dataset = _load(input_path)
    campaign = experiment.obfuscation_campaign(dataset, level, runs, seed)
    out.mkdir(parents=True, exist_ok=True)
    for run, ds in enumerate(campaign):
        with open(out / _RUN_FILE.format(run), "w", encoding="utf-8", newline="") as fh:
            ingest.write_canonical(ds, fh)
    meta = {"epsilon": experiment.json_number(level.epsilon), "runs": runs, "master_seed": seed,
            "dataset_digest": ingest.dataset_digest(dataset)}
    experiment.write_json(out / "campaign.json", meta)
    click.echo(f"wrote {runs} obfuscated runs to {output_dir}")


@main.command()
@click.option("--real", "real_path", type=click.Path(exists=True), required=True, help="ground-truth POI CSV.")
@click.option("--campaign", "campaign_dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--step", type=int, default=_SWEEP.step_m, show_default=True)
@click.option("--min", "min_m", type=int, default=_SWEEP.min_m, show_default=True)
@click.option("--max", "max_m", type=int, default=_SWEEP.max_m, show_default=True)
@click.option("--target", type=float, default=_SWEEP.recall_target, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None, help="also write the sweep table as CSV.")
def sweep(real_path: str, campaign_dir: str, step: int, min_m: int, max_m: int, target: float,
          out_path: str | None) -> None:
    """Sweep the observer's distance threshold and report mean recall."""
    _writable(files=(out_path,))
    campaign, level, ground_truth, params = _load_scored(real_path, campaign_dir)
    cfg = experiment.SweepConfig(min_m=min_m, max_m=max_m, step_m=step, recall_target=target)
    observed = experiment.observe(campaign, ground_truth, params, cfg.thresholds())
    result = experiment.threshold_sweep(observed, ground_truth, target, level)
    for thr, rec in result.rows:
        click.echo(f"{thr}\t{rec:.4f}")
    if result.reached:
        click.echo(f"optimal threshold: {result.optimal_m} m (recall target {target} reached)")
    else:
        click.echo(f"recall target {target} unreached; best threshold {result.best_m} m")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            experiment.write_sweep_csv([result], fh)


@main.command()
@click.option("--real", "real_path", type=click.Path(exists=True), required=True)
@click.option("--campaign", "campaign_dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--threshold", type=int, required=True, help="observer max-distance in metres.")
@click.option("--features", "features_path", type=click.Path(exists=True), default=None)
@click.option("--synthetic", "synthetic_spec", default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def evaluate(real_path: str, campaign_dir: str, threshold: int, features_path: str | None,
             synthetic_spec: str | None, out_dir: str) -> None:
    """Score a campaign at a fixed threshold and write the report files."""
    _writable(dirs=(out_dir,))
    campaign, level, ground_truth, params = _load_scored(real_path, campaign_dir)
    store = _resolve_store(features_path, synthetic_spec)
    observed = experiment.observe(campaign, ground_truth, params, [threshold])[threshold]
    report = experiment.evaluate(observed, ground_truth, level, threshold, store)
    experiment.write_report(report, out_dir)
    row = report.recall_rows[0]
    click.echo(f"mean recall {row.mean_recall:.4f} over {row.n_users} users, {row.runs} runs")
    click.echo(f"report written to {out_dir}")


@main.command()
@click.option("--real", "real_path", type=click.Path(exists=True), required=True)
@click.option("--obf", "obf_path", type=click.Path(exists=True), required=True)
@click.option("--epsilon", type=float, default=None, help="label for the output row.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def reident(real_path: str, obf_path: str, epsilon: float | None, out_path: str) -> None:
    """Link anonymous obfuscated POI sets back to known users.

    Every --real user is scored; one without a row in --obf has an empty
    set, a miss. --obf users absent from --real are named, not scored."""
    _writable(files=(out_path,))
    real_sets, obf_sets = _load(real_path, ingest.parse_pois), _load(obf_path, ingest.parse_pois)
    rate = reidentification_rate(real_sets, {u: obf_sets.get(u, PoiSet(u, ())) for u in real_sets})
    row = experiment.ReidentRow(epsilon, rate, len(real_sets))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        experiment.write_rows(fh, experiment.ReidentRow, [row])
    unscored = sorted(obf_sets.keys() - real_sets.keys())
    click.echo(f"re-identification rate {rate:.4f} over {len(real_sets)} users"
               + (f"; not in --real, so not scored: {', '.join(unscored)}" if unscored else ""))


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--features", "features_path", type=click.Path(exists=True), default=None)
@click.option("--synthetic", "synthetic_spec", default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--level", "level_spec", default=None)
@click.option("--radius", type=float, default=_PRECISION.radius_m, show_default=True)
@click.option("--alpha", type=float, default=_PRECISION.alpha, show_default=True)
@click.option("--samples", type=int, default=_PRECISION.samples, show_default=True)
@click.option("--category", default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def precision(input_path: str, features_path: str | None, synthetic_spec: str | None,
              epsilon: float | None, level_spec: str | None, radius: float, alpha: float,
              samples: int, category: str | None, seed: int, out_path: str | None) -> None:
    """Measure query precision under obfuscation at sampled trace points."""
    _writable(files=(out_path,))
    cfg = experiment.PrecisionConfig(radius_m=radius, alpha=alpha, samples=samples, category=category)
    level = _resolve_level(epsilon, level_spec)
    dataset = _load(input_path)
    store = _resolve_store(features_path, synthetic_spec)
    row = experiment.precision_summary(dataset, level, store, cfg, derive_seed(seed, "precision"))
    click.echo(
        f"mean precision {row.mean_precision:.4f} over {row.n_samples} samples "
        f"({row.n_empty} empty retrievals)"
    )
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            experiment.write_rows(fh, experiment.PrecisionRow, [row])


if __name__ == "__main__":
    main()
