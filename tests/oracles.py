"""Independent reference implementations used as test oracles.

These deliberately stay naive and quadratic, sharing no code with the
production paths they check (beyond the scalar distance function, which is
itself pinned by direct arithmetic tests, and the mechanism's random
source, perturb and radius quantile, which the precision oracles replay
one trial at a time to issue the same obfuscated queries). The radial law of the noise, ``radius_cdf``, lives
here: no production path evaluates it, and ``inverse_radius_cdf_bisect``
inverts it to check the mechanism's quantile solve. The parser oracle validates each record as
TimestampedLocation/GeoPoint objects and shares only the CSV header, the
malformed-line tolerance and the trace model with
``ingest.parse_canonical``. ``fmt_degrees`` is the scalar rule for every
coordinate the package writes, one round trip through ``float`` per value,
which ``geopriv._digits`` decides for whole columns at once.
``offset`` is the scalar form of the noise step that ``mechanism.perturb`` applies to arrays; the synthetic test data
is built with it. ``walk_unpruned`` is the stay walk as it was before it
split the trace into segments, kept verbatim so that the pruned walk can be
held to it bit for bit; it shares the chord projection with it, as does
``stay_capable_literal``, which finds by brute force the points that some
stay could hold.

Means are literal: a stay's centroid is the mean of its correctly rounded
coordinate sums (``math.fsum``), as the walk defines it, and every other
mean adds its values one by one, left to right (``mean_literal``), on any
Python version. ``run_experiment_literal`` composes the stage oracles into
the whole study in the naive threshold -> run -> user order; it takes from
the package only the noise, the dataset digest and the report types, so
its report files must equal ``run_experiment``'s byte for byte.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import asdict, replace
from typing import Iterable, Mapping

import numpy as np

from geopriv.core import (
    MAX_OFFSET_LAT,
    METERS_PER_DEGREE,
    Dataset,
    GeoPoint,
    MobilityTrace,
    Poi,
    PoiSet,
    TimestampedLocation,
    chord_m,
    chord_xyz,
    distance,
)
from geopriv.experiment import (
    EvaluationReport,
    LevelRecallRow,
    PairRow,
    PrecisionRow,
    ReidentRow,
    SweepResult,
    UserRecallRow,
    json_number,
)
from geopriv.features import DEFAULT_TOP_K
from geopriv.ingest import CANONICAL_HEADER, MALFORMED_TOLERANCE, dataset_digest
from geopriv.mechanism import (
    PrivacyLevel,
    RandomSource,
    derive_seed,
    inverse_radius_cdf,
    obfuscate_trace,
    perturb,
)
from geopriv.poi import ExtractionParams, Stay

logger = logging.getLogger(__name__)


def fmt_degrees(x: float) -> str:
    """``x`` with six decimals when that reads back as ``x``, its repr otherwise."""
    s = f"{x:.6f}"
    return s if float(s) == x else repr(x)


def offset(p: GeoPoint, dx: float, dy: float) -> GeoPoint:
    """Displace ``p`` by ``dx`` metres east and ``dy`` metres north.

    Equirectangular local approximation, meant for city-scale
    displacements (below ~100 km): round-tripping through ``distance``
    recovers sqrt(dx^2 + dy^2) within 0.5 % for displacements up to 10 km
    at latitudes up to 60 degrees. Longitude wraps at the antimeridian; a
    displacement that leaves the valid latitude range raises through
    GeoPoint.
    """
    if abs(p.lat) > MAX_OFFSET_LAT:
        raise ValueError("polar region unsupported")
    lat = p.lat + dy / METERS_PER_DEGREE
    lon = p.lon + dx / (METERS_PER_DEGREE * math.cos(math.radians(p.lat)))
    lon = (lon + 180.0) % 360.0 - 180.0
    return GeoPoint(lat, lon)


def extract_stays_literal(trace: MobilityTrace, params: ExtractionParams) -> list[Stay]:
    """Word-for-word transcription of the windowed stay extraction."""
    points = list(trace.locations)
    stays: list[Stay] = []
    candidate: list = []

    def emit(cand) -> Stay:
        # the mean of the correctly rounded sums, as the walk emits it
        return Stay(
            centroid=GeoPoint(
                math.fsum(p.point.lat for p in cand) / len(cand),
                math.fsum(p.point.lon for p in cand) / len(cand),
            ),
            start_t=cand[0].t,
            end_t=cand[-1].t,
            point_count=len(cand),
        )

    i = 0
    while i < len(points):
        if candidate:
            diameter = max(distance(points[i].point, p.point) for p in candidate)
        else:
            diameter = 0.0
        if diameter <= params.max_distance:
            candidate.append(points[i])
            i += 1
        else:
            if candidate[-1].t - candidate[0].t >= params.min_time:
                stays.append(emit(candidate))
                candidate = []
            else:
                candidate.pop(0)
    if candidate and candidate[-1].t - candidate[0].t >= params.min_time:
        stays.append(emit(candidate))
    return stays


def walk_unpruned(trace: MobilityTrace, params: ExtractionParams) -> list[Stay]:
    """The stay walk as it was before segment pruning: the projection and
    ``poi._walk`` as they were, one window over the whole trace. Every
    decision is the same float operation as the pruned walk's, so their
    stays must be equal field for field."""
    xs, ys, zs = chord_xyz(trace.lat, trace.lon).T.tolist()
    lats, lons, ts = trace.lat.tolist(), trace.lon.tolist(), trace.t.tolist()
    n = len(ts)
    chord = chord_m(params.max_distance)
    chord2 = chord * chord
    min_time = params.min_time

    def emit(start: int, end: int) -> Stay:
        m = end - start
        return Stay(
            centroid=GeoPoint(math.fsum(lats[start:end]) / m, math.fsum(lons[start:end]) / m),
            start_t=ts[start],
            end_t=ts[end - 1],
            point_count=m,
        )

    stays: list[Stay] = []
    start = 0  # window is the slice [start, i)
    i = 0
    # bounding box of (a superset of) the window's chord coordinates; the
    # empty window's box of +-inf fails the box test, and its scan finds
    # no violator, so it admits like any window that fits
    bx0 = by0 = bz0 = math.inf
    bx1 = by1 = bz1 = -math.inf
    while i < n:
        x, y, z = xs[i], ys[i], zs[i]
        dx = bx1 - x
        if x - bx0 > dx: dx = x - bx0
        dy = by1 - y
        if y - by0 > dy: dy = y - by0
        dz = bz1 - z
        if z - bz0 > dz: dz = z - bz0
        if dx * dx + dy * dy + dz * dz <= chord2:
            # within max_distance of the whole box, hence of every member
            if x < bx0: bx0 = x
            if x > bx1: bx1 = x
            if y < by0: by0 = y
            if y > by1: by1 = y
            if z < bz0: bz0 = z
            if z > bz1: bz1 = z
            i += 1
            continue
        # scan newest-first: the first violator is the one every pop must
        # outlive; members behind it are already verified compatible, and
        # a window with no violator keeps every member
        violator = start - 1
        sx0 = sx1 = x
        sy0 = sy1 = y
        sz0 = sz1 = z
        for j in range(i - 1, start - 1, -1):
            xj = xs[j]
            yj = ys[j]
            zj = zs[j]
            dx = x - xj
            dy = y - yj
            dz = z - zj
            if dx * dx + dy * dy + dz * dz > chord2:
                violator = j
                break
            if xj < sx0: sx0 = xj
            elif xj > sx1: sx1 = xj
            if yj < sy0: sy0 = yj
            elif yj > sy1: sy1 = yj
            if zj < sz0: sz0 = zj
            elif zj > sz1: sz1 = zj
        if violator >= start and ts[i - 1] - ts[start] >= min_time:
            stays.append(emit(start, i))
            start = i
            bx0 = by0 = bz0 = math.inf
            bx1 = by1 = bz1 = -math.inf
        else:
            # pop everything up to the violator, then admit; the scan
            # verified the surviving members and rebuilt their box exactly
            start = violator + 1
            bx0, bx1, by0, by1, bz0, bz1 = sx0, sx1, sy0, sy1, sz0, sz1
            i += 1
    if start < n and ts[n - 1] - ts[start] >= min_time:
        stays.append(emit(start, n))
    return stays


def stay_capable_literal(trace: MobilityTrace, params: ExtractionParams) -> list[bool]:
    """Per point, whether some window of the trace that holds it spans
    min_time and passes the walk's test on every pair: the squared chord
    between the two points' ``chord_xyz`` coordinates, newer minus older,
    added x, y then z, at most ``chord_m(max_distance)`` squared. Only
    such a point can lie in a stay. Brute force: from each first point,
    the window grows while every pair passes, and each window that spans
    min_time marks its points."""
    xyz = chord_xyz(trace.lat, trace.lon).tolist()
    ts = trace.t.tolist()
    chord = chord_m(params.max_distance)

    def fits(newer: int, older: int) -> bool:
        dx, dy, dz = (a - b for a, b in zip(xyz[newer], xyz[older]))
        return dx * dx + dy * dy + dz * dz <= chord * chord

    capable = [False] * len(ts)
    for first in range(len(ts)):
        for last in range(first, len(ts)):
            if not all(fits(last, j) for j in range(first, last)):
                break
            if ts[last] - ts[first] >= params.min_time:
                capable[first:last + 1] = [True] * (last + 1 - first)
    return capable


def dj_cluster_literal(stays: list[Stay], params: ExtractionParams) -> list[Poi]:
    """Word-for-word transcription of the density-join clustering."""
    merge = params.max_distance * params.merge_factor
    clusters: list[set[int]] = []
    for idx, stay in enumerate(stays):
        neighborhood = {
            j for j, other in enumerate(stays)
            if distance(other.centroid, stay.centroid) <= merge
        }
        if len(neighborhood) >= params.min_pts:
            for cluster in list(clusters):
                if neighborhood & cluster:
                    neighborhood |= cluster
                    clusters.remove(cluster)
            clusters.append(neighborhood)
    return [
        Poi(
            centroid=GeoPoint(
                mean_literal([stays[j].centroid.lat for j in sorted(c)]),
                mean_literal([stays[j].centroid.lon for j in sorted(c)]),
            ),
            support=len(c),
        )
        for c in clusters
    ]


def mean_literal(values) -> float:
    """The values added one by one, left to right, over their count."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def remap_literal(obf, real) -> list[tuple[int, float]]:
    """Per obfuscated POI, the index of the nearest real POI by the scalar
    distance, the earliest on ties, and that distance."""
    out = []
    for o in obf.pois:
        best_i = 0
        best_d = distance(o.centroid, real.pois[0].centroid)
        for i, r in enumerate(real.pois[1:], start=1):
            d = distance(o.centroid, r.centroid)
            if d < best_d:
                best_i, best_d = i, d
        out.append((best_i, best_d))
    return out


def poi_set_distance_literal(a, b) -> float:
    """Median of the symmetric nearest-neighbour distances by the scalar
    distance (always measured from a's POI to b's); infinite when either
    set is empty."""
    if len(a) == 0 or len(b) == 0:
        return math.inf
    values = []
    for p in a.pois:
        values.append(min(distance(p.centroid, q.centroid) for q in b.pois))
    for q in b.pois:
        values.append(min(distance(p.centroid, q.centroid) for p in a.pois))
    values.sort()
    m = len(values)
    if m % 2 == 1:
        return values[m // 2]
    return (values[m // 2 - 1] + values[m // 2]) / 2.0


def radius_cdf(level: PrivacyLevel, r: float) -> float:
    """P(noise radius <= r) = 1 - (1 + eps*r) * exp(-eps*r)."""
    if r < 0.0:
        raise ValueError(f"radius must be >= 0, got {r!r}")
    if level.epsilon == math.inf:
        return 1.0
    x = level.epsilon * r
    return 1.0 - (1.0 + x) * math.exp(-x)


def inverse_radius_cdf_bisect(level: PrivacyLevel, p: float, iterations: int = 200) -> float:
    """Quantile of the noise radius by pure bisection on the CDF."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must be in [0, 1), got {p!r}")
    if p == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while radius_cdf(level, hi) < p:
        hi *= 2.0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if radius_cdf(level, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(hi, 1.0):
            break
    return (lo + hi) / 2.0


def brute_force_top_k(features, c: GeoPoint, k: int):
    ranked = sorted(features, key=lambda f: (distance(c, f.point), f.id))
    return ranked[:k]


def brute_force_range(features, c: GeoPoint, radius_m: float, category=None):
    hits = [
        f for f in features
        if (category is None or f.category == category) and distance(c, f.point) <= radius_m
    ]
    return sorted(hits, key=lambda f: (distance(c, f.point), f.id))


def reidentification_rate_literal(real_sets: Mapping, obf_sets: Mapping) -> float:
    """Every non-empty anonymous set scored against every candidate with the
    scalar distance: median of the symmetric nearest-neighbour distances
    (infinite when the candidate has no POIs), linked to the lowest score,
    ties to the smallest user identifier. An empty anonymous set is a miss."""

    def link(anon) -> str:
        best_user = None
        best_d = math.inf
        for user in sorted(real_sets):
            d = poi_set_distance_literal(anon, real_sets[user])
            if best_user is None or d < best_d:
                best_user, best_d = user, d
        return best_user

    if not real_sets or not obf_sets:
        raise ValueError("re-identification needs non-empty inputs")
    if set(real_sets) != set(obf_sets):
        raise ValueError("real and obfuscated POI sets must cover the same users")
    hits = sum(1 for user, anon in obf_sets.items() if len(anon) and link(anon) == user)
    return hits / len(obf_sets)


def precision_trial_literal(c: GeoPoint, level, features, radius_m, alpha, rng, category=None):
    """One precision trial from two brute-force range queries: the
    enlarged one around the obfuscated query point, the honest one around
    c; returns (precision, retrieved count), (1.0, 0) when nothing is
    retrieved."""
    lat, lon = perturb(np.array([c.lat]), np.array([c.lon]), level, rng)
    z = GeoPoint(float(lat[0]), float(lon[0]))
    enlargement = inverse_radius_cdf(level, alpha)
    retrieved = brute_force_range(features, z, radius_m + enlargement, category)
    if not retrieved:
        return 1.0, 0
    real_ids = {f.id for f in brute_force_range(features, c, radius_m, category)}
    useless = sum(1 for f in retrieved if f.id not in real_ids)
    return 1.0 - useless / len(retrieved), len(retrieved)


def precision_summary_literal(dataset: Dataset, level, features, cfg, seed: int) -> tuple[float, int]:
    """``experiment.precision_summary`` as a loop of precision_trial_literal:
    each trial draws one uniform that picks a point of the users' traces
    (concatenated in sorted user order), then the trial draws its own
    noise from the same stream. Returns (mean precision, empty count)."""
    points = [loc.point for user in sorted(dataset.traces) for loc in dataset.traces[user].locations]
    rng = RandomSource(seed)
    values, empty = [], 0
    for _ in range(cfg.samples):
        c = points[int(float(rng.uniforms(1)[0]) * len(points))]
        value, retrieved = precision_trial_literal(c, level, features, cfg.radius_m, cfg.alpha, rng, cfg.category)
        values.append(value)
        empty += retrieved == 0
    return mean_literal(values), empty


def extract_pois_literal(trace: MobilityTrace, params: ExtractionParams) -> PoiSet:
    """The literal walk, then the literal clustering, as a PoiSet."""
    return PoiSet(trace.user, tuple(dj_cluster_literal(extract_stays_literal(trace, params), params)))


def run_experiment_literal(dataset: Dataset, config, store) -> EvaluationReport:
    """``experiment.run_experiment`` composed from the stage oracles in
    the naive order: per level, every threshold, then every run, then
    every eligible user, each extracted afresh by the literal walk and
    clustering; the chosen threshold is found by a plain scan, and the
    chosen POI sets are extracted again for scoring. Only the noise
    (``obfuscate_trace`` on the same derived seeds), the dataset digest and
    the report types come from the package."""
    params = config.extraction
    features = list(store)
    truth = {u: extract_pois_literal(dataset.traces[u], params) for u in sorted(dataset.traces)}
    eligible = [u for u in sorted(truth) if len(truth[u])]
    if not eligible:
        raise ValueError("empty ground truth: no user has POIs")
    precision_seed = derive_seed(config.master_seed, "precision")
    user_rows, pair_rows, recall_rows, reident_rows, precision_rows, sweeps, levels, per_level = (
        [], [], [], [], [], [], [], []
    )
    for level in config.levels:
        runs = []
        for run in range(config.runs):
            rseed = derive_seed(config.master_seed, f"run:{run}")
            runs.append({
                u: obfuscate_trace(dataset.traces[u], level, RandomSource(derive_seed(rseed, f"user:{u}")))
                for u in sorted(dataset.traces)
            })

        def observe(threshold):
            attack = replace(params, max_distance=float(threshold))
            return [{u: extract_pois_literal(traces[u], attack) for u in eligible} for traces in runs]

        rows = []
        for threshold in config.sweep.thresholds():
            run_means = [
                mean_literal([len({i for i, _ in remap_literal(sets[u], truth[u])}) / len(truth[u]) for u in eligible])
                for sets in observe(threshold)
            ]
            rows.append((threshold, mean_literal(run_means)))
        optimal = None
        for threshold, mean in rows:
            if mean > config.sweep.recall_target:
                optimal = threshold
                break
        best, best_mean = rows[0]
        for threshold, mean in rows:
            if mean > best_mean:
                best, best_mean = threshold, mean
        chosen = best if optimal is None else optimal
        sweeps.append(SweepResult(level.epsilon, tuple(rows), optimal, best))
        levels.append({
            "epsilon": json_number(level.epsilon),
            "optimal_threshold_m": optimal,
            "best_threshold_m": best,
            "reached": optimal is not None,
        })

        run_recalls, run_rates = [], []
        for run, sets in enumerate(observe(chosen)):
            recalls = []
            for u in eligible:
                pairs = remap_literal(sets[u], truth[u])
                recalls.append(len({i for i, _ in pairs}) / len(truth[u]))
                user_rows.append(UserRecallRow(u, level.epsilon, run, recalls[-1], len(truth[u]), len(sets[u])))
                for o, (i, d) in zip(sets[u].pois, pairs):
                    around_obf = {f.id for f in brute_force_top_k(features, o.centroid, DEFAULT_TOP_K)}
                    around_real = [f.id for f in brute_force_top_k(features, truth[u].pois[i].centroid, DEFAULT_TOP_K)]
                    overlap = sum(1 for f in around_real if f in around_obf)
                    pair_rows.append(PairRow(u, level.epsilon, run, d, 1.0 - overlap / len(around_real)))
            run_recalls.append(mean_literal(recalls))
            run_rates.append(reidentification_rate_literal({u: truth[u] for u in eligible}, sets))
        recall_rows.append(LevelRecallRow(level.epsilon, chosen, mean_literal(run_recalls), len(eligible), config.runs))
        reident_rows.append(ReidentRow(level.epsilon, mean_literal(run_rates), len(eligible)))
        per_level.append({
            "epsilon": json_number(level.epsilon),
            "threshold_m": chosen,
            "runs": config.runs,
            "n_users": len(eligible),
            "excluded_users": [u for u in sorted(truth) if not len(truth[u])],
        })
        mean, empty = precision_summary_literal(dataset, level, features, config.precision, precision_seed)
        cfg = config.precision
        precision_rows.append(PrecisionRow(level.epsilon, cfg.alpha, cfg.radius_m, mean, cfg.samples, empty))
    return EvaluationReport(
        user_rows=tuple(user_rows),
        pair_rows=tuple(pair_rows),
        recall_rows=tuple(recall_rows),
        reident_rows=tuple(reident_rows),
        precision_rows=tuple(precision_rows),
        sweeps=tuple(sweeps),
        metadata={
            "master_seed": config.master_seed,
            "runs": config.runs,
            "dataset_digest": dataset_digest(dataset),
            "extraction": asdict(params),
            "sweep": asdict(config.sweep),
            "precision": asdict(config.precision),
            "levels": levels,
            "per_level": per_level,
        },
    )


def parse_canonical_literal(lines: Iterable[str]) -> Dataset:
    """Line-by-line canonical CSV reader: every record is validated as a
    TimestampedLocation/GeoPoint object, then each user is sorted by time
    (ties keep their input order). Warns and rejects with the same
    messages as ``ingest.parse_canonical``."""
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise ValueError("missing header: empty input") from None
    if header.strip() != CANONICAL_HEADER:
        raise ValueError(f"missing or wrong header, expected {CANONICAL_HEADER!r}")

    by_user: dict[str, list[TimestampedLocation]] = defaultdict(list)
    total = 0
    malformed = 0
    for line in it:
        line = line.strip()
        if not line:
            continue
        total += 1
        parts = line.split(",")
        if len(parts) != 4:
            malformed += 1
            continue
        try:
            loc = TimestampedLocation(
                int(parts[1]), GeoPoint(float(parts[2]), float(parts[3]))
            )
        except ValueError:
            malformed += 1
            continue
        if loc.t >= 2**63:  # a trace holds int64 timestamps
            malformed += 1
            continue
        by_user[parts[0]].append(loc)

    if malformed:
        logger.warning("canonical input: %d of %d lines malformed", malformed, total)
        if malformed / total > MALFORMED_TOLERANCE:
            raise ValueError(f"corrupt input: {malformed} of {total} lines malformed")
    return Dataset(
        {user: MobilityTrace(user, sorted(locs, key=lambda loc: loc.t)) for user, locs in by_user.items()}
    )
