"""Independent reference implementations used as test oracles.

These deliberately stay naive and quadratic, sharing no code with the
production paths they check (beyond the scalar distance function, which is
itself pinned by direct arithmetic tests). The parser oracle validates each
record as TimestampedLocation/GeoPoint objects and shares only the CSV
header, the malformed-line tolerance and the trace model with
``ingest.parse_canonical``.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from typing import Iterable

from geopriv.core import (
    Dataset,
    GeoPoint,
    MobilityTrace,
    Poi,
    TimestampedLocation,
    centroid,
    distance,
)
from geopriv.ingest import CANONICAL_HEADER, MALFORMED_TOLERANCE
from geopriv.mechanism import PrivacyLevel, radius_cdf
from geopriv.poi import ExtractionParams, Stay

logger = logging.getLogger(__name__)


def extract_stays_literal(trace: MobilityTrace, params: ExtractionParams) -> list[Stay]:
    """Word-for-word transcription of the windowed stay extraction."""
    points = list(trace.locations)
    stays: list[Stay] = []
    candidate: list = []

    def emit(cand) -> Stay:
        return Stay(
            centroid=centroid([p.point for p in cand]),
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
        Poi(centroid=centroid([stays[j].centroid for j in sorted(c)]), support=len(c))
        for c in clusters
    ]


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
        by_user[parts[0]].append(loc)

    if malformed:
        logger.warning("canonical input: %d of %d lines malformed", malformed, total)
        if malformed / total > MALFORMED_TOLERANCE:
            raise ValueError(f"corrupt input: {malformed} of {total} lines malformed")
    return Dataset(
        {user: MobilityTrace.from_unsorted(user, locs) for user, locs in by_user.items()}
    )
