"""Map features for exact nearest-neighbour and range queries.

The store keeps the 3-D chord coordinates of every feature in one array,
projected by ``core.chord_xyz`` like every stay walk and cluster test.
Queries are scanned in blocks: one (queries x features) product gives
every dot of a block, and a feature is kept for a query when its chord is
within the cutoff plus a fixed slack. A range query accepts the features
more than the slack inside the cutoff as they are and re-checks only the
band between with the true great-circle distance. A nearest-k query
takes the k-th best chord per query as its cutoff; when nothing but the
k best is kept, they are the answer, and otherwise the kept features are
ranked by that distance. Chord length orders pairs exactly like arc
length, and the slack is well above the float error of the scan, so
results are identical to a brute-force scan anywhere on the sphere. Ties
on distance are broken by ascending feature id.

The store is immutable after build; concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_CELLS, EARTH_RADIUS_M, GeoPoint, chord_m, chord_xyz, distance

# Default k for neighbourhood similarity queries.
DEFAULT_TOP_K = 15

# Slack on every chord cutoff, in metres. It lowers the cut on R cos(angle)
# by at least 1/(2R) ~ 7.8e-8 m, over ten times the float error of the scan
# (at most 3.1e-9 m against long-double arithmetic on 200k random
# near-coincident pairs; the blocked (queries x features) product stays
# within 1.4e-9 m on 2M pairs), so no feature within the cutoff is missed.
#
# Raising the cut by the slack instead, to chord rho - 1 for a radius whose
# chord is rho >= 1 m, accepts only features within that radius. The
# scan's error adds at most 2R * 3.1e-9 < 0.04 m^2 to a squared chord, so
# an accepted feature's true chord is below rho - 1 + 0.2 m, and
# its s = sin(angle / 2) is below rho / 2R by more than 6e-8. core.distance
# evaluates 2R asin(s) with its s within 1e-14 of the exact one (see
# there), and asin climbs at least as fast as s, so the distance it
# returns is below the radius by more than 0.7 m.
_CHORD_SLACK_M = 1.0


def _cut(reach: float) -> float:
    """The least R cos(angle) of a point within chord ``reach`` of another
    on the sphere (the squared chord is 2R(R - R cos(angle)))."""
    return EARTH_RADIUS_M - reach * reach / (2.0 * EARTH_RADIUS_M)


@dataclass(frozen=True, slots=True)
class Feature:
    """A named map feature (restaurant, shop, ...) at a fixed point."""

    id: str
    point: GeoPoint
    category: str
    name: str = ""


class FeatureStore:
    """Immutable feature collection with exact chord-scan queries."""

    def __init__(self, features: list[Feature]):
        self._features = features
        self._xyz = chord_xyz([f.point.lat for f in features], [f.point.lon for f in features])
        self._categories = np.array([f.category for f in features], dtype=str)

    @classmethod
    def build(cls, features) -> "FeatureStore":
        """Index a feature sequence; duplicate ids are rejected."""
        feats = list(features)
        seen: set[str] = set()
        for f in feats:
            if f.id in seen:
                raise ValueError(f"duplicate feature id: {f.id!r}")
            seen.add(f.id)
        return cls(feats)

    def __len__(self) -> int:
        return len(self._features)

    def __iter__(self):
        return iter(self._features)

    def _blocks(self, n_queries: int):
        """Slices of ``n_queries`` query rows, each scanned as one block of
        at most ``_BLOCK_CELLS`` (query, feature) cells."""
        step = max(1, _BLOCK_CELLS // max(len(self._features), 1))
        return (slice(start, start + step) for start in range(0, n_queries, step))

    def _dots(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """R cos(angle) between each query point (rows) and every feature
        (columns); for points on the sphere the squared chord is 2R(R - dot)."""
        return (chord_xyz(lats, lons) / EARTH_RADIUS_M) @ self._xyz.T

    def nearest(self, lats, lons, k: int) -> np.ndarray:
        """Per query point, the indices of the k features nearest to it,
        ties by id: a (queries x min(k, n)) array, each row a set in no
        particular order.

        A block of queries is scanned as one product. Per row, the k
        largest dots are partitioned out, and every feature within the
        k-th best chord plus the slack is counted; when those are exactly
        the k partitioned ones, they are the answer, and only the other
        rows rank their features by (distance, id).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        lats, lons = np.asarray(lats, dtype=float), np.asarray(lons, dtype=float)
        n = len(self._features)
        m = min(k, n)
        out = np.empty((len(lats), m), dtype=np.intp)
        if m == 0:
            return out
        at = n - m
        for rows in self._blocks(len(lats)):
            dots = self._dots(lats[rows], lons[rows])
            # the k-th largest dot is the k-th smallest chord
            part = np.argpartition(dots, at, axis=1)[:, at:]
            kth = np.take_along_axis(dots, part[:, :1], axis=1)
            chord = np.sqrt(np.maximum(2.0 * EARTH_RADIUS_M * (EARTH_RADIUS_M - kth), 0.0))
            near = dots >= _cut(chord + _CHORD_SLACK_M)
            out[rows] = part
            for r in np.flatnonzero(near.sum(axis=1) > m).tolist():
                q = rows.start + r
                c = GeoPoint(float(lats[q]), float(lons[q]))
                ranked = sorted(np.flatnonzero(near[r]).tolist(),
                                key=lambda i: (distance(c, self._features[i].point), self._features[i].id))
                out[q] = ranked[:m]
        return out

    def top_k(self, c: GeoPoint, k: int) -> list[Feature]:
        """The k features nearest to c, distance ascending, ties by id.

        Returns everything when the store holds fewer than k features.
        """
        near = [self._features[i] for i in self.nearest([c.lat], [c.lon], k)[0].tolist()]
        return sorted(near, key=lambda f: (distance(c, f.point), f.id))

    def _within(self, lats: np.ndarray, lons: np.ndarray, radius_m: float,
                category: str | None = None, among: np.ndarray | None = None) -> np.ndarray:
        """A (queries x features) mask: the features within the closed
        ball of radius_m around each query point, optionally of one
        category and only among those ``among`` marks.

        Only the features between the cuts for chord_m(radius_m) plus and
        minus the slack are re-checked with ``distance``; those past the
        inner cut are within the radius (see _CHORD_SLACK_M).
        """
        dots = self._dots(lats, lons)
        chord = chord_m(radius_m)
        near = dots >= _cut(chord + _CHORD_SLACK_M)
        if category is not None:
            near &= self._categories == category
        if among is not None:
            near &= among
        if chord >= _CHORD_SLACK_M:
            inside = near & (dots >= _cut(chord - _CHORD_SLACK_M))
        else:
            inside = np.zeros_like(near)
        n = len(self._features)
        for cell in np.flatnonzero(near ^ inside).tolist():
            r, j = divmod(cell, n)
            inside[r, j] = distance(GeoPoint(float(lats[r]), float(lons[r])), self._features[j].point) <= radius_m
        return inside

    def range_query(self, c: GeoPoint, radius_m: float, category: str | None = None) -> list[Feature]:
        """All features within the closed ball of radius_m around c,
        optionally restricted to one category; ordered by (distance, id)."""
        if radius_m < 0.0:
            raise ValueError(f"radius must be >= 0, got {radius_m!r}")
        inside = self._within(np.array([c.lat]), np.array([c.lon]), radius_m, category)[0]
        hits = [self._features[i] for i in np.flatnonzero(inside).tolist()]
        return sorted(hits, key=lambda f: (distance(c, f.point), f.id))


# Categories of the synthetic features, drawn uniformly.
_SYNTHETIC_CATEGORIES = ("restaurant", "shop", "cafe", "park")


def generate_synthetic_features(
    seed: int, bounds: tuple[float, float, float, float], density_per_km2: float
) -> list[Feature]:
    """Uniform random features over a bounding box, Poisson-sized.

    ``bounds`` is (lat_min, lon_min, lat_max, lon_max). The expected count
    is density * area; the draw is deterministic for a given seed. A
    desk-scale stand-in for a real map extract.
    """
    lat_min, lon_min, lat_max, lon_max = bounds
    if lat_max < lat_min or lon_max < lon_min:
        raise ValueError("bounds must be (lat_min, lon_min, lat_max, lon_max)")
    if density_per_km2 < 0.0:
        raise ValueError("density must be >= 0")
    if density_per_km2 == 0.0:
        return []

    mid_phi = math.radians((lat_min + lat_max) / 2.0)
    height_km = (lat_max - lat_min) * 111.32
    width_km = (lon_max - lon_min) * 111.32 * math.cos(mid_phi)
    area_km2 = height_km * width_km

    gen = np.random.Generator(np.random.PCG64(seed))
    count = int(gen.poisson(density_per_km2 * area_km2))
    lats = gen.uniform(lat_min, lat_max, count)
    lons = gen.uniform(lon_min, lon_max, count)
    cats = gen.integers(0, len(_SYNTHETIC_CATEGORIES), count)
    return [
        Feature(
            id=f"syn{i:06d}",
            point=GeoPoint(float(lats[i]), float(lons[i])),
            category=_SYNTHETIC_CATEGORIES[int(cats[i])],
            name=f"{_SYNTHETIC_CATEGORIES[int(cats[i])]} {i}",
        )
        for i in range(count)
    ]
