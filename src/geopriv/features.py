"""Map features for exact nearest-neighbour and range queries.

The store keeps the 3-D chord coordinates of every feature in one array,
projected by ``core.chord_xyz`` like every stay walk and cluster test, in
latitude order (a stable sort, with a map back to the input order, which
``__iter__`` and every returned index keep). A scan sorts its queries by
latitude and reads, per block of queries, only the contiguous slice of
features whose latitude lies within the block's band: the meridian arc
is the shortest path between two parallels, so no feature outside the
band can be within the cutoff (proof at ``_BAND_SLACK_M``). One
(queries x slice) product gives every dot of a block, at most
``_BLOCK_CELLS`` cells, and a feature is kept for a query when its chord
is within the cutoff plus a fixed slack. A range query takes its band from
its radius; it accepts the features more than the slack inside the cutoff
as they are and re-checks only the band between with the true
great-circle distance. A nearest-k query starts from the band that holds
about k features across the store (its latitude span times sqrt(k / n))
and takes the k-th best chord of its slice as its cutoff. A row whose
cutoff plus the band's margin reaches past its slice is scanned again in a
band four times as wide; a band that covers the whole store always fits.
When nothing but the k best is kept, they are the answer; otherwise the
kept features past the inner cut are among the k best as they are, and
only those between the cuts are ranked by that distance. Chord length
orders pairs exactly like arc length, and the slack is well above the
float error of the scan, so results are identical to a brute-force scan
anywhere on the sphere. Ties on distance are broken by ascending feature
id.

The store is immutable after build; concurrent reads are safe.
"""

from __future__ import annotations

import bisect
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
#
# The same inner cut serves a nearest-k row that keeps more than k
# features: with c >= 1 m its k-th best chord, the features past the cut
# for c - 1 are among the k best, so only those between the cuts are
# ranked. Such a feature f has a true chord below c - 0.75 m: the cut for
# c - 1 rounds by under 5e-10 m, so with the scan's error f's true squared
# chord is below (c - 1)^2 + 0.05 m^2. A feature g that ranks at or
# before f has distance(g) <= distance(f); both s are within 1e-14 of the
# exact ones and asin's rounding adds under 1e-15, so g's true chord is
# below f's plus 2R * 2.1e-14 < 3e-7 m. g is then in the row's slice
# (_BAND_SLACK_M), and its computed squared chord is below
# (c - 0.75)^2 + 0.04 < c^2 - 0.85 m^2, so its dot exceeds cut(c) by more
# than 0.85 / 2R. The k-th dot is within 0.16 / 2R of cut(c), since c is
# its chord rounded (relative error under 1e-15 on a squared chord of at
# most 4R^2). So g's dot exceeds the k-th dot, which at most k - 1 dots
# do: f and everything ranked before it are fewer than k features.
_CHORD_SLACK_M = 1.0

# Margin of the latitude band, in metres of chord. A scan with cutoff chord
# c reads only the features whose latitude is within _half_band(c) =
# 2 asin((c + _BAND_SLACK_M) / 2R) of the query's. Proof that the band
# holds every feature the scan can keep:
# - The meridian arc R |dphi| is the shortest path between two parallels,
#   so two points whose latitudes differ by dphi are at least that arc
#   apart, and their chord is at least 2R sin(|dphi| / 2): a feature
#   outside the band is farther than chord c + _BAND_SLACK_M.
# - The scan computes squared chords within 0.04 m^2 and its cuts within
#   5e-10 m (see _CHORD_SLACK_M), so a kept feature, whose dot clears the
#   cut for c + 1, has a true chord below c + 1.1 m, and the computed
#   chord of any feature is within 0.25 m of its true one.
# - For a range query, c is the radius's chord: the band holds every
#   feature its near test, and so its inside test, keeps.
# - For a nearest-k row, c is the k-th best computed chord of its slice.
#   The slice is part of the store, so this k-th chord is never better
#   than the store's: the store's k best all have true chords below
#   c + 0.25 m, and the full scan's cutoff is below c + 0.5 m. A row fits
#   when no feature outside its slice lies within _half_band(c) of its
#   latitude; then the slice holds every feature within chord c + 1.9 m,
#   so it holds the store's k best and every feature that the full
#   scan's near and inside tests keep, and the row's answer is the full
#   scan's.
# - Each bound above leaves at least 0.1 m of chord to the band's edge,
#   which is at least 0.1 / R radians (9e-7 degrees) of latitude, since
#   2 asin(x / 2R) climbs at least as fast as x / R. The asin, the
#   radian-to-degree conversion and the query's latitude plus or minus the
#   band each round by a few ulps of at most 180 degrees, under 1e-13
#   degrees; the scan's error above is measured from the degree
#   coordinates, so it covers their projection.
_BAND_SLACK_M = 2.0


def _cut(reach: float) -> float:
    """The least R cos(angle) of a point within chord ``reach`` of another
    on the sphere (the squared chord is 2R(R - R cos(angle)))."""
    return EARTH_RADIUS_M - reach * reach / (2.0 * EARTH_RADIUS_M)


def _inner_cut(chord: float) -> float:
    """The cut past which a feature is certainly within ``chord`` (see
    _CHORD_SLACK_M); none for a chord below the slack."""
    return _cut(chord - _CHORD_SLACK_M) if chord >= _CHORD_SLACK_M else math.inf


def _half_band(chord):
    """Degrees of latitude within which lies every feature that a scan
    with cutoff ``chord`` (metres, scalar or array) can keep (see
    _BAND_SLACK_M); 180 once the band spans the sphere."""
    return np.degrees(2.0 * np.arcsin(np.minimum((chord + _BAND_SLACK_M) / (2.0 * EARTH_RADIUS_M), 1.0)))


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
        lats = np.array([f.point.lat for f in features], dtype=float)
        xyz = chord_xyz(lats, [f.point.lon for f in features])
        # sorted position -> input index
        self._order = np.argsort(lats, kind="stable")
        self._lat = lats[self._order]
        self._xyz = xyz[self._order]
        self._categories = np.array([f.category for f in features], dtype=str)[self._order]

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

    def _blocks(self, lats: np.ndarray, half: float):
        """(rows, columns) slices for query latitudes sorted ascending: each
        block of rows with the slice of latitude-sorted features within
        ``half`` degrees of one of its rows, at most ``_BLOCK_CELLS``
        (query, feature) cells unless it is a single row."""
        lo = np.searchsorted(self._lat, lats - half, "left").tolist()
        hi = np.searchsorted(self._lat, lats + half, "right").tolist()
        start = 0
        while start < len(lo):
            # cells grow with the block's last row, since both bounds do
            fits = bisect.bisect_right(range(start + 1, len(lo) + 1), _BLOCK_CELLS,
                                       key=lambda stop: (stop - start) * (hi[stop - 1] - lo[start]))
            stop = start + max(fits, 1)
            yield slice(start, stop), slice(lo[start], hi[stop - 1])
            start = stop

    def _dots(self, lats: np.ndarray, lons: np.ndarray, cols: slice) -> np.ndarray:
        """R cos(angle) between each query point (rows) and each feature of
        the sorted slice ``cols`` (columns); for points on the sphere the
        squared chord is 2R(R - dot)."""
        return (chord_xyz(lats, lons) / EARTH_RADIUS_M) @ self._xyz[cols].T

    def nearest(self, lats, lons, k: int) -> np.ndarray:
        """Per query point, the indices of the k features nearest to it,
        ties by id: a (queries x min(k, n)) array, each row a set in no
        particular order.

        Queries are taken in latitude order, a block at a time, each
        against its latitude band. Per row, the k largest dots are
        partitioned out; a row whose k-th best chord plus the band's margin
        reaches past its slice is scanned again in a band four times as
        wide. Every feature within that chord plus the slack is counted;
        when those are exactly the k partitioned ones, they are the answer,
        and the other rows rank only the features between the inner and
        outer cuts by (distance, id).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        lats, lons = np.asarray(lats, dtype=float), np.asarray(lons, dtype=float)
        if not np.all(np.abs(lats) <= 90.0):
            raise ValueError("query latitudes must lie in [-90, 90]")
        n = len(self._features)
        m = min(k, n)
        out = np.empty((len(lats), m), dtype=np.intp)
        if m == 0:
            return out
        pending = np.argsort(lats, kind="stable")
        half = max(float(self._lat[-1] - self._lat[0]) * math.sqrt(m / n), float(_half_band(0.0)))
        while len(pending):
            wider = []
            for rows, cols in self._blocks(lats[pending], half):
                q = pending[rows]
                width = cols.stop - cols.start
                if width < m:
                    wider.append(q)
                    continue
                dots = self._dots(lats[q], lons[q], cols)
                # the k-th largest dot is the k-th smallest chord
                part = np.argpartition(dots, width - m, axis=1)[:, width - m:]
                kth = np.take_along_axis(dots, part[:, :1], axis=1)
                chord = np.sqrt(np.maximum(2.0 * EARTH_RADIUS_M * (EARTH_RADIUS_M - kth), 0.0))
                reach = _half_band(chord[:, 0])
                below = self._lat[cols.start - 1] if cols.start else -math.inf
                above = self._lat[cols.stop] if cols.stop < n else math.inf
                # no feature outside the slice lies within the row's band
                fit = ~((lats[q] - reach <= below) | (lats[q] + reach >= above))
                wider.append(q[~fit])
                out[q[fit]] = self._order[cols.start + part[fit]]
                near = dots >= _cut(chord + _CHORD_SLACK_M)
                for r in np.flatnonzero(fit & (near.sum(axis=1) > m)).tolist():
                    inner = dots[r] >= _inner_cut(float(chord[r, 0]))
                    c = GeoPoint(float(lats[q[r]]), float(lons[q[r]]))
                    ranked = sorted(self._order[cols.start + np.flatnonzero(near[r] & ~inner)].tolist(),
                                    key=lambda i: (distance(c, self._features[i].point), self._features[i].id))
                    sure = self._order[cols.start + np.flatnonzero(inner)].tolist()
                    out[q[r]] = sure + ranked[:m - len(sure)]
            pending = np.concatenate(wider)
            half *= 4.0
        return out

    def top_k(self, c: GeoPoint, k: int) -> list[Feature]:
        """The k features nearest to c, distance ascending, ties by id.

        Returns everything when the store holds fewer than k features.
        """
        near = [self._features[i] for i in self.nearest([c.lat], [c.lon], k)[0].tolist()]
        return sorted(near, key=lambda f: (distance(c, f.point), f.id))

    def _within(self, lats: np.ndarray, lons: np.ndarray, radius_m: float, cols: slice,
                category: str | None = None, among: np.ndarray | None = None) -> np.ndarray:
        """A (queries x cols) mask over the sorted slice ``cols``: the
        features within the closed ball of radius_m around each query
        point, optionally of one category and only among those ``among``
        marks. The slice must hold the queries' band,
        ``_half_band(chord_m(radius_m))`` (see ``_blocks``).

        Only the features between the cuts for chord_m(radius_m) plus and
        minus the slack are re-checked with ``distance``; those past the
        inner cut are within the radius (see _CHORD_SLACK_M).
        """
        dots = self._dots(lats, lons, cols)
        chord = chord_m(radius_m)
        near = dots >= _cut(chord + _CHORD_SLACK_M)
        if category is not None:
            near &= self._categories[cols] == category
        if among is not None:
            near &= among
        inside = near & (dots >= _inner_cut(chord))
        for cell in np.flatnonzero(near ^ inside).tolist():
            r, j = divmod(cell, near.shape[1])
            f = self._features[self._order[cols.start + j]]
            inside[r, j] = distance(GeoPoint(float(lats[r]), float(lons[r])), f.point) <= radius_m
        return inside

    def range_query(self, c: GeoPoint, radius_m: float, category: str | None = None) -> list[Feature]:
        """All features within the closed ball of radius_m around c,
        optionally restricted to one category; ordered by (distance, id)."""
        if radius_m < 0.0:
            raise ValueError(f"radius must be >= 0, got {radius_m!r}")
        lat, lon = np.array([c.lat]), np.array([c.lon])
        (_, cols), = self._blocks(lat, _half_band(chord_m(radius_m)))
        inside = self._within(lat, lon, radius_m, cols, category)[0]
        hits = [self._features[i] for i in self._order[cols.start + np.flatnonzero(inside)].tolist()]
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
