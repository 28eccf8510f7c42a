"""Geographic primitives and the trace/POI data model shared by every stage.

Coordinates are WGS84 decimal degrees; all distances are metres of
great-circle arc on a sphere of radius 6 371 000 m. Everything here is an
immutable value or a pure function, so instances can be shared freely
between concurrent workers.

A trace is columnar: :class:`MobilityTrace` holds one user's timestamps
(int64 UNIX seconds, so at most 2**63 - 1), latitudes and longitudes
(float64 degrees) as three read-only arrays, validated once, vectorised,
by :meth:`MobilityTrace.from_columns`. Parsing, writing, filtering,
obfuscation and extraction work on those columns and build no object per
point. :class:`TimestampedLocation` and :class:`GeoPoint` remain the
object API: ``MobilityTrace(user, locations)`` converts such objects into
columns, and ``trace.locations`` is a view of the columns as objects,
built on first access and cached.

The model is deliberately city-scale: centroids are arithmetic means in
degree space and local offsets use an equirectangular approximation, both
of which are accurate well below the 100 m granularity the evaluation
metrics operate at, but neither is meaningful across the antimeridian or
near the poles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# Metres per degree of latitude for local tangent-plane offsets.
METERS_PER_DEGREE = 111_320.0

# perturb's equirectangular step is undefined this close to the poles (cos(lat) degenerates).
MAX_OFFSET_LAT = 89.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat!r}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon!r}")


@dataclass(frozen=True, slots=True)
class TimestampedLocation:
    """A location observed at UNIX epoch second ``t`` (UTC)."""

    t: int
    point: GeoPoint

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"timestamp before epoch: {self.t!r}")


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``. An array that already
    is one and owns its memory is shared; anything else is copied, so no
    caller can change a trace's columns afterwards."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and not values.flags.writeable
        and values.base is None
    ):
        return values
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class MobilityTrace:
    """One user's time-ordered sequence of observed locations, held as
    three read-only columns: ``t`` (int64 UNIX seconds), ``lat`` and
    ``lon`` (float64 degrees).

    Timestamps are non-negative and non-decreasing; ties keep their
    original relative order. :meth:`from_columns` builds and validates
    every trace; ``MobilityTrace(user, locations)`` takes
    TimestampedLocation objects and converts them to columns. Two traces
    are equal when their users and columns are.
    """

    __slots__ = ("user", "t", "lat", "lon", "_locations")

    def __init__(self, user: str, locations: Iterable[TimestampedLocation]) -> None:
        locs = tuple(locations)
        self._set_columns(
            user,
            [loc.t for loc in locs],
            [loc.point.lat for loc in locs],
            [loc.point.lon for loc in locs],
        )
        object.__setattr__(self, "_locations", locs)

    @classmethod
    def from_columns(cls, user: str, t, lat, lon) -> "MobilityTrace":
        """A trace from its timestamp, latitude and longitude columns
        (sequences or arrays), checked once for the whole trace: equal
        lengths, ``t >= 0`` and non-decreasing, latitudes in [-90, 90] and
        longitudes in [-180, 180] (NaN fails both)."""
        trace = cls.__new__(cls)
        trace._set_columns(user, t, lat, lon)
        return trace

    def _set_columns(self, user: str, t, lat, lon) -> None:
        try:
            t = _column(t, np.int64)
        except OverflowError:
            raise ValueError(f"trace for {user!r}: timestamp beyond int64") from None
        lat = _column(lat, np.float64)
        lon = _column(lon, np.float64)
        if not (t.ndim == lat.ndim == lon.ndim == 1 and len(t) == len(lat) == len(lon)):
            raise ValueError(f"trace for {user!r}: columns must be 1-D and of equal length")
        if len(t):
            if np.any(t[1:] < t[:-1]):
                raise ValueError(f"trace for {user!r} is not sorted by time")
            if t[0] < 0:
                raise ValueError(f"trace for {user!r}: timestamp before epoch: {int(t[0])!r}")
            for name, column, limit in (("latitude", lat, 90.0), ("longitude", lon, 180.0)):
                bad = ~((column >= -limit) & (column <= limit))  # NaN is bad too
                if bad.any():
                    value = float(column[bad][0])
                    raise ValueError(f"trace for {user!r}: {name} out of range: {value!r}")
        for name, value in (("user", user), ("t", t), ("lat", lat), ("lon", lon), ("_locations", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"MobilityTrace is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (MobilityTrace.from_columns, (self.user, self.t, self.lat, self.lon))

    @property
    def locations(self) -> tuple[TimestampedLocation, ...]:
        """The trace as TimestampedLocation objects, built on first access."""
        if self._locations is None:
            object.__setattr__(self, "_locations", tuple(
                TimestampedLocation(t, GeoPoint(lat, lon))
                for t, lat, lon in zip(self.t.tolist(), self.lat.tolist(), self.lon.tolist())
            ))
        return self._locations

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MobilityTrace):
            return NotImplemented
        return (
            self.user == other.user
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.lat, other.lat)
            and np.array_equal(self.lon, other.lon)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MobilityTrace.from_columns({self.user!r}, {self.t.tolist()!r}, "
            f"{self.lat.tolist()!r}, {self.lon.tolist()!r})"
        )


@dataclass(frozen=True)
class Dataset:
    """Mobility traces keyed by unique user identifier."""

    traces: dict[str, MobilityTrace]

    def __post_init__(self) -> None:
        for user, trace in self.traces.items():
            if trace.user != user:
                raise ValueError(f"trace user {trace.user!r} does not match key {user!r}")

    def users(self) -> list[str]:
        """User identifiers in deterministic (sorted) order."""
        return sorted(self.traces)

    def total_locations(self) -> int:
        return sum(len(t) for t in self.traces.values())


@dataclass(frozen=True, slots=True)
class Poi:
    """Centroid of an area a user visits frequently, with the number of
    merged stays as its support."""

    centroid: GeoPoint
    support: int

    def __post_init__(self) -> None:
        if self.support < 1:
            raise ValueError(f"POI support must be >= 1, got {self.support!r}")


@dataclass(frozen=True)
class PoiSet:
    """A user's POIs in a stable deterministic order (lat, lon, support)."""

    user: str
    pois: tuple[Poi, ...]

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.pois, key=lambda p: (p.centroid.lat, p.centroid.lon, p.support))
        )
        object.__setattr__(self, "pois", ordered)

    def __len__(self) -> int:
        return len(self.pois)

    @cached_property
    def xyz(self) -> np.ndarray:
        """The chord coordinates of the POI centroids, one row per POI in
        the set's order, computed on first use and read-only."""
        xyz = chord_xyz([p.centroid.lat for p in self.pois], [p.centroid.lon for p in self.pois])
        xyz.flags.writeable = False
        return xyz


# Accuracy that the chord bands of features and metrics rest on: both this
# haversine's sqrt(h) and a chord of chord_xyz coordinates divided by 2R
# give s = sin(angle / 2) within 1e-14 of the exact value. Each is about 30
# roundings of at most 2**-53 relative on terms of size <= 1, and the
# square root does not amplify them, since every error term of h is a
# multiple of h or of sqrt(h). Against long-double arithmetic on 1.4M
# random pairs (global, near-coincident, near-antipodal, polar, across the
# antimeridian) the largest error was 4.6e-16.
def distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in metres (haversine on the mean-radius sphere)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    if h > 1.0:
        h = 1.0
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def chord_m(arc_m: float) -> float:
    """Straight-line length through the sphere between two points arc_m
    metres apart along the great circle; capped at the diameter.

    Chord length is monotone in arc length, so comparing chords of 3-D
    coordinates orders point pairs exactly like ``distance``.
    """
    return 2.0 * EARTH_RADIUS_M * math.sin(min(arc_m / (2.0 * EARTH_RADIUS_M), math.pi / 2.0))


# Every chord matrix of the package (feature queries, clustering, the
# linking attack) is built in blocks of at most this many cells: 512 KB
# per float64 temporary, 9 queries against 6,810 features. Blocks of 2 MB
# were no faster and raised a study's peak memory by a fifth. Each module
# reads it under its own name, so a test can shrink one module's blocks.
_BLOCK_CELLS = 1 << 16


def chord_xyz(lats, lons) -> np.ndarray:
    """Earth-centred 3-D coordinates in metres, one ``(x, y, z)`` row per
    point: the one chord projection that every walk, cluster and feature
    query compares (squared chord against ``chord_m(arc) ** 2``)."""
    phi = np.radians(np.asarray(lats, dtype=float))
    lam = np.radians(np.asarray(lons, dtype=float))
    cp = np.cos(phi) * EARTH_RADIUS_M
    return np.column_stack((cp * np.cos(lam), cp * np.sin(lam), np.sin(phi) * EARTH_RADIUS_M))


def sequential_sum(values: Iterable[float]) -> float:
    """The floats added left to right, each addition rounded: the sum that
    built-in ``sum()`` gave before Python 3.12, which compensates its float
    sums. Every POI centroid and report mean adds with it, so the reports do
    not depend on the Python version."""
    return reduce(operator.add, values, 0.0)

