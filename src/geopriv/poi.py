"""Stay extraction and density-join clustering of stays into POIs.

Phase one walks the trace with a candidate window: a new point is admitted
when its distance to every point already in the window stays within
``max_distance`` (an empty window admits anything). On rejection, the
window is flushed as a stay if it spans at least ``min_time`` seconds,
otherwise its oldest point is dropped and the same point is retried. The
window is therefore always a contiguous slice of the trace, which is what
the implementation exploits. A step between consecutive points longer than
``max_distance`` ends every window: the walk restarts after it as if the
trace began there. The walk therefore splits the trace at such steps and
walks only the segments that span ``min_time``; a shorter one cannot hold
a stay.

Phase two runs density-join clustering on the stay centroids: each stay's
neighbourhood (all stays within ``max_distance * merge_factor``, itself
included) forms a cluster when it has at least ``min_pts`` members, and is
unioned with every existing cluster it intersects, chaining overlapping
neighbourhoods together. The returned POIs are the cluster centroids with
the member count as support.

:func:`_cluster`, the clustering core, reads the stay centroids as two
columns and builds every neighbourhood at once, as the rows of one
squared-chord matrix over them, with the same float operations per cell,
in the same order, as the walk's test. The rows are built in blocks of at
most ``core._BLOCK_CELLS`` cells, and each core's row is kept as a bitset
(a Python int). The cores' bitsets are then merged in stay order exactly
as the naive loop merges sets: a new core neighbourhood absorbs every
cluster it meets, and the merged cluster goes last. So the POIs come in
the order of the last core that joined each cluster, and each centroid is
two ``core.sequential_sum``s of its members' latitudes and longitudes in
ascending stay order, read off the cluster's bitset lowest bit first, over
the member count. Beside the blocks, memory holds the bitsets: the
clusters are disjoint, so of n stays there are at most n / min_pts
clusters of at most n / 8 bytes each, n * n / 16 bytes in all at
min_pts 2 (about 6 MB for 10,000 stays).

Both phases are deterministic; per-user extraction is pure and can run in
parallel across a dataset.

Both phases compare distances as squared chords between Earth-centred
coordinates from ``core.chord_xyz``, the one chord projection, against
``core.chord_m`` of the threshold; chord length orders point pairs like
great-circle distance. Phase one runs on a projection of the trace: its
latitude, longitude and time columns plus those chord coordinates and the
squared chord steps between consecutive points. Its box test reads the
exact bounding box of the window's chord coordinates, kept after every
step: an admission widens it by the new point, a pop rebuilds it from the
surviving members, and an emission restarts it at the point that ended
the stay. The projection does not depend on the parameters, so
:func:`extract_pois_sweep` projects a trace once and walks it once per
threshold; ``experiment.threshold_sweep`` calls it per (run, user), so
the observer's sweep loops run -> user -> threshold. The walk returns
each stay as the ``(start, end)`` span of its points, which
``_Projection.centroids`` turns into centroid columns for :func:`_cluster`.
Only :func:`extract_stays` builds :class:`Stay` objects, and
:func:`dj_cluster` hands their centroid columns to that same core, so each
sweep result is bit-identical to :func:`extract_pois` at its threshold.

A sweep of several thresholds also builds, once per trace, a no-stay
certificate: per point u, a lower bound on the chord diameter of the
minimal window [u, f(u)] that spans min_time (f(u) is the first point at
least min_time after u). Every window that spans min_time and holds a
point k holds one of these windows: some [u, f(u)] with u <= k <= f(u), or
[g(k), f(g(k))], where g(k) is the last point at least min_time before k.
So when none of those bounds is within the threshold, no stay can hold k.
At each threshold the walk cuts such points out, as it cuts at a long
step: a window that holds k never spans min_time, so the walk restarted
after k emits the same windows at the same points (the full argument is
at :func:`extract_pois_sweep`), and the stays are unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    _BLOCK_CELLS,
    GeoPoint,
    MobilityTrace,
    Poi,
    PoiSet,
    chord_m,
    chord_xyz,
    sequential_sum,
)

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ExtractionParams:
    """Knobs of the extraction: minimum dwell time (s), maximum stay
    diameter (m), minimum cluster population, and the merge radius as a
    fraction of max_distance."""

    min_time: int = 3600
    max_distance: float = 250.0
    min_pts: int = 2
    merge_factor: float = 0.75

    def __post_init__(self) -> None:
        if not self.min_time > 0:
            raise ValueError("min_time must be > 0")
        if not self.max_distance > 0:
            raise ValueError("max_distance must be > 0")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if not self.merge_factor > 0:
            raise ValueError("merge_factor must be > 0")

    @property
    def merge_distance(self) -> float:
        return self.max_distance * self.merge_factor


@dataclass(frozen=True, slots=True)
class Stay:
    """A dwell: centroid of the window, its time span, and its size."""

    centroid: GeoPoint
    start_t: int
    end_t: int
    point_count: int


# Slack of the no-stay certificate (metres), proved sound here. A window
# whose every pair passes the walk's float test has every exact chord
# between its points' float coordinates below chord * (1 + 4u) <
# chord + 6e-9 m (u = 2^-53, chord at most the Earth's diameter, 1.28e7 m;
# a subtraction, two squarings, two additions and the rounding of chord2
# each move the squared test by at most a factor 1 + u). The certificate
# projects each point onto four vectors of norm within 1e-15 of one; each
# projection (three products and two sums, and for a diagonal one more sum
# and a product by sqrt(1/2)) lies within 2e-8 m of the exact projection
# onto its vector, as every term is at most 6.4e6 m. A projected range over
# points pairwise within d is then at most d (1 + 1e-15) + 4e-8 m, and its
# rounding adds 1 ulp. So the window's bound is below chord + 1e-7 m,
# while chord + 1 rounds to at least chord + 1 - 2e-9 m: a bound above it
# proves that no window holding those points passes the walk's test.
_NO_STAY_SLACK_M = 1.0


class _Projection:
    """A trace's columns for the walk. None depends on the extraction
    parameters, so a threshold sweep builds them once per trace.

    ``t``, ``xyz`` (the 3-D chord coordinates, metres, Earth-centred,
    that every distance test of the walk compares) and ``lat``/``lon`` are
    arrays, and ``step2`` holds the squared chord step from each point to
    the next: ``step2[i - 1]`` is the same float arithmetic, in the same
    order, as the walk's first scan comparison at point i, against point
    i - 1. The walk's loop reads Python lists of t, x, y and z, built on
    the first walk that has a segment to walk (:meth:`lists`), and a sweep
    builds its no-stay certificate once (:meth:`walkable`).
    """

    __slots__ = ("lat", "lon", "t", "xyz", "step2", "_lists", "_certificate")

    def __init__(self, trace: MobilityTrace) -> None:
        self.lat, self.lon, self.t = trace.lat, trace.lon, trace.t
        self.xyz = chord_xyz(trace.lat, trace.lon)
        dx, dy, dz = (self.xyz[1:] - self.xyz[:-1]).T
        self.step2 = dx * dx + dy * dy + dz * dz
        self._lists: tuple[list[int], list[float], list[float], list[float]] | None = None
        self._certificate: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None

    def lists(self) -> tuple[list[int], list[float], list[float], list[float]]:
        if self._lists is None:
            self._lists = (self.t.tolist(), *self.xyz.T.tolist())
        return self._lists

    def centroids(self, spans: list[tuple[int, int]]) -> tuple[list[float], list[float]]:
        """The stays' centroid columns: per span, the mean latitude and
        longitude of its points, each correctly rounded (``math.fsum``)."""
        return tuple([math.fsum(c[s:e].tolist()) / (e - s) for s, e in spans] for c in (self.lat, self.lon))

    def walkable(self, chord: float, min_time: int) -> np.ndarray:
        """Per point, whether the walk at ``chord`` must visit it: False
        only where the certificate proves that no window holding the point
        spans min_time and passes the walk's test. A point k is kept when
        the no-stay bound of some minimal window [u, f(u)] with
        u <= k <= f(u), or of g(k)'s, is at most chord + _NO_STAY_SLACK_M
        (see :func:`extract_pois_sweep`)."""
        if self._certificate is None or self._certificate[0] != min_time:
            self._certificate = (min_time, *_no_stay_bounds(self, min_time))
        _, f, g, bound = self._certificate
        n = len(f)
        good = bound <= chord + _NO_STAY_SLACK_M
        # the furthest f(u) over the good u <= k reaches k
        reach = np.maximum.accumulate(np.where(good[:n], f, -1))
        return (reach >= np.arange(n)) | good[g]


def _no_stay_bounds(proj: _Projection, min_time: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f, g, bound)``: f(u), the first point at least min_time after u
    (n when there is none); g(k), the last point at least min_time before
    k (-1 when there is none); and per u, a lower bound on the chord
    diameter of the minimal window [u, f(u)], infinite where f(u) = n and
    at the extra index n, which g = -1 reads.

    The bound is the largest range of the points' chord coordinates
    projected onto four unit vectors of the tangent plane at the first
    point: east, north and (east +- north) / sqrt(2). A projection onto a
    unit vector never lengthens a chord, so a window's diameter is at least
    each range. The products are elementwise, not a matrix product, so the
    bounds do not depend on a BLAS kernel. The ranges come from a sparse
    table of min/max over blocks of 2^j points, built one level at a time:
    a window of w points is the union of the two blocks of 2^floor(log2 w)
    points at its ends.
    """
    t = proj.t
    n = len(t)
    f = np.searchsorted(t, t + min_time)
    g = np.searchsorted(t, t - min_time, side="right") - 1
    phi, lam = math.radians(float(proj.lat[0])), math.radians(float(proj.lon[0]))
    x, y, z = proj.xyz.T
    east = x * -math.sin(lam) + y * math.cos(lam)
    north = x * (-math.sin(phi) * math.cos(lam)) + y * (-math.sin(phi) * math.sin(lam)) + z * math.cos(phi)
    lo = hi = np.stack((east, north, (east + north) * math.sqrt(0.5), (east - north) * math.sqrt(0.5)))
    u = np.flatnonzero(f < n)
    level = np.frexp(f[u] - u + 1)[1] - 1  # floor(log2) of the window's point count
    bound = np.full(n + 1, np.inf)
    for j in range(int(level.max(initial=-1)) + 1):
        # lo[:, i] and hi[:, i] cover the block [i, i + 2^j)
        if j:
            half = 1 << (j - 1)
            lo = np.minimum(lo[:, :-half], lo[:, half:])
            hi = np.maximum(hi[:, :-half], hi[:, half:])
        a = u[level == j]
        b = f[a] - (1 << j) + 1
        top = np.maximum(hi.take(a, axis=1), hi.take(b, axis=1))
        bound[a] = (top - np.minimum(lo.take(a, axis=1), lo.take(b, axis=1))).max(axis=0)
    return f, g, bound


def _segments(link: np.ndarray, t: np.ndarray, min_time: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The (starts, ends) of the runs of points joined by ``link`` (point
    i - 1 to point i at ``link[i - 1]``) that span min_time, and the number
    of runs."""
    cuts = np.flatnonzero(~link) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(t)]))
    kept = t[ends - 1] - t[starts] >= min_time
    return starts[kept], ends[kept], len(starts)


def _walk(proj: _Projection, params: ExtractionParams, certify: bool = False) -> list[tuple[int, int]]:
    """The stay walk over a projected trace (see :func:`extract_stays`):
    each stay as the ``(start, end)`` span of its points, in trace order.

    It walks only the segments between steps longer than max_distance that
    span at least min_time, one after another; with ``certify``, it also
    cuts out every point that the no-stay certificate proves no stay can
    hold (see :func:`extract_pois_sweep`). The box test and the admission
    make no builtin calls: ``max``/``min`` are written as ``if b > a``/
    ``if b < a``, which keep the same operand on ties; only a pop calls the
    builtins, once per coordinate over the survivors. The DEBUG line counts
    the segments and points of the step split, before the certificate's
    cuts, not what the certified walk walks.
    """
    t = proj.t
    n = len(t)
    if n == 0:
        return []
    chord = chord_m(params.max_distance)
    chord2 = chord * chord
    min_time = params.min_time
    link = proj.step2 <= chord2
    starts, ends, found = _segments(link, t, min_time)
    logger.debug(
        "max_distance %r m: %d of %d segments between long steps span min_time, %d of %d points",
        params.max_distance, len(starts), found, int((ends - starts).sum()), n,
    )
    if certify and len(starts):
        # a cut-out point is a segment of its own, spanning 0 < min_time
        walkable = proj.walkable(chord, min_time)
        starts, ends, _ = _segments(link & walkable[1:] & walkable[:-1], t, min_time)
    if not len(starts):
        return []
    ts, xs, ys, zs = proj.lists()
    spans: list[tuple[int, int]] = []
    for start, end in zip(starts.tolist(), ends.tolist()):
        # the window is the slice [start, i), and the box is its exact
        # bounding box over the chord coordinates
        bx0 = bx1 = xs[start]
        by0 = by1 = ys[start]
        bz0 = bz1 = zs[start]
        for i in range(start + 1, end):
            x, y, z = xs[i], ys[i], zs[i]
            dx = bx1 - x
            if x - bx0 > dx: dx = x - bx0
            dy = by1 - y
            if y - by0 > dy: dy = y - by0
            dz = bz1 - z
            if z - bz0 > dz: dz = z - bz0
            if dx * dx + dy * dy + dz * dz > chord2:
                # x may lie too far from a member: scan newest-first for the
                # newest violator, which every member up to it goes with; with
                # none, x fits every member
                for j in range(i - 1, start - 1, -1):
                    dx = x - xs[j]
                    dy = y - ys[j]
                    dz = z - zs[j]
                    if dx * dx + dy * dy + dz * dz > chord2:
                        if ts[i - 1] - ts[start] >= min_time:
                            spans.append((start, i))
                            start = i
                            bx0 = by0 = bz0 = math.inf
                            bx1 = by1 = bz1 = -math.inf
                        else:
                            # i - 1 survives, as the step into x is no longer
                            # than max_distance inside a segment
                            start = j + 1
                            bx0, bx1 = min(xs[start:i]), max(xs[start:i])
                            by0, by1 = min(ys[start:i]), max(ys[start:i])
                            bz0, bz1 = min(zs[start:i]), max(zs[start:i])
                        break
            # x fits every member left, by the box test or by the scan
            if x < bx0: bx0 = x
            if x > bx1: bx1 = x
            if y < by0: by0 = y
            if y > by1: by1 = y
            if z < bz0: bz0 = z
            if z > bz1: bz1 = z
        # the step that ends the segment, or the trace's end, emits the
        # last window when it spans min_time
        if ts[end - 1] - ts[start] >= min_time:
            spans.append((start, end))
    return spans


def extract_stays(trace: MobilityTrace, params: ExtractionParams) -> list[Stay]:
    """Extract stays from a time-sorted trace.

    Semantically this is the naive window walk: admit a point when it is
    within max_distance of every window member, otherwise flush the window
    as a stay when it spans min_time, else drop the oldest point and
    retry. Two observations make it fast without changing its output:

    * dropping the oldest point and retrying repeats until every member
      older than the newest violator is gone (the emission check cannot
      newly succeed while popping, because the spanned time only shrinks),
      so one backward scan finds the violator and batches the pops;
    * a bounding box over the window's chord coordinates gives an O(1)
      "definitely fits" test that short-circuits the scan for the long
      stationary runs that dominate real traces. It is the window's exact
      box after every step, so the scan runs only to find the violator:
      an admission widens the box by the new point, a pop rebuilds it once
      from the survivors, and an emission restarts it at the new point;
    * segments between steps longer than max_distance are independent.
      When the step into point i is that long, the box holds point i - 1,
      so the box test fails; the newest-first scan names i - 1 as the
      violator; and both outcomes, emitting the window or popping up to
      the violator and admitting, restart the window at i with the box of
      {i}, as a walk starting at i would. The window the step ends emits
      exactly when the trace-end rule would at the end of the segment. So
      the walk splits the trace at such steps, skips every segment that
      spans less than min_time (it cannot hold a stay, as timestamps are
      sorted), and walks the rest one after another. The split compares
      the squared chord step from the projection, the same float
      operations as the scan's first comparison, so it is exact.

    Distances compare squared 3-D chord lengths against the chord of
    max_distance, which orders point pairs exactly like the great-circle
    distance.
    """
    proj = _Projection(trace)
    spans = _walk(proj, params)
    ts = proj.lists()[0] if spans else []
    return [
        Stay(GeoPoint(lat, lon), ts[s], ts[e - 1], e - s)
        for (s, e), lat, lon in zip(spans, *proj.centroids(spans))
    ]


def dj_cluster(stays: list[Stay], params: ExtractionParams) -> list[Poi]:
    """Merge stays into POI clusters by chained neighbourhood joins.

    A stay counts as its own neighbour. Only the stays' centroid columns
    are read, by the columnar core :func:`_cluster` that the sweep calls
    directly (see the module docstring).
    """
    return _cluster([s.centroid.lat for s in stays], [s.centroid.lon for s in stays], params)


def _cluster(lats: list[float], lons: list[float], params: ExtractionParams) -> list[Poi]:
    """:func:`dj_cluster` over the stays' centroid columns."""
    xs, ys, zs = chord_xyz(lats, lons).T
    chord = chord_m(params.merge_distance)
    chord2 = chord * chord
    n = len(lats)
    step = max(1, _BLOCK_CELLS // max(n, 1))

    clusters: list[int] = []
    for lo in range(0, n, step):
        # the walk's own test, a row per stay: squared chord against the merge chord
        dx = xs - xs[lo:lo + step, None]
        dy = ys - ys[lo:lo + step, None]
        dz = zs - zs[lo:lo + step, None]
        near = dx * dx + dy * dy + dz * dz <= chord2
        cores = near[near.sum(axis=1) >= params.min_pts]
        for row in np.packbits(cores, axis=1, bitorder="little"):
            neighborhood = int.from_bytes(row.tobytes(), "little")
            kept: list[int] = []
            for cluster in clusters:
                if neighborhood & cluster:
                    neighborhood |= cluster
                else:
                    kept.append(cluster)
            kept.append(neighborhood)
            clusters = kept

    pois = []
    for cluster in clusters:
        # members in ascending stay order, lowest set bit first
        members = []
        while cluster:
            low = cluster & -cluster
            members.append(low.bit_length() - 1)
            cluster ^= low
        m = len(members)
        lat, lon = (sequential_sum(c[j] for j in members) / m for c in (lats, lons))
        pois.append(Poi(centroid=GeoPoint(lat, lon), support=m))
    return pois


def extract_pois(trace: MobilityTrace, params: ExtractionParams) -> PoiSet:
    """Full extraction: stays, then clustering, as a deterministic PoiSet."""
    stays = extract_stays(trace, params)
    return PoiSet(user=trace.user, pois=tuple(dj_cluster(stays, params)))


def extract_pois_sweep(
    trace: MobilityTrace, params: ExtractionParams, thresholds: Sequence[float]
) -> list[PoiSet]:
    """``extract_pois`` at each ``max_distance`` in ``thresholds``, every
    other parameter kept: one PoiSet per threshold, in order.

    The trace is projected once and walked once per threshold, so each
    result equals ``extract_pois(trace, replace(params, max_distance=t))``.

    With more than one threshold, the walks also cut out the points that
    no stay can hold. A point k can lie in a stay only if some window that
    holds it spans min_time and passes the walk's test on every pair
    (the walk's windows always pass it). Such a window [a, b] holds the
    minimal window [u, f(u)] of some u <= k <= f(u), where f(u) is the
    first point at least min_time after u: u = a when k <= f(a). Otherwise
    it holds [g(k), k], where g(k) >= a is the last point at least min_time
    before k, and so [g(k), f(g(k))]. The diameter of a window is at least
    that of any window inside it, so k is kept when one of those minimal
    windows has a no-stay bound (:func:`_no_stay_bounds`) of at most chord
    + ``_NO_STAY_SLACK_M``; the slack's proof shows that a bound above that
    fails the walk's float test.

    Cutting out such a point k and restarting the walk after it, as a step
    longer than max_distance does, changes no stay. After point i the
    walk's window is the longest suffix of the points since its last
    restart r that passes the test: an admission keeps that suffix, and a
    pop goes to the newest violator. A window holding k never spans
    min_time, so it is never emitted, and the window before k, if it spans
    min_time, does not admit k, so it is emitted at k exactly as at the end
    of the segment before k. Past k, while the window started from r holds
    k it spans less than min_time, and so does its suffix after k, the
    window of the walk restarted at k + 1; once the suffix no longer
    reaches k, the two windows are the same. So both walks emit the same
    windows at the same points, and after their first emission past k they
    restart at the same point. The segment split on long steps is the case
    of a step longer than max_distance.

    The certificate is built once per trace, and only when some threshold
    leaves a segment spanning min_time. A single walk pays more for it than
    it saves: certifying every walk, :func:`extract_stays`'s too, made a
    study-crowd bench job (one threshold) 12% slower and campaign-io's
    ground-truth walks 26% slower (seed 2201, 40 rounds alternated in one
    process on 2 vCPUs; slower in 34 and 39 of them).
    """
    proj = _Projection(trace)
    certify = len(thresholds) > 1
    out = []
    for threshold in thresholds:
        attack = replace(params, max_distance=float(threshold))
        out.append(PoiSet(trace.user, tuple(_cluster(*proj.centroids(_walk(proj, attack, certify)), attack))))
    return out
