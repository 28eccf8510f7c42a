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

:func:`dj_cluster` builds every neighbourhood at once, as the rows of one
squared-chord matrix over the stay centroids, with the same float
operations per cell, in the same order, as the walk's test. The rows are
built in blocks of at most ``core._BLOCK_CELLS`` cells, and each core's
row is kept as a bitset (a Python int). The cores' bitsets are then
merged in stay order exactly as the naive loop merges sets: a new core
neighbourhood absorbs every cluster it meets, and the merged cluster goes
last. So the POIs come in the order of the last core that joined each
cluster, and each centroid adds its members' latitudes and longitudes in
ascending stay order (``core.centroid``), read off the cluster's bitset
lowest bit first. Beside the blocks, memory holds the bitsets: the
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
squared chord steps between consecutive points. The projection does not
depend on the parameters, so :func:`extract_pois_sweep` projects a trace
once and walks it once per threshold; ``experiment.threshold_sweep`` calls
it per (run, user), so the observer's sweep loops run -> user ->
threshold. Each of its results is bit-identical to :func:`extract_pois` at
that threshold, because both feed the same projection to the one walk that
:func:`extract_stays` uses and then to :func:`dj_cluster`.
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
    centroid,
    chord_m,
    chord_xyz,
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


# A trace as columns: latitudes, longitudes, timestamps, the 3-D chord
# coordinates (metres, Earth-centred) that every distance test of the walk
# compares, and as arrays the timestamps and the squared chord step from
# each point to the next, which split the walk into segments.
_Columns = tuple[
    list[float], list[float], list[int], list[float], list[float], list[float], np.ndarray, np.ndarray
]


def _project(trace: MobilityTrace) -> _Columns:
    """The trace's columns and chord projection; they do not depend on the
    extraction parameters, so a threshold sweep computes them once.

    ``step2[i - 1]`` is the same float arithmetic, in the same order, as
    the walk's first scan comparison at point i, against point i - 1."""
    xyz = chord_xyz(trace.lat, trace.lon)
    dx, dy, dz = (xyz[1:] - xyz[:-1]).T
    step2 = dx * dx + dy * dy + dz * dz
    xs, ys, zs = xyz.T.tolist()
    return trace.lat.tolist(), trace.lon.tolist(), trace.t.tolist(), xs, ys, zs, trace.t, step2


def _walk(cols: _Columns, params: ExtractionParams) -> list[Stay]:
    """The stay walk over a projected trace (see :func:`extract_stays`).

    It walks only the segments between steps longer than max_distance that
    span at least min_time, one after another. The hot loop makes no
    builtin calls per point: ``max``/``min`` are written as
    ``if b > a``/``if b < a``, which keep the same operand on ties, and
    list items are read into locals once.
    """
    lats, lons, ts, xs, ys, zs, t, step2 = cols
    n = len(ts)
    if n == 0:
        return []
    chord = chord_m(params.max_distance)
    chord2 = chord * chord
    min_time = params.min_time
    cuts = np.flatnonzero(step2 > chord2) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [n]))
    kept = t[ends - 1] - t[starts] >= min_time
    found = len(starts)
    starts, ends = starts[kept], ends[kept]
    logger.debug(
        "max_distance %r m: walking %d of %d segments, %d of %d points",
        params.max_distance, len(starts), found, int((ends - starts).sum()), n,
    )

    def emit(start: int, end: int) -> Stay:
        m = end - start
        return Stay(
            centroid=GeoPoint(math.fsum(lats[start:end]) / m, math.fsum(lons[start:end]) / m),
            start_t=ts[start],
            end_t=ts[end - 1],
            point_count=m,
        )

    stays: list[Stay] = []
    for start, end in zip(starts.tolist(), ends.tolist()):
        i = start  # window is the slice [start, i)
        # bounding box of (a superset of) the window's chord coordinates; the
        # empty window's box of +-inf fails the box test, and its scan finds
        # no violator, so it admits like any window that fits
        bx0 = by0 = bz0 = math.inf
        bx1 = by1 = bz1 = -math.inf
        while i < end:
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
        # the step that ends the segment, or the trace's end, emits the
        # last window when it spans min_time
        if ts[end - 1] - ts[start] >= min_time:
            stays.append(emit(start, end))
    return stays


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
      stationary runs that dominate real traces. The box may go stale
      (too wide) after pops, which is only ever conservative;
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
    return _walk(_project(trace), params)


def dj_cluster(stays: list[Stay], params: ExtractionParams) -> list[Poi]:
    """Merge stays into POI clusters by chained neighbourhood joins.

    A stay counts as its own neighbour. The neighbourhoods are the rows of
    one blocked squared-chord matrix, merged as bitsets in stay order (see
    the module docstring).
    """
    xs, ys, zs = chord_xyz(
        [s.centroid.lat for s in stays], [s.centroid.lon for s in stays]
    ).T
    chord = chord_m(params.merge_distance)
    chord2 = chord * chord
    n = len(stays)
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
        pois.append(Poi(centroid=centroid([stays[j].centroid for j in members]), support=len(members)))
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
    """
    cols = _project(trace)
    out = []
    for threshold in thresholds:
        attack = replace(params, max_distance=float(threshold))
        out.append(PoiSet(user=trace.user, pois=tuple(dj_cluster(_walk(cols, attack), attack))))
    return out
