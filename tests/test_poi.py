import logging
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geopriv.core import (
    EARTH_RADIUS_M,
    GeoPoint,
    MobilityTrace,
    PoiSet,
    TimestampedLocation as TL,
    chord_m,
    chord_xyz,
    distance,
)
from geopriv import poi as poi_module
from geopriv.mechanism import PrivacyLevel, RandomSource, obfuscate_trace
from geopriv.poi import (
    ExtractionParams,
    Stay,
    dj_cluster,
    extract_pois,
    extract_pois_sweep,
    extract_stays,
)

from oracles import dj_cluster_literal, extract_stays_literal, offset, stay_capable_literal, walk_unpruned
from synth import random_params, random_trace

DEFAULTS = ExtractionParams()
BASE = GeoPoint(45.0, 5.0)


def _dwell(center, start_t, n=46, interval=120, user_points=None):
    pts = [TL(start_t + i * interval, center) for i in range(n)]
    if user_points is not None:
        user_points.extend(pts)
    return pts


def _stay_mk(jx=0.0):
    return Stay(centroid=offset(BASE, jx, 0.0), start_t=0, end_t=4000, point_count=5)


class TestExtractionParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractionParams(min_time=0)
        with pytest.raises(ValueError):
            ExtractionParams(max_distance=0)
        with pytest.raises(ValueError):
            ExtractionParams(min_pts=0)

    def test_merge_distance(self):
        assert ExtractionParams(max_distance=250).merge_distance == 187.5


class TestExtractStays:
    def test_empty_trace(self):
        assert extract_stays(MobilityTrace("u", ()), DEFAULTS) == []

    def test_single_stationary_cluster(self):
        # three points within 10 m over two hours -> one stay at their centroid
        pts = (TL(0, BASE), TL(3600, offset(BASE, 8, 0)), TL(7200, offset(BASE, 0, 8)))
        stays = extract_stays(MobilityTrace("u", pts), DEFAULTS)
        assert len(stays) == 1
        got = stays[0]
        assert got.point_count == 3
        assert got.start_t == 0 and got.end_t == 7200
        want = sum(p.point.lat for p in pts) / 3
        assert got.centroid.lat == pytest.approx(want, abs=1e-12)

    def test_steady_motion_yields_no_stay(self):
        # 100 m per minute on a straight line: the window never spans an hour
        pts = tuple(TL(60 * i, offset(BASE, 100.0 * i, 0)) for i in range(61))
        assert extract_stays(MobilityTrace("u", pts), DEFAULTS) == []

    def test_two_dwells_with_jump(self):
        # 90 min at A, 10 km jump, 90 min at B -> exactly two stays
        a, b = BASE, offset(BASE, 10_000, 0)
        pts = _dwell(a, 0) + _dwell(b, 46 * 120)
        stays = extract_stays(MobilityTrace("u", tuple(pts)), DEFAULTS)
        assert len(stays) == 2
        assert distance(stays[0].centroid, a) < 1.0
        assert distance(stays[1].centroid, b) < 1.0

    def test_emitted_stays_satisfy_min_time(self):
        for seed in range(30):
            trace = random_trace(seed, max_points=30)
            params = random_params(seed)
            for stay in extract_stays(trace, params):
                assert stay.end_t - stay.start_t >= params.min_time
                assert stay.point_count >= 1

    def test_stay_members_pairwise_within_max_distance(self):
        # the window is a contiguous slice, so (start_t, point_count)
        # identifies the members when timestamps are distinct
        for seed in range(30):
            trace = random_trace(seed, max_points=30)
            params = random_params(seed)
            times = [loc.t for loc in trace.locations]
            for stay in extract_stays(trace, params):
                first = times.index(stay.start_t)
                members = trace.locations[first : first + stay.point_count]
                assert members[-1].t == stay.end_t
                for a in members:
                    for b in members:
                        assert distance(a.point, b.point) <= params.max_distance + 1e-6


class TestDjCluster:
    def test_two_nearby_stays_merge(self):
        stays = [_stay_mk(0.0), _stay_mk(100.0)]
        pois = dj_cluster(stays, DEFAULTS)
        assert len(pois) == 1
        assert pois[0].support == 2
        assert distance(pois[0].centroid, offset(BASE, 50.0, 0.0)) < 1.0

    def test_isolated_stay_is_dropped(self):
        assert dj_cluster([_stay_mk()], DEFAULTS) == []

    def test_chained_merge_through_middle_stay(self):
        # 0 m, 150 m, 300 m: ends join only through the middle neighbourhood
        stays = [_stay_mk(0.0), _stay_mk(150.0), _stay_mk(300.0)]
        pois = dj_cluster(stays, DEFAULTS)
        assert len(pois) == 1
        assert pois[0].support == 3
        assert distance(pois[0].centroid, offset(BASE, 150.0, 0.0)) < 1.0

    def test_neighbourhood_is_closed_at_the_merge_chord(self):
        # a pair whose squared chord, as the row test computes it, is the
        # exact square of a float c: with c as the merge chord the pair sits
        # on the boundary, and one ulp less splits it
        for jx in np.arange(100.0, 101.0, 0.01).tolist():
            stays = [_stay_mk(0.0), _stay_mk(jx)]
            a, b = chord_xyz([s.centroid.lat for s in stays], [s.centroid.lon for s in stays]).tolist()
            d2 = (b[0] - a[0]) * (b[0] - a[0]) + (b[1] - a[1]) * (b[1] - a[1]) + (b[2] - a[2]) * (b[2] - a[2])
            c = math.sqrt(d2)
            if c * c == d2:
                break
        below = float(np.nextafter(c, 0.0))
        assert c * c == d2 and below * below < d2
        with mock.patch.object(poi_module, "chord_m", return_value=c):
            assert [p.support for p in dj_cluster(stays, ExtractionParams(min_pts=2))] == [2]
        with mock.patch.object(poi_module, "chord_m", return_value=below):
            assert dj_cluster(stays, ExtractionParams(min_pts=2)) == []

    def test_memory_is_not_one_row_per_cluster(self):
        # 1,200 stays in 600 far-apart pairs, stay i paired with stay
        # i + 600, at min_pts 2, with one matrix row per block: unpacking
        # every cluster as a row of n bytes would peak at n * n / 2 bytes
        # (720 KB) on its own; one cluster at a time stays under half that
        n = 1200
        stays = [_stay_mk(5000.0 * (i % (n // 2))) for i in range(n)]
        stays = [replace(s, centroid=offset(s.centroid, 0.0, 10.0 * (i // (n // 2)))) for i, s in enumerate(stays)]
        with mock.patch.object(poi_module, "_BLOCK_CELLS", n):
            tracemalloc.start()
            try:
                pois = dj_cluster(stays, ExtractionParams(min_pts=2))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert [p.support for p in pois] == [2] * (n // 2)
        assert peak < n * n / 4

    def test_min_pts_one_keeps_singletons(self):
        pois = dj_cluster([_stay_mk()], ExtractionParams(min_pts=1))
        assert len(pois) == 1 and pois[0].support == 1

    def test_bridge_disqualification_can_split_clusters(self):
        # Documents a real corner of the chained-merge semantics: two tight
        # groups joined only through a chain of sparse stays form ONE
        # cluster while the sparse neighbourhoods qualify, but TWO once
        # min_pts disqualifies them. Cluster counts are therefore not
        # monotone in min_pts in full generality.
        xs = (-400.0, -380.0, -360.0, -180.0, 0.0, 180.0, 360.0, 380.0, 400.0)
        stays = [_stay_mk(x) for x in xs]
        merged = dj_cluster(stays, ExtractionParams(min_pts=3))
        split = dj_cluster(stays, ExtractionParams(min_pts=4))
        assert len(merged) == 1 and merged[0].support == 9
        assert len(split) == 2 and all(p.support == 4 for p in split)

    def test_min_pts_monotone_on_typical_traces(self):
        # On dwell-and-jump traces without bridge stays, raising min_pts
        # never increases the cluster count.
        for seed in range(25):
            trace = random_trace(seed + 500, max_points=30)
            stays = extract_stays(trace, DEFAULTS)
            counts = [
                len(dj_cluster(stays, ExtractionParams(min_pts=k))) for k in (1, 2, 3, 4)
            ]
            assert counts == sorted(counts, reverse=True)


@st.composite
def _stay_layouts(draw, min_size=0, max_size=30):
    """Stays whose centroids sit at the merge distance, give or take a few
    metres, from an earlier stay, plus exact duplicates and far strays,
    with min_pts from 1 to 5. Positions come from a drawn seed."""
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    params = ExtractionParams(
        max_distance=draw(st.sampled_from((40.0, 250.0, 1000.0))),
        min_pts=draw(st.integers(1, 5)),
    )
    merge = params.merge_distance
    centroids: list[GeoPoint] = []
    kinds = st.sampled_from(("step", "step", "duplicate", "stray"))
    for kind in draw(st.lists(kinds, min_size=min_size, max_size=max_size)):
        if kind == "stray" or not centroids:
            p = offset(BASE, *gen.uniform(-5.0 * merge, 5.0 * merge, 2).tolist())
        else:
            p = centroids[int(gen.integers(len(centroids)))]
            if kind == "step":
                bearing = float(gen.uniform(0.0, 2.0 * np.pi))
                d = merge + float(gen.uniform(-3.0, 3.0))
                p = offset(p, d * np.cos(bearing), d * np.sin(bearing))
        centroids.append(p)
    return [Stay(c, 0, 3600, 1) for c in centroids], params


class TestDjClusterOracle:
    @settings(max_examples=150, deadline=None)
    @given(_stay_layouts())
    def test_matches_literal_at_merge_distance(self, case):
        stays, params = case
        assert dj_cluster(stays, params) == dj_cluster_literal(stays, params)


class TestDjClusterBlocks:
    """Layouts of 60 to 200 stays: each neighbourhood's bitset spans
    several machine words, and the matrix is built in row blocks of one
    row up to past the whole matrix."""

    @settings(max_examples=40, deadline=None)
    @given(_stay_layouts(60, 200), st.data())
    def test_matches_literal_across_words_and_blocks(self, case, data):
        stays, params = case
        rows = data.draw(st.integers(1, len(stays) + 1))
        with mock.patch.object(poi_module, "_BLOCK_CELLS", rows * len(stays)):
            assert dj_cluster(stays, params) == dj_cluster_literal(stays, params)


class TestExtractPois:
    def test_empty_trace(self):
        ps = extract_pois(MobilityTrace("u", ()), DEFAULTS)
        assert ps.user == "u" and len(ps) == 0

    def test_deterministic(self):
        trace = random_trace(3, max_points=30)
        assert extract_pois(trace, DEFAULTS) == extract_pois(trace, DEFAULTS)

    def test_zero_noise_obfuscation_is_transparent(self):
        pts = _dwell(BASE, 0) + _dwell(offset(BASE, 9_000, 0), 46 * 120) + _dwell(BASE, 92 * 120)
        trace = MobilityTrace("u", tuple(pts))
        noisy = obfuscate_trace(trace, PrivacyLevel.zero_noise(), RandomSource(1))
        assert extract_pois(noisy, DEFAULTS) == extract_pois(trace, DEFAULTS)

    def test_supports_meet_min_pts(self):
        for seed in range(20):
            params = random_params(seed)
            ps = extract_pois(random_trace(seed, max_points=30), params)
            assert all(p.support >= params.min_pts for p in ps.pois)


class TestOracleEquivalence:
    def _assert_same(self, trace, params):
        stays = extract_stays(trace, params)
        oracle_stays = extract_stays_literal(trace, params)
        assert len(stays) == len(oracle_stays)
        for got, want in zip(stays, oracle_stays):
            assert got.start_t == want.start_t
            assert got.end_t == want.end_t
            assert got.point_count == want.point_count
            assert got.centroid.lat == pytest.approx(want.centroid.lat, abs=1e-9)
            assert got.centroid.lon == pytest.approx(want.centroid.lon, abs=1e-9)
        pois = dj_cluster(stays, params)
        oracle_pois = dj_cluster_literal(oracle_stays, params)
        assert len(pois) == len(oracle_pois)
        for got, want in zip(pois, oracle_pois):
            assert got.support == want.support
            assert got.centroid.lat == pytest.approx(want.centroid.lat, abs=1e-9)
            assert got.centroid.lon == pytest.approx(want.centroid.lon, abs=1e-9)

    def test_matches_literal_transcription(self):
        for seed in range(50):
            self._assert_same(random_trace(seed, max_points=30), random_params(seed))


@st.composite
def _sweep_cases(draw):
    """A trace of dwells, drifts, runs of one repeated point and moves, with
    extraction parameters and an ascending list of thresholds.

    Dwells of hundreds of points jittered within a few metres up to a few
    hundred keep the walk's box fast path and its batched pops busy;
    drifts (random walks) grow the box until a point breaks the window.
    Time steps are 0, 1 or 2 units, so timestamps repeat and windows often
    span exactly min_time. Positions and thresholds come from a drawn
    seed, as hypothesis's own floats favour a few simple values.
    """
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    x = y = 0.0
    t = 0
    locations = []
    kinds = st.sampled_from(("dwell", "drift", "repeat", "move"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        unit = draw(st.sampled_from((1, 30, 60, 120)))
        step = spread = 0.0
        if kind == "dwell":
            n, spread = draw(st.integers(100, 300)), draw(st.sampled_from((3.0, 40.0, 150.0, 400.0)))
        elif kind == "drift":
            n, step = draw(st.integers(50, 200)), draw(st.sampled_from((5.0, 20.0, 60.0)))
        elif kind == "repeat":
            n = draw(st.integers(2, 60))
        else:
            n, spread = draw(st.integers(1, 20)), 1500.0
        for _ in range(n):
            x += float(gen.normal(0.0, step)) if step else 0.0
            y += float(gen.normal(0.0, step)) if step else 0.0
            jx, jy = gen.uniform(-spread, spread, 2) if spread else (0.0, 0.0)
            locations.append(TL(t, offset(BASE, x + float(jx), y + float(jy))))
            t += unit * int(gen.integers(0, 3))
        x += float(gen.uniform(-2000.0, 2000.0))
        y += float(gen.uniform(-2000.0, 2000.0))
    params = ExtractionParams(
        min_time=draw(st.sampled_from((60, 600, 1800, 3600))),
        min_pts=draw(st.integers(1, 3)),
    )
    # log-uniform, so thresholds near every dwell spread and drift step are common
    n_thresholds = draw(st.integers(1, 3))
    thresholds = sorted(np.exp(gen.uniform(np.log(20.0), np.log(1200.0), n_thresholds)).tolist())
    return MobilityTrace("u", tuple(locations)), params, thresholds


class TestSweepExtraction:
    @settings(max_examples=80, deadline=None)
    @given(_sweep_cases())
    @example((MobilityTrace("u", ()), DEFAULTS, [100.0, 250.0]))
    @example((MobilityTrace("u", (TL(0, BASE),)), ExtractionParams(min_pts=1), [100.0]))
    def test_sweep_matches_single_threshold_and_oracle(self, case):
        trace, params, thresholds = case
        swept = extract_pois_sweep(trace, params, thresholds)
        assert len(swept) == len(thresholds)
        for threshold, got in zip(thresholds, swept):
            attack = replace(params, max_distance=threshold)
            assert got == extract_pois(trace, attack)
            TestOracleEquivalence()._assert_same(trace, attack)

    def test_only_extract_stays_builds_stay_objects(self):
        # the sweep walks and clusters spans and centroid columns; Stay
        # objects exist only at the public edge, extract_stays
        far = offset(BASE, 5000.0, 0.0)
        trace = MobilityTrace("u", tuple(_dwell(BASE, 0) + _dwell(far, 10_000) + _dwell(BASE, 20_000)))
        for thresholds in ([250.0], [100.0, 250.0]):
            want = [extract_pois(trace, replace(DEFAULTS, max_distance=t)) for t in thresholds]
            assert [p.support for p in want[-1].pois] == [2]
            with mock.patch.object(poi_module, "Stay", side_effect=AssertionError("a Stay was built")):
                assert extract_pois_sweep(trace, DEFAULTS, thresholds) == want
                with pytest.raises(AssertionError, match="a Stay was built"):
                    extract_stays(trace, DEFAULTS)
        stays = extract_stays(trace, DEFAULTS)
        assert len(stays) == 3 and all(isinstance(stay, Stay) for stay in stays)


# Metres per degree along the equator, where a small east/north layout in
# metres keeps its distances to well under a millimetre.
_M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0

# A block of the boundary traces: (kind, points, spread - max_distance,
# step from the block before - max_distance or None for a far jump,
# span - min_time, seconds since the block before).
_BLOCKS = st.tuples(
    st.sampled_from(("zigzag", "segment", "cloud")),
    st.integers(1, 6),
    st.sampled_from((-1e-3, 1e-3)),
    st.sampled_from((-1e-3, 1e-3, None)),
    st.sampled_from((0, -1)),
    st.integers(0, 1),
)


def _boundary_case(seed, blocks, max_distance, min_time, min_pts):
    """A trace near (0, 0) of back-to-back blocks, each starting at its
    step from the last point of the block before and spanning min_time or
    min_time - 1 s. A zigzag alternates between the ends of a segment as
    long as its spread, so every step is that long; a segment has its first
    point at one end, another at the other and the rest between; a cloud
    lies within max_distance - 1 mm. Returns the trace, its parameters
    and the thresholds max_distance and max_distance +- 2 mm."""
    gen = np.random.Generator(np.random.PCG64(seed))
    x = y = 0.0
    t = 0
    locations = []
    for kind, n, spread, step, span, gap in blocks:
        if locations:
            d = 3.0 * max_distance if step is None else max_distance + step
            bearing = gen.uniform(0.0, 2.0 * math.pi)
            x, y, t = x + d * math.cos(bearing), y + d * math.sin(bearing), t + gap
        bearing = gen.uniform(0.0, 2.0 * math.pi)
        inner = max(n - 2, 0)
        if kind == "cloud":
            radius = (max_distance - 1e-3) / 2.0 * np.sqrt(gen.uniform(0.0, 1.0, n))
            radius[0] = 0.0
            angle = gen.uniform(0.0, 2.0 * math.pi, n)
        else:
            if kind == "zigzag":
                fractions = [i % 2 for i in range(n)]
            else:
                fractions = [0.0, *gen.permutation([1.0, *gen.uniform(0.0, 1.0, inner)])][:n]
            radius = (max_distance + spread) * np.array(fractions, dtype=float)
            angle = np.full(n, bearing)
        span_s = min_time + span
        offsets = [0, *sorted(gen.integers(0, span_s + 1, inner).tolist()), span_s][:n]
        xs = x + radius * np.cos(angle)
        ys = y + radius * np.sin(angle)
        locations += [
            TL(t + dt, GeoPoint(py / _M_PER_DEG, px / _M_PER_DEG))
            for dt, px, py in zip(offsets, xs.tolist(), ys.tolist())
        ]
        x, y, t = float(xs[-1]), float(ys[-1]), t + offsets[-1]
    params = ExtractionParams(min_time=min_time, max_distance=max_distance, min_pts=min_pts)
    thresholds = [max_distance - 2e-3, max_distance, max_distance + 2e-3]
    return MobilityTrace("u", tuple(locations)), params, thresholds


@st.composite
def _boundary_cases(draw):
    return _boundary_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(_BLOCKS, min_size=1, max_size=5)),
        draw(st.sampled_from((30.0, 250.0))),
        draw(st.sampled_from((60, 3600))),
        draw(st.integers(1, 2)),
    )


class TestWalkBoundaries:
    @settings(max_examples=150, deadline=None)
    @given(_boundary_cases())
    @example(_boundary_case(1, [("zigzag", 4, -1e-3, None, 0, 0), ("zigzag", 4, -1e-3, 1e-3, 0, 0)], 30.0, 60, 1))
    @example(_boundary_case(2, [("segment", 5, 1e-3, None, 0, 0), ("cloud", 3, 1e-3, 1e-3, -1, 1)], 250.0, 60, 1))
    def test_walk_matches_oracle_on_the_boundaries(self, case):
        trace, params, thresholds = case
        # a pair within float error of a threshold may fall either way in
        # chord and in arc arithmetic; the layout keeps every pair clear
        points = [loc.point for loc in trace.locations]
        assume(all(
            abs(distance(p, q) - threshold) > 1e-6
            for i, p in enumerate(points) for q in points[i + 1:] for threshold in thresholds
        ))
        swept = extract_pois_sweep(trace, params, thresholds)
        for threshold, got in zip(thresholds, swept):
            attack = replace(params, max_distance=threshold)
            assert got == extract_pois(trace, attack)
            TestOracleEquivalence()._assert_same(trace, attack)


def _scan_steps(trace):
    """The squared chord step into each point from the one before, as the
    walk's scan computes it (newer minus older, x, y then z)."""
    xs, ys, zs = chord_xyz(trace.lat, trace.lon).T.tolist()
    steps = []
    for i in range(1, len(xs)):
        dx, dy, dz = xs[i] - xs[i - 1], ys[i] - ys[i - 1], zs[i] - zs[i - 1]
        steps.append(dx * dx + dy * dy + dz * dz)
    return steps


def _threshold_at(step2):
    """A threshold whose chord squares to exactly ``step2``, found within
    64 ulps of the arc of that chord, or None when no float reaches it."""
    arc = 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(step2) / (2.0 * EARTH_RADIUS_M))
    up = down = arc
    for _ in range(65):
        for threshold in (up, down):
            chord = chord_m(threshold)
            if chord * chord == step2:
                return threshold
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
    return None


def _pruning_case(seed, blocks, lead, trail, max_distance, min_time, nudge):
    """A noisy trace near BASE of blocks, each spanning min_time or
    min_time - 1 s and joined to the one before by a far jump or a step of
    about max_distance: dwells (clouds up to twice max_distance across),
    drifts (random walks of steps near max_distance), pairs (two points
    max_distance apart) and single points. ``lead`` and ``trail`` add a
    single point a far jump before and after. Thresholds are half, once
    and twice max_distance; with ``nudge`` also one whose chord squares to
    exactly the step into a drawn point of a block, or None when no step
    can be reached."""
    gen = np.random.Generator(np.random.PCG64(seed))
    blocks = [("single", 1, 0, True), *blocks] if lead else list(blocks)
    if trail:
        blocks.append(("single", 1, 0, True))
    x = y = 0.0
    t = 0
    locations = []
    inner = []  # indices of points whose step in lies inside their block
    for kind, n, span, far in blocks:
        if locations:
            d = 4.0 * max_distance if far else max_distance * float(gen.uniform(0.5, 1.5))
            bearing = float(gen.uniform(0.0, 2.0 * math.pi))
            x, y, t = x + d * math.cos(bearing), y + d * math.sin(bearing), t + int(gen.integers(0, 2))
        n = {"single": 1, "pair": 2}.get(kind, n)
        if kind == "dwell":
            radius = max_distance * float(gen.choice((0.25, 0.45, 0.6, 1.0)))
            px = x + gen.uniform(-radius, radius, n)
            py = y + gen.uniform(-radius, radius, n)
        elif kind == "drift":
            px = x + np.cumsum(gen.normal(0.0, 0.7 * max_distance, n))
            py = y + np.cumsum(gen.normal(0.0, 0.7 * max_distance, n))
        else:
            bearing = float(gen.uniform(0.0, 2.0 * math.pi))
            px = x + max_distance * math.cos(bearing) * np.arange(n)
            py = y + max_distance * math.sin(bearing) * np.arange(n)
        span_s = min_time + span if n > 1 else 0
        offsets = [0, *sorted(gen.integers(0, span_s + 1, max(n - 2, 0)).tolist()), span_s][:n]
        inner += range(len(locations) + 1, len(locations) + n)
        locations += [
            TL(t + dt, offset(BASE, ox, oy)) for dt, ox, oy in zip(offsets, px.tolist(), py.tolist())
        ]
        x, y, t = float(px[-1]), float(py[-1]), t + offsets[-1]
    trace = MobilityTrace("u", tuple(locations))
    thresholds = [0.5 * max_distance, max_distance, 2.0 * max_distance]
    if nudge:
        steps = _scan_steps(trace)
        reached = (_threshold_at(steps[i - 1]) for i in gen.permutation(inner).tolist() if steps[i - 1] > 0.0)
        exact = next((threshold for threshold in reached if threshold is not None), None)
        if exact is None:
            return None
        thresholds.append(exact)
    return trace, ExtractionParams(min_time=min_time, max_distance=max_distance, min_pts=1), thresholds


def _one_survivor_case():
    """A pop that keeps exactly one member. Points 0 and 1 share a window;
    point 2 lies beyond the first threshold from point 0, and exactly at it
    from point 1: the threshold's chord squares to that step, so the link
    into point 2 holds and the scan passes point 1. The window spans less
    than min_time, so point 0 is popped and point 1 alone survives; point 3,
    between 1 and 2, then closes a stay of points 1 to 3. The sweep's
    certificate cuts point 0, so only the walks of ``extract_stays`` pop."""
    for east in np.arange(400.0, 410.0, 0.25).tolist():
        trace = MobilityTrace("u", (
            TL(0, BASE), TL(60, offset(BASE, 150.0, 0.0)), TL(120, offset(BASE, east, 0.0)),
            TL(700, offset(BASE, (150.0 + east) / 2.0, 0.0)),
        ))
        threshold = _threshold_at(_scan_steps(trace)[1])
        if threshold is not None:
            return trace, ExtractionParams(min_time=600, min_pts=1), [threshold, 2.0 * threshold]
    raise AssertionError("no threshold squares to the step into point 2")


_PRUNING_BLOCKS = st.tuples(
    st.sampled_from(("dwell", "drift", "pair", "single")),
    st.integers(2, 30),
    st.sampled_from((0, -1)),
    st.booleans(),
)


@st.composite
def _pruning_cases(draw):
    return _pruning_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(_PRUNING_BLOCKS, max_size=6)),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.sampled_from((30.0, 250.0))),
        draw(st.sampled_from((60, 600, 3600))),
        draw(st.booleans()),
    )


class _WalkCounts(logging.Handler):
    """Collects the arguments of the walk's DEBUG line: max_distance, the
    segments walked, the segments found, the points walked and n."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = []

    def emit(self, record):
        self.counts.append(record.args)


class TestSegmentPruning:
    """The pruned walk against the walk before pruning, with no tolerance:
    every decision is the same float operation, so any difference in the
    stays, POIs or pruning counts is a fault of the segment split."""

    @settings(max_examples=150, deadline=None)
    @given(_pruning_cases())
    @example((MobilityTrace("u", ()), DEFAULTS, [100.0, 250.0]))
    @example((MobilityTrace("u", (TL(0, BASE),)), ExtractionParams(min_pts=1), [100.0]))
    @example(_pruning_case(3, [("pair", 2, 0, True)], False, False, 250.0, 600, True))
    @example(_pruning_case(4, [("dwell", 20, 0, True), ("dwell", 12, -1, False)], True, True, 30.0, 60, False))
    @example(_one_survivor_case())
    def test_pruned_walk_equals_unpruned(self, case):
        assume(case is not None)
        trace, params, thresholds = case
        log = logging.getLogger("geopriv.poi")
        handler, level = _WalkCounts(), log.level
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        try:
            swept = extract_pois_sweep(trace, params, thresholds)
        finally:
            log.removeHandler(handler)
            log.setLevel(level)
        steps = _scan_steps(trace)
        times = trace.t.tolist()
        expected_counts = []
        for threshold, got in zip(thresholds, swept):
            attack = replace(params, max_distance=threshold)
            want = walk_unpruned(trace, attack)
            assert extract_stays(trace, attack) == want
            assert got == PoiSet("u", tuple(dj_cluster(want, attack)))
            chord = chord_m(threshold)
            cuts = [i for i in range(1, len(times)) if steps[i - 1] > chord * chord]
            segments = list(zip([0, *cuts], [*cuts, len(times)])) if times else []
            kept = [(s, e) for s, e in segments if times[e - 1] - times[s] >= params.min_time]
            expected_counts.append(
                (threshold, len(kept), len(segments), sum(e - s for s, e in kept), len(times))
            )
        # an empty trace has no segments and logs nothing
        assert handler.counts == (expected_counts if times else [])


def _destination(p, bearing, d):
    """The point ``d`` metres from ``p`` along the great circle leaving it
    at ``bearing`` (radians from north), on the sphere of ``distance``."""
    phi, lam, delta = math.radians(p.lat), math.radians(p.lon), d / EARTH_RADIUS_M
    lat = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(bearing))
    lon = lam + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi),
        math.cos(delta) - math.sin(phi) * math.sin(lat),
    )
    return GeoPoint(math.degrees(lat), (math.degrees(lon) + 180.0) % 360.0 - 180.0)


# Cloud diameters, as max_distance plus one of these (metres): within a
# millimetre of max_distance, and of it plus or minus 1 m, the slack of the
# certificate (poi._NO_STAY_SLACK_M), where its cut falls.
_DELTAS = (-1.001, -1.0, -1e-3, 1e-3, 1.0, 1.001)

# A block of the certificate traces: (points, diameter - max_distance,
# bearing of the diameter, distance from the block before in units of
# max_distance or None for a far jump, span - min_time, seconds since the
# block before, whether inner timestamps tie).
_CERT_BLOCKS = st.tuples(
    st.integers(2, 12),
    st.sampled_from(_DELTAS),
    st.sampled_from((0.0, 0.5 * math.pi, 0.25 * math.pi, None)),
    st.sampled_from((None, 0.0, 0.4, 1.1)),
    st.sampled_from((-1, 0, 1)),
    st.sampled_from((0, 1, 600, 36_000)),
    st.booleans(),
)

# Where the traces lie: mid-latitude, across the antimeridian, at 89 degrees.
_CERT_ORIGINS = (GeoPoint(45.0, 5.0), GeoPoint(-35.0, 179.9995), GeoPoint(89.0, 5.0), GeoPoint(-89.0, -60.0))


def _certificate_case(seed, origin, blocks, max_distance, min_time, nudge):
    """A trace of clouds, each of the drawn diameter: two of its points are
    the ends of a diameter through its centre, the rest lie strictly
    inside, and its timestamps, in a drawn order of its points, run from 0
    to min_time plus the drawn span. Each centre lies the drawn distance
    from the one before. Thresholds are
    max_distance and max_distance + 1 m; with ``nudge`` also the
    threshold whose chord squares to exactly the first cloud's diameter as
    the walk computes it, and the floats on either side of it."""
    gen = np.random.Generator(np.random.PCG64(seed))
    center = origin
    t = 0
    locations = []
    diameters = []
    for i, (n, delta, bearing, join, span, gap, ties) in enumerate(blocks):
        if i:
            d = 5.0 * max_distance if join is None else join * max_distance
            center = _destination(center, float(gen.uniform(0.0, 2.0 * math.pi)), d)
            t += gap
        bearing = float(gen.uniform(0.0, 2.0 * math.pi)) if bearing is None else bearing
        radius = (max_distance + delta) / 2.0
        points = [_destination(center, bearing, radius), _destination(center, bearing + math.pi, radius)]
        diameters.append(points[:])
        points += [
            _destination(center, float(a), float(r))
            for a, r in zip(gen.uniform(0.0, 2.0 * math.pi, n - 2), 0.99 * radius * np.sqrt(gen.uniform(0.0, 1.0, n - 2)))
        ]
        order = gen.permutation(n).tolist()
        span_s = min_time + span
        inner = gen.choice((0, span_s // 2, span_s), n - 2) if ties else gen.integers(0, span_s + 1, n - 2)
        offsets = [0, *sorted(inner.tolist()), span_s]
        locations += [TL(t + dt, points[j]) for dt, j in zip(offsets, order)]
        t += span_s
    trace = MobilityTrace("u", tuple(locations))
    thresholds = [max_distance, max_distance + 1.0]
    if nudge:
        (ax, ay, az), (bx, by, bz) = chord_xyz([p.lat for p in diameters[0]], [p.lon for p in diameters[0]]).tolist()
        exact = _threshold_at((bx - ax) * (bx - ax) + (by - ay) * (by - ay) + (bz - az) * (bz - az))
        if exact is not None:
            thresholds += [exact, math.nextafter(exact, 0.0), math.nextafter(exact, math.inf)]
    return trace, ExtractionParams(min_time=min_time, max_distance=max_distance, min_pts=1), thresholds


@st.composite
def _certificate_cases(draw):
    return _certificate_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(_CERT_ORIGINS)),
        draw(st.lists(_CERT_BLOCKS, min_size=1, max_size=5)),
        draw(st.sampled_from((30.0, 250.0))),
        draw(st.sampled_from((60, 600))),
        draw(st.booleans()),
    )


def _runs(mask):
    """The (start, end) of each maximal run of True in ``mask``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.asarray(mask, dtype=int), [0]))))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


class TestNoStayCertificate:
    """The sweep's no-stay certificate against the brute-force stay-capable
    points (``stay_capable_literal``): the certificate never cuts a point
    that some stay could hold, the stays are the same when every other
    point is cut out, and the certified sweep equals the single walks."""

    @settings(max_examples=150, deadline=None)
    @given(_certificate_cases())
    # a diagonal pair across the antimeridian, at exactly the nudged
    # threshold, whose projected range exceeds its chord by 3e-11 m
    @example(_certificate_case(0, _CERT_ORIGINS[1], [(2, -1.001, 0.25 * math.pi, None, 0, 0, False)], 30.0, 60, True))
    @example(_certificate_case(5, _CERT_ORIGINS[1], [(6, 1e-3, 0.0, None, 0, 0, True), (4, -1.0, None, 0.4, 0, 0, False)], 250.0, 60, True))
    @example(_certificate_case(6, _CERT_ORIGINS[2], [(5, 1.0, 0.5 * math.pi, None, 0, 1, True), (5, -1e-3, 0.0, 0.0, -1, 0, True)], 30.0, 600, True))
    @example(_certificate_case(7, _CERT_ORIGINS[3], [(3, -1e-3, None, None, 1, 0, False), (8, 1.001, 0.0, 1.1, 0, 36_000, True)], 250.0, 60, True))
    def test_certificate_keeps_every_capable_point(self, case):
        trace, params, thresholds = case
        points = [loc.point for loc in trace.locations]
        projection = poi_module._Projection(trace)
        for threshold in thresholds:
            attack = replace(params, max_distance=threshold)
            capable = stay_capable_literal(trace, attack)
            walkable = projection.walkable(chord_m(threshold), params.min_time).tolist()
            assert all(kept for kept, can in zip(walkable, capable) if can)
            # a walk restarted at every run of capable points finds the same stays
            runs = [
                MobilityTrace.from_columns("u", trace.t[s:e], trace.lat[s:e], trace.lon[s:e])
                for s, e in _runs(capable)
            ]
            assert [stay for run in runs for stay in walk_unpruned(run, attack)] == walk_unpruned(trace, attack)
            # and so does the literal walk, wherever arcs and chords agree on every pair
            if all(abs(distance(p, q) - threshold) > 1e-6 for i, p in enumerate(points) for q in points[i + 1:]):
                literal = extract_stays_literal(trace, attack)
                assert [stay for run in runs for stay in extract_stays_literal(run, attack)] == literal
                assert walk_unpruned(trace, attack) == literal
        swept = extract_pois_sweep(trace, params, thresholds)
        for threshold, got in zip(thresholds, swept):
            attack = replace(params, max_distance=threshold)
            assert got == extract_pois(trace, attack)
            assert extract_stays(trace, attack) == walk_unpruned(trace, attack)

    def test_steady_motion_is_cut_out(self):
        # 100 m per minute for two hours, then an hour-long dwell: no window
        # of the motion fits 250 m, so only the dwell is walked
        moving = [TL(60 * i, offset(BASE, 100.0 * i, 0.0)) for i in range(120)]
        dwell = [TL(7200 + 60 * i, offset(BASE, 20_000.0, 5.0 * (i % 2))) for i in range(61)]
        projection = poi_module._Projection(MobilityTrace("u", tuple(moving + dwell)))
        walkable = projection.walkable(chord_m(250.0), 3600).tolist()
        assert walkable == [False] * 120 + [True] * 61
