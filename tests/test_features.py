import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geopriv import features as features_module
from geopriv.core import EARTH_RADIUS_M, GeoPoint, chord_m, distance
from geopriv.features import Feature, FeatureStore, _half_band, generate_synthetic_features
from geopriv.metrics import query_precisions

from oracles import brute_force_range, brute_force_top_k


def _random_features(seed, n, lat0=45.0, lon0=5.0, span=0.2):
    gen = np.random.Generator(np.random.PCG64(seed))
    return [
        Feature(
            id=f"f{i:05d}",
            point=GeoPoint(
                float(lat0 + gen.uniform(-span, span)),
                float(lon0 + gen.uniform(-span, span)),
            ),
            category=("restaurant", "shop", "cafe")[int(gen.integers(0, 3))],
            name=f"feature {i}",
        )
        for i in range(n)
    ]


class TestBuild:
    def test_empty(self):
        store = FeatureStore.build([])
        assert len(store) == 0
        assert store.top_k(GeoPoint(0, 0), 3) == []
        assert store.range_query(GeoPoint(0, 0), 1000) == []

    def test_size(self):
        assert len(FeatureStore.build(_random_features(1, 57))) == 57

    def test_duplicate_id_rejected(self):
        f = _random_features(2, 1)[0]
        with pytest.raises(ValueError, match="duplicate feature id"):
            FeatureStore.build([f, f])


class TestTopK:
    def test_direct_ordering(self):
        c = GeoPoint(45.0, 5.0)
        a = Feature("a", GeoPoint(45.0001, 5.0), "x")
        b = Feature("b", GeoPoint(45.0002, 5.0), "x")
        d = Feature("d", GeoPoint(45.0003, 5.0), "x")
        store = FeatureStore.build([d, b, a])
        assert [f.id for f in store.top_k(c, 2)] == ["a", "b"]

    def test_exhaustion_when_k_exceeds_size(self):
        store = FeatureStore.build(_random_features(3, 3))
        assert len(store.top_k(GeoPoint(45, 5), 5)) == 3

    def test_equidistant_tie_breaks_on_id(self):
        c = GeoPoint(45.0, 5.0)
        p = GeoPoint(45.001, 5.0)
        store = FeatureStore.build([Feature("zz", p, "x"), Feature("aa", p, "x")])
        assert [f.id for f in store.top_k(c, 1)] == ["aa"]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            FeatureStore.build([]).top_k(GeoPoint(0, 0), 0)


class TestRangeQuery:
    def test_zero_radius_empty(self):
        store = FeatureStore.build(_random_features(4, 20))
        assert store.range_query(GeoPoint(44.0, 4.0), 0.0) == []

    def test_boundary_is_closed(self):
        c = GeoPoint(45.0, 5.0)
        f = Feature("edge", GeoPoint(45.001, 5.0), "x")
        store = FeatureStore.build([f])
        from geopriv.core import distance

        r = distance(c, f.point)
        assert store.range_query(c, r) == [f]
        assert store.range_query(c, r * (1 - 1e-9)) == []

    def test_category_filter(self):
        feats = _random_features(5, 200)
        store = FeatureStore.build(feats)
        c = GeoPoint(45.0, 5.0)
        got = store.range_query(c, 20_000, "shop")
        assert got == brute_force_range(feats, c, 20_000, "shop")
        assert all(f.category == "shop" for f in got)

    def test_monotone_in_radius(self):
        feats = _random_features(6, 300)
        store = FeatureStore.build(feats)
        c = GeoPoint(45.05, 5.05)
        previous: set[str] = set()
        for r in (100, 500, 2_000, 10_000, 50_000):
            ids = {f.id for f in store.range_query(c, r)}
            assert previous <= ids
            previous = ids


class TestBruteForceEquivalence:
    def test_random_queries_match_linear_scan(self):
        feats = _random_features(7, 1000)
        store = FeatureStore.build(feats)
        gen = np.random.Generator(np.random.PCG64(8))
        for _ in range(200):
            c = GeoPoint(float(45 + gen.uniform(-0.25, 0.25)), float(5 + gen.uniform(-0.25, 0.25)))
            k = int(gen.integers(1, 40))
            assert store.top_k(c, k) == brute_force_top_k(feats, c, k)
            r = float(gen.uniform(0, 30_000))
            assert store.range_query(c, r) == brute_force_range(feats, c, r)


CATEGORIES = ("restaurant", "shop")

# Coordinates anywhere on the sphere, with extra weight right at the poles
# and the antimeridian.
_lats = st.one_of(st.floats(-90.0, 90.0), st.floats(89.99, 90.0), st.floats(-90.0, -89.99))
_lons = st.one_of(st.floats(-180.0, 180.0), st.floats(179.99, 180.0), st.floats(-180.0, -179.99))
_points = st.builds(GeoPoint, _lats, _lons)


def _shifted(p: GeoPoint, dlat: float, dlon: float) -> GeoPoint:
    """p moved by degree offsets, clamped at the poles and wrapped at the
    antimeridian."""
    return GeoPoint(min(max(p.lat + dlat, -90.0), 90.0), (p.lon + dlon + 180.0) % 360.0 - 180.0)


def _antipode(p: GeoPoint) -> GeoPoint:
    return GeoPoint(-p.lat, p.lon - 180.0 if p.lon > 0.0 else p.lon + 180.0)


@st.composite
def _sphere_queries(draw):
    """Features clustered within about 1 km of an anchor, plus scattered
    ones and their mirror images, plus up to eight queries. Mirror images
    about the equator and the prime meridian are exactly equidistant from
    query points on those lines, and repeated points are equidistant from
    everything. Cluster offsets come from a drawn seed: hypothesis's own
    floats favour a few simple values, which would pile the cluster onto
    a handful of points."""
    anchor = draw(_points)
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))

    def near() -> GeoPoint:
        dlat, dlon = gen.uniform(-0.01, 0.01, 2)
        return _shifted(anchor, float(dlat), float(dlon))

    points = [near() for _ in range(draw(st.integers(10, 40)))]
    for p in draw(st.lists(st.one_of(st.sampled_from(points), _points), max_size=8)):
        points += [p, GeoPoint(-p.lat, p.lon), GeoPoint(p.lat, -p.lon)]
    points += draw(st.lists(st.sampled_from(points), max_size=6))
    features = draw(st.permutations([
        Feature(f"f{i:03d}", p, draw(st.sampled_from(CATEGORIES))) for i, p in enumerate(points)
    ]))
    centres = st.one_of(
        st.builds(near),
        _points,
        _points.map(lambda p: GeoPoint(0.0, p.lon)),
        _points.map(lambda p: GeoPoint(p.lat, 0.0)),
        st.sampled_from(points),
        st.sampled_from(points).map(_antipode),
    )
    queries = []
    for c in draw(st.lists(centres, min_size=1, max_size=8)):
        radius = draw(st.one_of(
            st.floats(0.0, 1_000.0),
            st.floats(0.0, 2.1e7),
            st.sampled_from(features).map(lambda f: distance(c, f.point)),
        ))
        k = draw(st.integers(1, len(features) + 2))
        queries.append((c, k, radius, draw(st.sampled_from(CATEGORIES))))
    return features, queries


class TestWholeSphere:
    @settings(max_examples=150, deadline=None)
    @given(_sphere_queries())
    def test_queries_match_brute_force(self, world):
        features, queries = world
        store = FeatureStore.build(features)
        for c, k, radius, category in queries:
            assert store.top_k(c, k) == brute_force_top_k(features, c, k)
            assert store.range_query(c, radius) == brute_force_range(features, c, radius)
            assert store.range_query(c, radius, category) == brute_force_range(features, c, radius, category)


class TestNearest:
    @settings(max_examples=150, deadline=None)
    @given(_sphere_queries(), st.data())
    def test_rows_match_brute_force_as_sets(self, world, data):
        """One call over every query point, some repeated, in blocks of one
        or two rows; k may exceed the store."""
        features, queries = world
        points = [c for c, *_ in queries]
        points += data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=4))
        k = data.draw(st.one_of(st.integers(1, 15), st.integers(len(features) - 1, len(features) + 3)))
        store = FeatureStore.build(features)
        stored = list(store)
        cells = data.draw(st.integers(1, 2 * len(features)))
        with mock.patch.object(features_module, "_BLOCK_CELLS", cells):
            got = store.nearest([c.lat for c in points], [c.lon for c in points], k)
        assert got.shape == (len(points), min(k, len(features)))
        for c, row in zip(points, got.tolist()):
            ids = [stored[i].id for i in row]
            assert len(set(ids)) == len(ids)
            assert set(ids) == {f.id for f in brute_force_top_k(features, c, k)}

    def test_equidistant_features_tie_by_id(self):
        # mirror images about the equator are exactly equidistant from a point on it
        c = GeoPoint(0.0, 180.0)
        store = FeatureStore.build([Feature("b", GeoPoint(0.001, 180.0), "x"),
                                    Feature("a", GeoPoint(-0.001, 180.0), "x"),
                                    Feature("c", GeoPoint(0.0, -179.99), "x")])
        stored = list(store)
        assert [stored[i].id for i in store.nearest([c.lat], [c.lon], 1)[0]] == ["a"]
        assert sorted(stored[i].id for i in store.nearest([c.lat], [c.lon], 2)[0]) == ["a", "b"]

    def test_no_queries_and_no_features(self):
        store = FeatureStore.build(_random_features(11, 5))
        assert store.nearest([], [], 3).shape == (0, 3)
        assert FeatureStore.build([]).nearest([90.0], [0.0], 3).shape == (1, 0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            store.nearest([45.0], [5.0], 0)


# One millimetre of meridian arc, in degrees of latitude.
_MM_DEG = math.degrees(1e-3 / EARTH_RADIUS_M)


def _precision_literal(features, c, z, radius, enlarged, category):
    """(precision, retrieved count) of a query from z with radius
    ``enlarged`` judged against ``radius`` around c, by brute force."""
    retrieved = brute_force_range(features, z, enlarged, category)
    if not retrieved:
        return 1.0, 0
    honest = {f.id for f in brute_force_range(features, c, radius, category)}
    return 1.0 - sum(f.id not in honest for f in retrieved) / len(retrieved), len(retrieved)


@st.composite
def _band_worlds(draw):
    """Features right at the latitude band of a query's radius and at the
    radius itself along the meridian (on each edge, one ulp and one
    millimetre either side of it) and a cluster around the query, or else
    a whole store on one parallel; queries at the anchor, near both poles
    and at the anchor's antipode, far from every feature, so that a
    nearest-k band widens to the whole store."""
    anchor = GeoPoint(draw(st.one_of(_lats, st.sampled_from((90.0, -90.0, 89.9999, -89.9999)))), draw(_lons))
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    radius = draw(st.one_of(st.floats(0.0, 3_000.0), st.floats(0.0, 2.1e7)))
    points = []
    if draw(st.booleans()):
        # a whole store on one parallel
        lat = draw(_lats)
        points += [GeoPoint(lat, float(lon)) for lon in gen.uniform(-180.0, 180.0, draw(st.integers(1, 12)))]
    else:
        for _ in range(draw(st.integers(0, 20))):
            dlat, dlon = gen.uniform(-0.02, 0.02, 2)
            points.append(_shifted(anchor, float(dlat), float(dlon)))
        half = float(_half_band(chord_m(radius)))
        arc = math.degrees(radius / EARTH_RADIUS_M)
        for edge in (anchor.lat - half, anchor.lat + half, anchor.lat - arc, anchor.lat + arc):
            for lat in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf), edge - _MM_DEG, edge + _MM_DEG):
                if -90.0 <= lat <= 90.0:
                    lon = draw(st.sampled_from((anchor.lon, _shifted(anchor, 0.0, 0.01).lon, -anchor.lon)))
                    points.append(GeoPoint(float(lat), lon))
    if not points:
        points.append(anchor)
    features = [Feature(f"f{i:03d}", p, draw(st.sampled_from(CATEGORIES))) for i, p in enumerate(points)]
    centres = [anchor, _antipode(anchor), GeoPoint(90.0, anchor.lon), GeoPoint(-89.9999, -anchor.lon),
               _shifted(anchor, draw(st.floats(-1e-3, 1e-3)), 0.0)]
    centres += draw(st.lists(st.sampled_from(points), max_size=3))
    radii = [radius] + [distance(anchor, p) for p in draw(st.lists(st.sampled_from(points), max_size=3))]
    return features, centres, radii


class TestBandEdges:
    @settings(max_examples=200, deadline=None)
    @given(_band_worlds(), st.data())
    def test_banded_scans_match_brute_force(self, world, data):
        """nearest, range_query and query_precisions against the brute-force
        oracles, in blocks of at most 2n cells, so one or two rows at the
        full width; k may reach past the store."""
        features, centres, radii = world
        store = FeatureStore.build(features)
        stored = list(store)
        n = len(features)
        k = data.draw(st.one_of(st.integers(1, 15), st.integers(max(n - 1, 1), n + 3)))
        cells = data.draw(st.integers(1, 2 * n))
        lats, lons = np.array([c.lat for c in centres]), np.array([c.lon for c in centres])
        with mock.patch.object(features_module, "_BLOCK_CELLS", cells):
            got = store.nearest(lats, lons, k)
            for c, row in zip(centres, got.tolist()):
                assert {stored[i].id for i in row} == {f.id for f in brute_force_top_k(features, c, k)}
            for radius in radii:
                category = data.draw(st.sampled_from((None, *CATEGORIES)))
                for c in centres:
                    assert store.range_query(c, radius, category) == brute_force_range(features, c, radius, category)
                # each query judged at another centre, as a noisy query is
                noisy = data.draw(st.permutations(range(len(centres))))
                enlarged = radius + data.draw(st.floats(0.0, 5_000.0))
                values, counts = query_precisions(store, lats, lons, lats[noisy], lons[noisy], radius, enlarged, category)
                assert list(zip(values, counts)) == [
                    _precision_literal(features, c, centres[j], radius, enlarged, category)
                    for c, j in zip(centres, noisy)
                ]


class TestBandPruning:
    def test_city_scans_read_under_half_the_store(self):
        """On a city-sized store (14 x 12 km at 40 features per km^2), every
        block's product of a nearest-k call and of a precision pass reads
        fewer than half the features."""
        lat0, lon0 = 37.70, -122.52
        north, east = 14_000.0 / 111_320.0, 12_000.0 / (111_320.0 * math.cos(math.radians(37.76)))
        store = FeatureStore.build(generate_synthetic_features(7, (lat0, lon0, lat0 + north, lon0 + east), 40.0))
        n = len(store)
        gen = np.random.Generator(np.random.PCG64(8))
        lats = lat0 + gen.uniform(0.05, 0.95, 600) * north
        lons = lon0 + gen.uniform(0.05, 0.95, 600) * east
        widths = []
        dots = FeatureStore._dots

        def counted(self, *args):
            out = dots(self, *args)
            widths.append(out.shape[1])
            return out

        with mock.patch.object(FeatureStore, "_dots", counted):
            store.nearest(lats, lons, 15)
            assert widths and max(widths) < n / 2
            widths.clear()
            noisy = gen.permutation(600)[:300]
            query_precisions(store, lats[:300], lons[:300], lats[noisy], lons[noisy], 500.0, 1_500.0)
            assert widths and max(widths) < n / 2


class TestGenerateSynthetic:
    BOUNDS = (44.95, 4.95, 45.05, 5.05)

    def test_zero_density_is_empty(self):
        assert generate_synthetic_features(1, self.BOUNDS, 0.0) == []

    def test_fixed_seed_reproduces(self):
        a = generate_synthetic_features(42, self.BOUNDS, 25.0)
        b = generate_synthetic_features(42, self.BOUNDS, 25.0)
        assert a == b

    def test_count_concentrates_around_expectation(self):
        # ~100 km^2 at 10 per km^2: within 3 sigma of Poisson(mean)
        import math

        height = (self.BOUNDS[2] - self.BOUNDS[0]) * 111.32
        width = (self.BOUNDS[3] - self.BOUNDS[1]) * 111.32 * math.cos(math.radians(45.0))
        mean = 10.0 * height * width
        count = len(generate_synthetic_features(9, self.BOUNDS, 10.0))
        assert abs(count - mean) <= 3.0 * math.sqrt(mean)

    def test_points_inside_bounds_with_unique_ids(self):
        feats = generate_synthetic_features(10, self.BOUNDS, 20.0)
        assert len({f.id for f in feats}) == len(feats)
        for f in feats:
            assert self.BOUNDS[0] <= f.point.lat <= self.BOUNDS[2]
            assert self.BOUNDS[1] <= f.point.lon <= self.BOUNDS[3]
