import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geopriv import features as features_module
from geopriv import metrics as metrics_module
from geopriv.core import EARTH_RADIUS_M, Dataset, GeoPoint, MobilityTrace, Poi, PoiSet, distance
from geopriv.experiment import PrecisionConfig, precision_summary
from geopriv.features import Feature, FeatureStore
from geopriv.mechanism import PrivacyLevel, RandomSource, inverse_radius_cdf, perturb
from geopriv.metrics import (
    geographic_distances,
    most_likely_user,
    poi_set_distance,
    precision_trial,
    recall_of,
    reidentification_rate,
    remap,
    semantic_distances,
)

from oracles import (
    offset,
    poi_set_distance_literal,
    precision_summary_literal,
    precision_trial_literal,
    reidentification_rate_literal,
    remap_literal,
)

BASE = GeoPoint(45.0, 5.0)
MEDIUM = PrivacyLevel.from_level(math.log(6), 500.0)


def recall(obf, real):
    return recall_of(remap(obf, real), len(real))


def query_precision(c, level, store, radius_m, alpha, rng, category=None):
    return precision_trial(c, level, store, radius_m, alpha, rng, category)[0]


def _poi(dx, dy=0.0, support=2):
    return Poi(centroid=offset(BASE, dx, dy), support=support)


def _poiset(user, *offsets):
    return PoiSet(user, tuple(_poi(dx, dy) for dx, dy in offsets))


class TestRemap:
    def test_coincident_maps_with_zero_distance(self):
        real = _poiset("u", (0, 0), (1000, 0))
        obf = PoiSet("u", (real.pois[0],))
        result = remap(obf, real)
        assert result.pairs[0].real_index == 0
        assert result.pairs[0].distance_m == 0.0

    def test_nearer_neighbor_wins(self):
        real = _poiset("u", (0, 0), (1000, 0))
        obf = _poiset("u", (400, 0))
        result = remap(obf, real)
        assert result.pairs[0].real == real.pois[0]
        assert result.pairs[0].distance_m == pytest.approx(400, rel=0.005)

    def test_equidistant_tie_takes_first_in_order(self):
        # mirrored across the equator so the two distances are bit-identical
        eq = GeoPoint(0.0, 5.0)
        south = Poi(offset(eq, 0, -500), 2)
        north = Poi(offset(eq, 0, 500), 2)
        real = PoiSet("u", (north, south))
        obf = PoiSet("u", (Poi(eq, 2),))
        result = remap(obf, real)
        assert result.pairs[0].real_index == 0
        assert result.pairs[0].real == south  # sorted first by latitude

    def test_empty_real_rejected(self):
        with pytest.raises(ValueError, match="no real POIs"):
            remap(_poiset("u", (0, 0)), PoiSet("u", ()))

    def test_self_remap_is_identity(self):
        real = _poiset("u", (0, 0), (900, 0), (0, 900))
        result = remap(real, real)
        assert [p.real_index for p in result.pairs] == [0, 1, 2]
        assert all(p.distance_m == 0.0 for p in result.pairs)


class TestRecall:
    def test_two_of_three_real_pois_hit(self):
        real = _poiset("u", (0, 0), (2000, 0), (4000, 0))
        obf = _poiset("u", (10, 0), (1990, 0), (30, 10))
        assert recall(obf, real) == pytest.approx(2 / 3)

    def test_identical_sets_give_one(self):
        real = _poiset("u", (0, 0), (2000, 0))
        assert recall(real, real) == 1.0

    def test_empty_obfuscated_gives_zero(self):
        assert recall(PoiSet("u", ()), _poiset("u", (0, 0))) == 0.0


class TestGeographicDistance:
    def test_values(self):
        real = _poiset("u", (0, 0), (5000, 0))
        obf = _poiset("u", (0, 0), (400, 0))
        got = geographic_distances(remap(obf, real))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(400, rel=0.005)


class TestSemanticDistance:
    def _line_store(self, n=40, spacing=120.0):
        feats = [Feature(f"f{i:03d}", offset(BASE, i * spacing, 0), "x") for i in range(n)]
        return FeatureStore.build(feats)

    def test_identical_points_share_neighbourhood(self):
        store = self._line_store()
        real = _poiset("u", (600, 0))
        got = semantic_distances([remap(real, real)], store)[0]
        assert got == [0.0]

    def test_disjoint_neighbourhoods(self):
        store = self._line_store(n=60)
        real = _poiset("u", (0, 0))
        obf = _poiset("u", (6000, 0))
        assert semantic_distances([remap(obf, real)], store)[0] == [1.0]

    def test_partial_overlap_fraction(self):
        # 15-nearest windows on a uniform line shift feature-for-feature:
        # moving 3 slots shares 12 of 15.
        store = self._line_store(n=60)
        real = _poiset("u", (2400, 0))  # features 14..28 around slot 20
        obf = _poiset("u", (2760, 0))  # shifted by 3 slots
        got = semantic_distances([remap(obf, real)], store)[0]
        assert got[0] == pytest.approx(1 - 12 / 15)

    def test_small_store_uses_actual_count(self):
        store = self._line_store(n=5)
        real = _poiset("u", (0, 0))
        assert semantic_distances([remap(real, real)], store)[0] == [0.0]

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError, match="feature store"):
            semantic_distances([remap(_poiset("u", (0, 0)), _poiset("u", (0, 0)))], FeatureStore.build([]))


class TestPoiSetDistance:
    def test_identical_sets(self):
        a = _poiset("u", (0, 0), (900, 0))
        assert poi_set_distance(a, a) == 0.0

    def test_single_pair(self):
        a = _poiset("u", (0, 0))
        b = _poiset("v", (750, 0))
        assert poi_set_distance(a, b) == pytest.approx(750, rel=0.005)

    def test_hand_evaluated_median(self):
        # real {0, 1000}, obf {0}: directed minima {0, 0, 1000}, median 0
        real = _poiset("u", (0, 0), (1000, 0))
        obf = _poiset("u", (0, 0))
        assert poi_set_distance(obf, real) == 0.0

    def test_symmetry(self):
        gen = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            a = PoiSet("a", tuple(_poi(float(gen.uniform(0, 5000)), float(gen.uniform(0, 5000))) for _ in range(int(gen.integers(1, 5)))))
            b = PoiSet("b", tuple(_poi(float(gen.uniform(0, 5000)), float(gen.uniform(0, 5000))) for _ in range(int(gen.integers(1, 5)))))
            assert poi_set_distance(a, b) == poi_set_distance(b, a)

    def test_empty_side_is_infinite(self):
        assert poi_set_distance(PoiSet("u", ()), _poiset("v", (0, 0))) == math.inf


class TestMostLikelyUser:
    def test_exact_match_wins(self):
        R = {
            "alice": _poiset("alice", (0, 0), (2000, 0)),
            "bob": _poiset("bob", (9000, 0), (11000, 0)),
        }
        assert most_likely_user(R["alice"], R) == "alice"
        assert most_likely_user(R["bob"], R) == "bob"

    def test_single_candidate(self):
        R = {"only": _poiset("only", (0, 0))}
        assert most_likely_user(_poiset("x", (99000, 0)), R) == "only"

    def test_tie_takes_smallest_identifier(self):
        same = _poiset("x", (0, 0))
        R = {"zeta": same, "alpha": same}
        assert most_likely_user(same, R) == "alpha"

    def test_translation_invariance(self):
        # shifting every set by the same city-scale displacement keeps the choice
        gen = np.random.Generator(np.random.PCG64(6))
        R = {
            f"u{i}": PoiSet(
                f"u{i}",
                tuple(_poi(float(gen.uniform(0, 8000)), float(gen.uniform(0, 8000))) for _ in range(3)),
            )
            for i in range(5)
        }
        anon = PoiSet("anon", tuple(_poi(float(gen.uniform(0, 8000)), float(gen.uniform(0, 8000))) for _ in range(3)))

        def shift(ps, dx, dy):
            return PoiSet(ps.user, tuple(Poi(offset(p.centroid, dx, dy), p.support) for p in ps.pois))

        for dx, dy in ((300, -500), (-900, 200), (1000, 1000)):
            shifted_R = {u: shift(ps, dx, dy) for u, ps in R.items()}
            assert most_likely_user(shift(anon, dx, dy), shifted_R) == most_likely_user(anon, R)


class TestReidentificationRate:
    def test_identity_linking_with_disjoint_users(self):
        R = {f"u{i}": _poiset(f"u{i}", (i * 3000, 0), (i * 3000, 2000)) for i in range(6)}
        assert reidentification_rate(R, dict(R)) == 1.0

    def test_partial_linking(self):
        R = {
            "a": _poiset("a", (0, 0)),
            "b": _poiset("b", (10000, 0)),
        }
        O = {
            "a": _poiset("a", (100, 0)),      # still closest to a
            "b": _poiset("b", (400, 0)),      # now closest to a: miss
        }
        assert reidentification_rate(R, O) == 0.5

    def test_empty_obfuscated_sets_are_misses(self):
        # an empty set names no one, not the first sorted user
        R = {"b": _poiset("b", (5000, 0)), "a": _poiset("a", (0, 0))}
        assert reidentification_rate(R, {"a": PoiSet("a", ()), "b": PoiSet("b", ())}) == 0.0

    def test_memory_follows_the_block_budget(self):
        # 10 anonymous sets of 12 POIs against 400 one-POI candidates, with
        # blocks of two sets: the (3, 24, 400) chord difference of a block
        # fills the budget of 28,800 cells. Blocks sized by the chord matrix
        # alone would take five sets and a difference three times the
        # budget, and peak near seven budgets of float64 (1.6 MB); the
        # scores, the table and the chords of a block stay under five
        n, sets, width = 400, 10, 12
        real = {f"u{i:03d}": _poiset(f"u{i:03d}", (5000.0 * i, 0.0)) for i in range(n)}
        obf = {
            u: _poiset(u, *[(5000.0 * i, 10.0 * j) for j in range(width)]) if i < sets else PoiSet(u, ())
            for i, u in enumerate(real)
        }
        cells = 6 * width * n
        with mock.patch.object(metrics_module, "_BLOCK_CELLS", cells):
            tracemalloc.start()
            try:
                rate = reidentification_rate(real, obf)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert rate == sets / n
        assert peak < 5 * 8 * cells

    def test_requires_matching_users(self):
        R = {"a": _poiset("a", (0, 0))}
        with pytest.raises(ValueError):
            reidentification_rate(R, {"b": _poiset("b", (0, 0))})
        with pytest.raises(ValueError):
            reidentification_rate({}, {})


class _NorthPole:
    """Uniforms that point the noise north with the largest radius draws."""

    def __init__(self):
        self._draws = iter([0.25, 1.0 - 2**-53, 1.0 - 2**-53])

    def uniforms(self, n):
        return np.array([next(self._draws) for _ in range(n)])


class TestQueryPrecision:
    def _grid_store(self, spacing=100.0, half=30):
        feats = []
        for i in range(-half, half + 1):
            for j in range(-half, half + 1):
                feats.append(
                    Feature(f"g{i + half:02d}_{j + half:02d}", offset(BASE, i * spacing, j * spacing), "restaurant")
                )
        return FeatureStore.build(feats)

    def test_zero_noise_is_exact(self):
        store = self._grid_store(spacing=300.0, half=10)
        got = query_precision(BASE, PrivacyLevel.zero_noise(), store, 500.0, 0.85, RandomSource(1))
        assert got == 1.0

    def test_superset_retrieval_fraction(self):
        # degenerate stream: zero displacement, so the enlarged disc is a
        # superset of the honest one and precision is |real| / |retrieved|
        class _ZeroStream:
            def uniforms(self, n):
                return np.zeros(n)

        store = self._grid_store()
        level = PrivacyLevel(0.002)
        from geopriv.mechanism import inverse_radius_cdf

        radius = 500.0
        enlarged = radius + inverse_radius_cdf(level, 0.85)
        real = len(store.range_query(BASE, radius))
        retrieved = len(store.range_query(BASE, enlarged))
        got, n = precision_trial(BASE, level, store, radius, 0.85, _ZeroStream())
        assert n == retrieved
        assert got == pytest.approx(real / retrieved)

    def test_empty_retrieval_convention(self):
        store = FeatureStore.build([Feature("far", offset(BASE, 50_000, 0), "x")])
        got, n = precision_trial(BASE, PrivacyLevel.zero_noise(), store, 100.0, 0.85, RandomSource(2))
        assert (got, n) == (1.0, 0)

    def test_alpha_validation(self):
        store = self._grid_store(half=2)
        with pytest.raises(ValueError):
            query_precision(BASE, MEDIUM, store, 500.0, 0.0, RandomSource(1))
        with pytest.raises(ValueError):
            query_precision(BASE, MEDIUM, store, 0.0, 0.5, RandomSource(1))

    def test_noise_past_the_pole_is_refused(self):
        store = self._grid_store(half=2)
        with pytest.raises(ValueError, match="past the pole"):
            precision_trial(GeoPoint(88.9, 5.0), PrivacyLevel(1e-7), store, 500.0, 0.85, _NorthPole())

    def test_category_filter_applies_to_both_queries(self):
        feats = [
            Feature("r1", offset(BASE, 50, 0), "restaurant"),
            Feature("s1", offset(BASE, 60, 0), "shop"),
            Feature("r2", offset(BASE, 900, 0), "restaurant"),
        ]
        store = FeatureStore.build(feats)
        got = query_precision(BASE, PrivacyLevel.zero_noise(), store, 200.0, 0.85, RandomSource(3), "restaurant")
        assert got == 1.0

    def test_raising_alpha_never_shrinks_retrieval(self):
        from geopriv.mechanism import inverse_radius_cdf

        store = self._grid_store()
        level = PrivacyLevel(0.003)
        z = offset(BASE, 700, -300)  # any fixed obfuscated report
        previous: set[str] = set()
        for alpha in (0.1, 0.5, 0.85, 0.99):
            radius = 500.0 + inverse_radius_cdf(level, alpha)
            ids = {f.id for f in store.range_query(z, radius)}
            assert previous <= ids
            previous = ids


# Linking worlds on a coarse degree grid around a drawn origin. Users
# share one base set through variants: duplicates, mirror images about the
# origin's parallel or meridian, ulp-translates and metre-translates. At
# origin (0, 0) mirror images tie exactly; elsewhere they and the
# ulp-translates tie within float noise, where chord and haversine can rank
# candidates differently. Anonymous sets on the mirror axes sit at equal
# distance from both images. Strays sit a continent away or near the
# antipode of (0, 0).
_GRID = st.integers(-6, 6).map(lambda i: i * 0.002)
_STRAYS = (GeoPoint(48.85, 2.35), GeoPoint(0.0, 180.0), GeoPoint(0.0005, -179.9995), GeoPoint(-0.001, 179.999))


@st.composite
def _linking_worlds(draw):
    lat0, lon0 = draw(st.sampled_from(((0.0, 0.0), (37.7, -122.4), (-33.9, 151.2), (51.5, -0.1))))

    def point():
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(_STRAYS))
        on_axis = draw(st.sampled_from((None, "lat", "lon")))
        lat = lat0 if on_axis == "lat" else lat0 + draw(_GRID)
        lon = lon0 if on_axis == "lon" else lon0 + draw(_GRID)
        return GeoPoint(lat, lon)

    def fresh():
        return tuple(point() for _ in range(draw(st.integers(1, 4))))

    def variant(points):
        up = draw(st.booleans())
        move = draw(st.sampled_from((
            lambda p: p,
            lambda p: GeoPoint(2 * lat0 - p.lat, p.lon),
            lambda p: GeoPoint(p.lat, 2 * lon0 - p.lon),
            lambda p: GeoPoint(p.lat, float(np.nextafter(p.lon, math.inf if up else -math.inf))),
            lambda p: GeoPoint(p.lat, p.lon + 1e-5),  # about a metre east
        )))
        return tuple(p if p in _STRAYS else move(p) for p in points)

    ids = draw(st.permutations(draw(st.lists(
        st.sampled_from(("a", "b", "c", "u1", "u2", "u10", "u9", "z", "B")),
        min_size=1, max_size=7, unique=True,
    ))))
    base = fresh()
    real = {}
    for user in ids:
        kind = draw(st.sampled_from(("base", "base", "fresh", "empty")))
        real[user] = variant(base) if kind == "base" else fresh() if kind == "fresh" else ()
    obf = {}
    for user in ids:
        kind = draw(st.sampled_from(("own", "other", "base", "fresh", "empty")))
        if kind == "own":
            obf[user] = variant(real[user])
        elif kind == "other":
            obf[user] = variant(real[draw(st.sampled_from(ids))])
        elif kind == "base":
            obf[user] = variant(base)
        else:
            obf[user] = fresh() if kind == "fresh" else ()

    def poiset(user, points):
        return PoiSet(user, tuple(Poi(p, 1) for p in points))

    return (
        {u: poiset(u, pts) for u, pts in real.items()},
        {u: poiset(u, pts) for u, pts in obf.items()},
    )


class TestReidentificationOracle:
    @settings(max_examples=400, deadline=None)
    @given(_linking_worlds())
    def test_rate_matches_literal_loop(self, world):
        real, obf = world
        assert reidentification_rate(real, obf) == reidentification_rate_literal(real, obf)


@st.composite
def _remap_cases(draw):
    """An obfuscated and a real POI set around a drawn origin, on the
    linking worlds' grid: images of real POIs (duplicates with another
    support, mirror images about the origin's parallel or meridian,
    ulp-translates, metre-translates), obfuscated POIs on the mirror axes,
    and strays a continent away or near the antipode of (0, 0), whose
    chords to the grid differ by millimetres. At origin (0, 0) mirror
    images tie exactly."""
    lat0, lon0 = draw(st.sampled_from(((0.0, 0.0), (37.7, -122.4), (-33.9, 151.2), (51.5, -0.1))))

    def point():
        if draw(st.integers(0, 5)) == 0:
            return draw(st.sampled_from(_STRAYS))
        on_axis = draw(st.sampled_from((None, "lat", "lon")))
        lat = lat0 if on_axis == "lat" else lat0 + draw(_GRID)
        lon = lon0 if on_axis == "lon" else lon0 + draw(_GRID)
        return GeoPoint(lat, lon)

    def image(p):
        if p in _STRAYS:
            return p
        up = draw(st.booleans())
        return draw(st.sampled_from((
            lambda p: p,
            lambda p: GeoPoint(2 * lat0 - p.lat, p.lon),
            lambda p: GeoPoint(p.lat, 2 * lon0 - p.lon),
            lambda p: GeoPoint(p.lat, float(np.nextafter(p.lon, math.inf if up else -math.inf))),
            lambda p: GeoPoint(p.lat, p.lon + 1e-5),
        )))(p)

    def poiset(user, points):
        return PoiSet(user, tuple(Poi(p, draw(st.integers(1, 3))) for p in points))

    real = [point() for _ in range(draw(st.integers(1, 5)))]
    real += [image(p) for p in draw(st.lists(st.sampled_from(real), max_size=4))]
    obf = [point() for _ in range(draw(st.integers(0, 4)))]
    obf += [image(p) for p in draw(st.lists(st.sampled_from(real), max_size=3))]
    return poiset("u", obf), poiset("u", real)


class TestNearestOracle:
    """remap and poi_set_distance decide on chords and re-check a band
    exactly; each must equal the scalar loop."""

    @settings(max_examples=400, deadline=None)
    @given(_remap_cases())
    def test_matches_literal_loops(self, case):
        obf, real = case
        want = remap_literal(obf, real)
        got = remap(obf, real)
        assert [(p.real_index, p.distance_m) for p in got.pairs] == want
        assert [(p.obfuscated, p.real) for p in got.pairs] == [(o, real.pois[i]) for o, (i, _) in zip(obf.pois, want)]
        assert poi_set_distance(obf, real) == poi_set_distance_literal(obf, real)
        assert poi_set_distance(real, obf) == poi_set_distance_literal(real, obf)


def _destination(p: GeoPoint, bearing: float, d: float) -> GeoPoint:
    """The point d metres from p along the initial bearing (radians)."""
    phi, lam, delta = math.radians(p.lat), math.radians(p.lon), d / EARTH_RADIUS_M
    phi2 = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(bearing))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi), math.cos(delta) - math.sin(phi) * math.sin(phi2)
    )
    return GeoPoint(math.degrees(phi2), (math.degrees(lam2) + 180.0) % 360.0 - 180.0)


@st.composite
def _precision_trials(draw):
    c = GeoPoint(draw(st.floats(-60.0, 60.0)), draw(st.floats(-180.0, 180.0)))
    level = PrivacyLevel(draw(st.sampled_from((0.0005, 0.002, 0.01))))
    alpha = draw(st.sampled_from((0.5, 0.85, 0.95)))
    radius = draw(st.one_of(st.floats(0.1, 3.0), st.floats(3.0, 3000.0)))
    seed = draw(st.integers(0, 2**32))
    lat, lon = perturb(np.array([c.lat]), np.array([c.lon]), level, RandomSource(seed))
    z = GeoPoint(float(lat[0]), float(lon[0]))
    enlarged = radius + inverse_radius_cdf(level, alpha)
    bearings = st.floats(0.0, 2.0 * math.pi)
    shifts = st.sampled_from((-1.0, -1e-3, 0.0, 1e-3, 1.0))
    points = [_destination(c, draw(bearings), radius + draw(shifts)) for _ in range(draw(st.integers(0, 6)))]
    points += [_destination(z, draw(bearings), enlarged + draw(shifts)) for _ in range(draw(st.integers(0, 6)))]
    points += [_destination(c, draw(bearings), draw(st.floats(0.0, 2.0 * enlarged))) for _ in range(draw(st.integers(0, 6)))]
    features = [Feature(f"f{i:02d}", p, draw(st.sampled_from(("x", "y")))) for i, p in enumerate(points)]
    if features and draw(st.booleans()):
        # a radius that lands exactly on one feature's distance
        radius = max(distance(c, draw(st.sampled_from(features)).point), 0.1)
    return c, level, features, radius, alpha, seed, draw(st.sampled_from((None, "x")))


class TestPrecisionTrialOracle:
    @settings(max_examples=300, deadline=None)
    @given(_precision_trials())
    def test_trial_matches_two_brute_force_queries(self, trial):
        c, level, features, radius, alpha, seed, category = trial
        store = FeatureStore.build(features)
        got = precision_trial(c, level, store, radius, alpha, RandomSource(seed), category)
        assert got == precision_trial_literal(c, level, features, radius, alpha, RandomSource(seed), category)


@st.composite
def _precision_studies(draw):
    """A few short traces around one point, features on and beside the
    honest disc of some trace points, and a precision configuration whose
    query blocks hold 1 to 4 trials, so most sample counts cross one."""
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    lat0, lon0 = draw(st.floats(-60.0, 60.0)), draw(st.floats(-180.0, 180.0))
    traces = {}
    for u in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 8))
        lat = lat0 + gen.uniform(-0.01, 0.01, n)
        lon = (lon0 + gen.uniform(-0.01, 0.01, n) + 180.0) % 360.0 - 180.0
        traces[f"u{u}"] = MobilityTrace.from_columns(f"u{u}", np.arange(n) * 60, lat, lon)
    dataset = Dataset(traces)
    cfg = PrecisionConfig(
        radius_m=draw(st.sampled_from((50.0, 300.0, 1000.0))),
        alpha=draw(st.sampled_from((0.5, 0.85))),
        samples=draw(st.integers(1, 40)),
        category=draw(st.sampled_from((None, "x"))),
    )
    points = [loc.point for trace in traces.values() for loc in trace.locations]
    bearings = st.floats(0.0, 2.0 * math.pi)
    shifts = st.sampled_from((-1.0, -1e-3, 0.0, 1e-3, 1.0))
    spots = [_destination(draw(st.sampled_from(points)), draw(bearings), cfg.radius_m + draw(shifts))
             for _ in range(draw(st.integers(0, 10)))]
    spots += [_destination(draw(st.sampled_from(points)), draw(bearings), draw(st.floats(0.0, 3000.0)))
              for _ in range(draw(st.integers(0, 20)))]
    features = [Feature(f"f{i:02d}", p, draw(st.sampled_from(("x", "y")))) for i, p in enumerate(spots)]
    level = draw(st.sampled_from((PrivacyLevel.zero_noise(), PrivacyLevel(0.0005), PrivacyLevel(0.002),
                                  PrivacyLevel(0.01))))
    return dataset, level, features, cfg, draw(st.integers(0, 2**32)), draw(st.integers(1, 4))


class TestPrecisionSummaryOracle:
    @settings(max_examples=200, deadline=None)
    @given(_precision_studies())
    def test_blocked_pass_matches_a_loop_of_literal_trials(self, study):
        dataset, level, features, cfg, seed, block_rows = study
        store = FeatureStore.build(features)
        with mock.patch.object(features_module, "_BLOCK_CELLS", block_rows * max(len(features), 1)):
            row = precision_summary(dataset, level, store, cfg, seed)
        assert (row.mean_precision, row.n_empty) == precision_summary_literal(dataset, level, features, cfg, seed)
