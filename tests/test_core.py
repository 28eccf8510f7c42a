import math
import pickle

import numpy as np
import pytest

from geopriv.core import (
    GeoPoint,
    MobilityTrace,
    PoiSet,
    Poi,
    TimestampedLocation,
    centroid,
    chord_xyz,
    distance,
    sequential_sum,
)

from oracles import offset

EARTH_RADIUS_M = 6_371_000.0


class TestGeoPoint:
    def test_validates_ranges(self):
        GeoPoint(90, 180)
        GeoPoint(-90, -180)
        with pytest.raises(ValueError):
            GeoPoint(91, 0)
        with pytest.raises(ValueError):
            GeoPoint(0, 181)
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0)


class TestDistance:
    def test_identity(self):
        assert distance(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_antipodal_equator_points(self):
        # half the circumference
        assert distance(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(
            math.pi * EARTH_RADIUS_M, rel=1e-12
        )

    def test_one_degree_of_latitude(self):
        expected = math.pi / 180.0 * EARTH_RADIUS_M
        assert distance(GeoPoint(0, 0), GeoPoint(1, 0)) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_nonnegativity_triangle(self):
        # 10^4 random triples; the great circle is a metric, so the
        # triangle inequality must hold up to float slack.
        gen = np.random.Generator(np.random.PCG64(2024))
        for _ in range(10_000):
            pts = [
                GeoPoint(float(gen.uniform(-89, 89)), float(gen.uniform(-180, 180)))
                for _ in range(3)
            ]
            dab = distance(pts[0], pts[1])
            dba = distance(pts[1], pts[0])
            dac = distance(pts[0], pts[2])
            dcb = distance(pts[2], pts[1])
            assert dab == dba
            assert dab >= 0.0
            assert dab <= dac + dcb + 1e-6 * max(dab, 1.0)

    def test_zero_iff_identical(self):
        a = GeoPoint(12.5, -33.25)
        assert distance(a, a) == 0.0
        assert distance(a, GeoPoint(12.5, -33.250001)) > 0.0


class TestSequentialSum:
    """The report means and centroids add left to right, each addition
    rounded, on every Python version; Python 3.12's sum() of floats is
    compensated and would give other bits."""

    def test_pins_left_to_right_rounding(self):
        assert sequential_sum([0.1] * 10) == 0.9999999999999999
        assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
        assert sequential_sum([1.0, 1e16, -1e16]) == 0.0
        assert sequential_sum([1e16, -1e16, 1.0]) == 1.0

    def test_equals_a_loop_of_additions(self):
        gen = np.random.Generator(np.random.PCG64(3))
        for n in (1, 2, 5, 40):
            values = (gen.standard_normal(n) * 10.0 ** gen.integers(-3, 17, n)).tolist()
            total = 0.0
            for v in values:
                total += v
            assert sequential_sum(values) == total
            assert sequential_sum(iter(values)) == total

    def test_empty_and_signed_zero(self):
        assert sequential_sum([]) == 0.0
        assert math.copysign(1.0, sequential_sum([-0.0])) == 1.0

    def test_centroid_adds_in_order(self):
        c = centroid([GeoPoint(0.1, 0.1)] * 10)
        assert c == GeoPoint(0.9999999999999999 / 10, 0.9999999999999999 / 10)


class TestCentroid:
    def test_singleton(self):
        assert centroid([GeoPoint(10, 20)]) == GeoPoint(10, 20)

    def test_midpoint(self):
        assert centroid([GeoPoint(0, 0), GeoPoint(2, 0)]) == GeoPoint(1, 0)

    def test_three_points(self):
        assert centroid([GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 2)]) == GeoPoint(0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            centroid([])

    def test_repeated_point_is_fixed(self):
        p = GeoPoint(48.85, 2.35)
        for n in (1, 2, 7):
            c = centroid([p] * n)
            assert c.lat == pytest.approx(p.lat, abs=1e-12)
            assert c.lon == pytest.approx(p.lon, abs=1e-12)


class TestOffset:
    def test_zero_displacement(self):
        assert offset(GeoPoint(0, 0), 0, 0) == GeoPoint(0, 0)

    def test_meters_per_degree_constant(self):
        assert offset(GeoPoint(0, 0), 0, 111_320) == GeoPoint(1.0, 0.0)

    def test_pythagorean_round_trip(self):
        p = GeoPoint(45, 5)
        d = distance(p, offset(p, 300, 400))
        assert d == pytest.approx(500.0, rel=0.005)

    def test_polar_region_rejected(self):
        with pytest.raises(ValueError, match="polar"):
            offset(GeoPoint(89.5, 0), 10, 10)

    def test_round_trip_property(self):
        # random points and displacements up to 10 km at |lat| <= 60
        gen = np.random.Generator(np.random.PCG64(99))
        for _ in range(2_000):
            p = GeoPoint(float(gen.uniform(-60, 60)), float(gen.uniform(-179, 179)))
            dx = float(gen.uniform(-10_000, 10_000))
            dy = float(gen.uniform(-10_000, 10_000))
            want = math.hypot(dx, dy)
            if want < 1.0:
                continue
            got = distance(p, offset(p, dx, dy))
            assert got == pytest.approx(want, rel=0.005)

    def test_antimeridian_wrap(self):
        q = offset(GeoPoint(0, 179.9999), 5_000, 0)
        assert -180.0 <= q.lon <= 180.0
        assert distance(GeoPoint(0, 179.9999), q) == pytest.approx(5_000, rel=0.005)


class TestTraceModel:
    def test_trace_must_be_sorted(self):
        a = TimestampedLocation(10, GeoPoint(0, 0))
        b = TimestampedLocation(5, GeoPoint(0, 0))
        with pytest.raises(ValueError, match="sorted"):
            MobilityTrace("u", (a, b))

    def test_trace_keeps_tie_order(self):
        a = TimestampedLocation(5, GeoPoint(1, 0))
        b = TimestampedLocation(5, GeoPoint(2, 0))
        tr = MobilityTrace("u", [a, b])
        assert tr.locations == (a, b)

    def test_empty_trace_has_typed_empty_columns(self):
        tr = MobilityTrace("u", ())
        assert (tr.t.dtype, tr.lat.dtype, tr.lon.dtype) == (np.int64, np.float64, np.float64)
        assert len(tr.t) == len(tr.lat) == len(tr.lon) == 0
        assert tr == MobilityTrace.from_columns("u", [], [], [])

    def test_columns_and_view(self):
        a = TimestampedLocation(5, GeoPoint(1.5, 2.5))
        b = TimestampedLocation(7, GeoPoint(-3.0, 4.0))
        tr = MobilityTrace.from_columns("u", [5, 7], [1.5, -3.0], [2.5, 4.0])
        assert tr == MobilityTrace("u", (a, b))
        assert tr.locations == (a, b)
        assert tr.locations is tr.locations  # built once
        assert pickle.loads(pickle.dumps(tr)) == tr
        assert tr != MobilityTrace.from_columns("v", [5, 7], [1.5, -3.0], [2.5, 4.0])
        assert tr != MobilityTrace.from_columns("u", [5, 7], [1.5, -3.0], [2.5, 4.5])
        with pytest.raises(ValueError):
            tr.lat[0] = 0.0
        with pytest.raises(AttributeError):
            tr.user = "v"

    @pytest.mark.parametrize(
        "t, lat, lon, message",
        [
            ([2, 1], [0, 0], [0, 0], "sorted"),
            ([-1, 1], [0, 0], [0, 0], "before epoch"),
            ([2**63], [0], [0], "int64"),
            ([1, 2], [0, float("nan")], [0, 0], "latitude"),
            ([1, 2], [0, -90.5], [0, 0], "latitude"),
            ([1], [0], [float("nan")], "longitude"),
            ([1], [0], [180.25], "longitude"),
            ([1, 2], [0], [0, 0], "equal length"),
        ],
    )
    def test_from_columns_validates(self, t, lat, lon, message):
        with pytest.raises(ValueError, match=message):
            MobilityTrace.from_columns("u", t, lat, lon)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            TimestampedLocation(-1, GeoPoint(0, 0))

    def test_poiset_chord_coordinates_follow_its_order(self):
        ps = PoiSet("u", (Poi(GeoPoint(2.0, 1.0), 1), Poi(GeoPoint(1.0, 3.0), 2)))
        assert np.array_equal(ps.xyz, chord_xyz([1.0, 2.0], [3.0, 1.0]))
        assert ps.xyz is ps.xyz and not ps.xyz.flags.writeable
        assert PoiSet("u", ()).xyz.shape == (0, 3)
        assert pickle.loads(pickle.dumps(ps)) == ps

    def test_poiset_orders_deterministically(self):
        p1 = Poi(GeoPoint(2, 0), 2)
        p2 = Poi(GeoPoint(1, 5), 3)
        p3 = Poi(GeoPoint(1, 2), 4)
        ps = PoiSet("u", (p1, p2, p3))
        assert ps.pois == (p3, p2, p1)
