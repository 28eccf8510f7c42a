import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import lambertw

import geopriv
from geopriv.core import GeoPoint, MobilityTrace, TimestampedLocation, distance
from geopriv.experiment import DEFAULT_LEVELS
from geopriv.mechanism import (
    PrivacyLevel,
    RandomSource,
    derive_seed,
    inverse_radius_cdf,
    obfuscate_trace,
    perturb,
    sample_radii,
)

from oracles import inverse_radius_cdf_bisect, offset, radius_cdf

STRONG = PrivacyLevel.from_level(math.log(2), 500.0)
MEDIUM = PrivacyLevel.from_level(math.log(6), 500.0)
WEAK = PrivacyLevel.from_level(math.log(4), 200.0)


class _ZeroStream:
    """Degenerate source: every uniform is 0, so every log argument is 1."""

    def uniforms(self, n):
        return np.zeros(n)


class _NoDraws:
    """A source that fails the test if anything draws from it."""

    def uniforms(self, n):
        raise AssertionError("drew from the stream")


class TestPrivacyLevel:
    def test_stock_epsilons_to_three_figures(self):
        assert STRONG.epsilon == pytest.approx(0.00139, abs=5e-6)
        assert MEDIUM.epsilon == pytest.approx(0.00358, abs=5e-6)
        assert WEAK.epsilon == pytest.approx(0.00693, abs=5e-6)

    def test_from_level_is_ratio(self):
        assert PrivacyLevel.from_level(1.0, 200.0).epsilon == 0.005

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PrivacyLevel(0.0)
        with pytest.raises(ValueError):
            PrivacyLevel.from_level(-1.0, 500.0)
        with pytest.raises(ValueError):
            PrivacyLevel.from_level(1.0, 0.0)

    def test_zero_noise_is_infinite_epsilon(self):
        assert PrivacyLevel.zero_noise() == PrivacyLevel(math.inf)
        tr = MobilityTrace("u", (TimestampedLocation(0, GeoPoint(45.0, 5.0)),))
        assert obfuscate_trace(tr, PrivacyLevel(math.inf), RandomSource(1)) is tr


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(123456789)
        b = RandomSource(123456789)
        assert a.uniforms(100).tolist() == b.uniforms(100).tolist()

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(1 << 64)

    def test_derive_seed_stable_and_distinct(self):
        s = derive_seed(42, "run:0")
        assert s == derive_seed(42, "run:0")
        assert s != derive_seed(42, "run:1")
        assert s != derive_seed(43, "run:0")
        assert 0 <= s < (1 << 64)

    @pytest.mark.parametrize("base", [-1, 1 << 64])
    def test_derive_seed_refuses_a_base_outside_64_bits(self, base):
        # -1 and 2**64 - 1 agree mod 2**64: a mask would give them the same streams
        with pytest.raises(ValueError, match=f"seed must fit in 64 bits, got {base}"):
            derive_seed(base, "run:0")

    def test_derive_seed_takes_the_largest_64_bit_base(self):
        s = derive_seed((1 << 64) - 1, "run:0")
        assert 0 <= s < (1 << 64) and s != derive_seed(0, "run:0")


class TestSampleRadius:
    def test_degenerate_stream_gives_zero(self):
        assert sample_radii(MEDIUM, _ZeroStream(), 4).tolist() == [0.0] * 4

    def test_zero_noise_gives_zero(self):
        assert sample_radii(PrivacyLevel.zero_noise(), _NoDraws(), 3).tolist() == [0.0] * 3

    def test_mean_matches_gamma(self):
        radii = sample_radii(MEDIUM, RandomSource(7), 200_000)
        assert radii.mean() == pytest.approx(2.0 / MEDIUM.epsilon, rel=0.01)

    def test_empirical_median_matches_cdf_root(self):
        # the median radius solves (1 + eps*r) * exp(-eps*r) = 1/2
        target = inverse_radius_cdf_bisect(MEDIUM, 0.5)
        assert MEDIUM.epsilon * target == pytest.approx(1.6783, abs=1e-3)
        radii = sample_radii(MEDIUM, RandomSource(8), 200_000)
        assert float(np.median(radii)) == pytest.approx(target, rel=0.01)

    def test_gamma_path_matches_inverse_transform_path(self):
        # same distribution through two unrelated samplers
        direct = sample_radii(MEDIUM, RandomSource(9), 100_000)
        u = RandomSource(10).uniforms(100_000)
        transformed = np.array([inverse_radius_cdf(MEDIUM, p) for p in u])
        ks = stats.ks_2samp(direct, transformed).statistic
        # 1 % critical value for the two-sample statistic
        assert ks < 1.628 * math.sqrt(2.0 / 100_000)


class TestRadiusCdf:
    def test_at_zero(self):
        assert radius_cdf(MEDIUM, 0.0) == 0.0

    def test_limit_is_one(self):
        assert radius_cdf(STRONG, 1e9) >= 1.0 - 1e-12

    def test_direct_arithmetic_value(self):
        level = PrivacyLevel(0.00139)
        assert radius_cdf(level, 2000.0) == pytest.approx(1.0 - 3.78 * math.exp(-2.78), rel=1e-12)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            radius_cdf(MEDIUM, -1.0)


class TestInverseRadiusCdf:
    def test_at_zero(self):
        assert inverse_radius_cdf(MEDIUM, 0.0) == 0.0

    def test_against_bisection_oracle(self):
        r = inverse_radius_cdf(STRONG, 0.85)
        oracle = inverse_radius_cdf_bisect(STRONG, 0.85)
        assert r == pytest.approx(oracle, rel=1e-6)
        # and it solves (1 + eps*r) * exp(-eps*r) = 0.15
        x = STRONG.epsilon * r
        assert (1 + x) * math.exp(-x) == pytest.approx(0.15, abs=1e-12)

    def test_round_trip_on_grid(self):
        for level in (STRONG, MEDIUM, WEAK):
            for i in range(1, 100):
                p = i / 100.0
                assert abs(radius_cdf(level, inverse_radius_cdf(level, p)) - p) <= 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            inverse_radius_cdf(MEDIUM, 1.0)
        with pytest.raises(ValueError):
            inverse_radius_cdf(MEDIUM, -0.1)

    def test_zero_noise_quantile_is_zero(self):
        assert inverse_radius_cdf(PrivacyLevel.zero_noise(), 0.85) == 0.0

    # p log-uniform down to 1e-12, where scipy's W_{-1} breaks down, or
    # uniform over the rest of (0, 1)
    @settings(max_examples=300, deadline=None)
    @given(
        level=st.sampled_from(DEFAULT_LEVELS),
        p=st.one_of(
            st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
            st.floats(1e-12, 1.0 - 1e-12),
        ).filter(lambda p: 1e-12 <= p <= 1.0 - 1e-12),
    )
    @example(level=DEFAULT_LEVELS[1], p=1e-10)
    @example(level=DEFAULT_LEVELS[0], p=0.85)
    @example(level=DEFAULT_LEVELS[1], p=0.85)
    @example(level=DEFAULT_LEVELS[2], p=0.85)
    def test_relative_round_trip_and_lambert_w(self, level, p):
        r = inverse_radius_cdf(level, p)
        x = level.epsilon * r
        assert abs(-math.expm1(-x) - x * math.exp(-x) - p) <= 1e-9 * p
        if 0.05 <= p <= 0.999:
            # the closed form r = -(W_{-1}((p - 1)/e) + 1) / eps, where
            # scipy evaluates it accurately
            closed = -(float(lambertw((p - 1.0) / math.e, k=-1).real) + 1.0) / level.epsilon
            assert abs(r - closed) <= 32 * math.ulp(closed)
            if p == 0.85:
                assert r == closed

    def test_package_import_leaves_scipy_unloaded(self, tmp_path):
        # a fresh interpreter in which any import of scipy raises: a study
        # with precision trials, its report and the precision command
        src = str(Path(geopriv.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
        code = textwrap.dedent(
            """
            import sys
            sys.modules["scipy"] = None
            import geopriv
            from click.testing import CliRunner
            from geopriv.cli import main
            from geopriv.experiment import (
                ExperimentConfig, PrecisionConfig, SweepConfig, run_experiment, write_report,
            )
            from geopriv.features import FeatureStore, generate_synthetic_features
            from geopriv.ingest import write_canonical
            from geopriv.poi import ExtractionParams
            from synth import dataset_bounds, planted_dataset

            dataset, _ = planted_dataset(n_users=2, n_pois=2, points_per_dwell=31, point_interval_s=60)
            bounds = dataset_bounds(dataset, 3000)
            store = FeatureStore.build(generate_synthetic_features(5, bounds, density_per_km2=8.0))
            config = ExperimentConfig(
                runs=1,
                extraction=ExtractionParams(min_time=900),
                sweep=SweepConfig(min_m=1000, max_m=2000, step_m=1000),
                precision=PrecisionConfig(samples=5),
            )
            write_report(run_experiment(dataset, config, store), "report")
            with open("traces.csv", "w", newline="") as fh:
                write_canonical(dataset, fh)
            result = CliRunner().invoke(main, [
                "precision", "--input", "traces.csv", "--epsilon", "0.00693", "--samples", "5",
                "--synthetic", "density=8,seed=5,bbox=" + ",".join(map(str, bounds)),
            ], catch_exceptions=False)
            assert result.exit_code == 0, result.output
            """
        )
        subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True)
        assert (tmp_path / "report" / "precision.csv").exists()


class TestObfuscatePoint:
    """One point through the array path (n = 1), as precision_trial uses it."""

    def test_zero_noise_identity(self):
        lat, lon = np.array([45.0]), np.array([5.0])
        got = perturb(lat, lon, PrivacyLevel.zero_noise(), _NoDraws())
        assert got[0] is lat and got[1] is lon

    def test_fixed_seed_reproduces(self):
        a = perturb(np.array([45.0]), np.array([5.0]), MEDIUM, RandomSource(11))
        b = perturb(np.array([45.0]), np.array([5.0]), MEDIUM, RandomSource(11))
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()

    def test_draw_order_is_bearing_then_two_radius_uniforms(self):
        p = GeoPoint(45.0, 5.0)
        lat, lon = perturb(np.array([p.lat]), np.array([p.lon]), MEDIUM, RandomSource(11))
        u = RandomSource(11).uniforms(3).tolist()
        theta = 2.0 * math.pi * u[0]
        r = -(math.log(1.0 - u[1]) + math.log(1.0 - u[2])) / MEDIUM.epsilon
        want = offset(p, r * math.cos(theta), r * math.sin(theta))
        assert float(lat[0]) == pytest.approx(want.lat, abs=1e-12)
        assert float(lon[0]) == pytest.approx(want.lon, abs=1e-12)

    def test_mean_displacement(self):
        # Monte Carlo against the Gamma(2, eps) mean 2/eps
        p = GeoPoint(45.0, 5.0)
        trace = MobilityTrace("u", tuple(TimestampedLocation(i, p) for i in range(100_000)))
        noisy = obfuscate_trace(trace, MEDIUM, RandomSource(12))
        mean = np.mean([distance(p, loc.point) for loc in noisy.locations])
        assert mean == pytest.approx(2.0 / MEDIUM.epsilon, rel=0.01)

    def test_polar_region_propagates(self):
        with pytest.raises(ValueError, match="polar"):
            perturb(np.array([89.9]), np.array([0.0]), MEDIUM, RandomSource(1))


class _Blocks:
    """A source whose k-th ``uniforms`` call returns ``values[k]`` n times:
    bearings, then the two radius blocks."""

    def __init__(self, *values):
        self._values = list(values)

    def uniforms(self, n):
        return np.full(n, self._values.pop(0))


class TestObfuscateTrace:
    def test_noise_past_the_pole_names_user_and_latitude(self):
        # bearing 0.25 turns due north; 1 - u of 1e-6 twice gives a radius
        # of 27.6 / epsilon = 276 km, 2.48 degrees past 88.99
        trace = MobilityTrace.from_columns("polar", [0, 60], [10.0, 88.99], [5.0, 5.0])
        with pytest.raises(ValueError, match=r"user 'polar' to latitude 91\.4"):
            obfuscate_trace(trace, PrivacyLevel(1e-4), _Blocks(0.25, 0.999999, 0.999999))


    def _trace(self, n=50):
        return MobilityTrace(
            "u", tuple(TimestampedLocation(10 * i, GeoPoint(45.0, 5.0)) for i in range(n))
        )

    def test_empty(self):
        empty = MobilityTrace("u", ())
        assert obfuscate_trace(empty, MEDIUM, RandomSource(1)) is empty

    def test_zero_noise_identity(self):
        tr = self._trace()
        assert obfuscate_trace(tr, PrivacyLevel.zero_noise(), RandomSource(1)) is tr

    def test_shape_user_timestamps_preserved(self):
        tr = self._trace()
        noisy = obfuscate_trace(tr, MEDIUM, RandomSource(5))
        assert noisy.user == tr.user
        assert len(noisy) == len(tr)
        assert [loc.t for loc in noisy.locations] == [loc.t for loc in tr.locations]
        assert all(a.point != b.point for a, b in zip(noisy.locations, tr.locations))

    def test_deterministic_given_seed(self):
        tr = self._trace()
        assert obfuscate_trace(tr, MEDIUM, RandomSource(6)) == obfuscate_trace(
            tr, MEDIUM, RandomSource(6)
        )

    def test_bearings_uniform(self):
        # chi-square over 36 bins on the displacement bearings
        p = GeoPoint(45.0, 5.0)
        tr = MobilityTrace("u", tuple(TimestampedLocation(i, p) for i in range(100_000)))
        noisy = obfuscate_trace(tr, MEDIUM, RandomSource(14))
        scale = math.cos(math.radians(p.lat))
        bearings = [
            math.atan2((q.point.lon - p.lon) * scale, q.point.lat - p.lat) % (2 * math.pi)
            for q in noisy.locations
        ]
        counts, _ = np.histogram(bearings, bins=36, range=(0.0, 2 * math.pi))
        assert stats.chisquare(counts).pvalue > 0.01
