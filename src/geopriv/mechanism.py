"""Planar-Laplace location obfuscation with explicit, reproducible randomness.

A reported location is the true location displaced by polar noise: the
bearing is uniform and the radius follows the radial marginal of the
two-dimensional Laplace distribution with density eps^2 * r * exp(-eps*r),
i.e. Gamma(shape 2, rate eps). The radius is drawn as the sum of two
exponentials, -(ln u1 + ln u2)/eps. Query radius enlargement needs
quantiles of the noise radius; :func:`inverse_radius_cdf` solves for them.

Units matter: epsilon here is measured in 1/metres and all radii in
metres. Although it plays the same budget role, this epsilon is *not*
comparable with the epsilon of classical differential privacy. Smaller
epsilon means more noise and stronger location privacy.

Each point of a trace is perturbed independently. Correlated points (as in
a dense trace) therefore leak more than the per-point guarantee suggests;
quantifying that gap is precisely what the rest of this package does.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_OFFSET_LAT, METERS_PER_DEGREE, MobilityTrace

TWO_PI = 2.0 * math.pi

_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class PrivacyLevel:
    """Noise scale of the mechanism: epsilon in reciprocal metres.

    epsilon = infinity is zero noise, the limit of the law: obfuscation is
    the identity, no uniform is drawn, and the quantile used for query
    enlargement is 0. End-to-end identity tests run at that level.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon!r}")

    @classmethod
    def from_level(cls, level_mass: float, radius_m: float) -> "PrivacyLevel":
        """Derive epsilon = level_mass / radius_m (privacy mass within a radius)."""
        if not level_mass > 0.0:
            raise ValueError(f"level mass must be > 0, got {level_mass!r}")
        if not radius_m > 0.0:
            raise ValueError(f"radius must be > 0, got {radius_m!r}")
        return cls(level_mass / radius_m)

    @classmethod
    def zero_noise(cls) -> "PrivacyLevel":
        return cls(math.inf)


class RandomSource:
    """Deterministic uniform stream over [0, 1) seeded by a 64-bit integer.

    The same seed always yields the same stream, which is what makes whole
    experiment runs reproducible. Backed by a PCG64 generator.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {seed!r}")
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)


def derive_seed(base_seed: int, label: str) -> int:
    """Derive a child seed: base XOR hash(label), where the hash is the
    label's platform-independent 64-bit blake2b digest.

    Used to partition the seed space deterministically: a run stream is
    derived from the master seed and the run index, a per-user stream from
    the run seed and the user id, so results never depend on scheduling.
    A base outside [0, 2**64) is refused, so no two master seeds alias.
    """
    if not 0 <= base_seed <= _MAX_SEED:
        raise ValueError(f"seed must fit in 64 bits, got {base_seed!r}")
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return base_seed ^ int.from_bytes(digest, "little")


def sample_radii(level: PrivacyLevel, rng: RandomSource, n: int) -> np.ndarray:
    """n independent noise radii: Gamma(2, eps) as a sum of two exponentials.

    Draws one block of n uniforms per exponential; uniforms are mapped to
    (0, 1] so the logs are always defined, and a degenerate stream of
    zeros yields radius 0. Zero noise draws nothing.
    """
    if level.epsilon == math.inf:
        return np.zeros(n)
    return _radii(level, rng.uniforms(n), rng.uniforms(n))


def _radii(level: PrivacyLevel, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    return -(np.log(1.0 - u1) + np.log(1.0 - u2)) / level.epsilon


def inverse_radius_cdf(level: PrivacyLevel, p: float) -> float:
    """The radius r with P(noise radius <= r) = p, for p in [0, 1).

    At x = eps*r the law is 1 - (1 + x) * exp(-x): x solves the convex, rising
    x - log1p(x) = L = -log1p(-p). Newton descends from x0 = sqrt(2L) + L, above
    the root as exp(s) >= 1 + s + s^2/2 at s = sqrt(2L). Exact steps shrink to
    0, so one that does not is rounding noise and ends the descent (64 at most).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must be in [0, 1), got {p!r}")
    if p == 0.0 or level.epsilon == math.inf:
        return 0.0
    target = -math.log1p(-p)
    x = math.sqrt(2.0 * target) + target
    last = math.inf
    for _ in range(64):
        step = (x - math.log1p(x) - target) * (1.0 + x) / x
        if not 0.0 < step < last:
            break
        x, last = x - step, step
    return x / level.epsilon


def perturb(
    lat: np.ndarray, lon: np.ndarray, level: PrivacyLevel, rng: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy latitudes and longitudes for n points: the one obfuscation path.

    Draws three blocks of n uniforms in a fixed order (bearings, then the
    two radius blocks), so a freshly seeded source reproduces the output,
    and moves the points by :func:`displace`. Zero noise returns the input
    and draws nothing; any point beyond MAX_OFFSET_LAT raises.
    """
    if level.epsilon == math.inf:
        return lat, lon
    n = len(lat)
    return displace(lat, lon, level, rng.uniforms(n), rng.uniforms(n), rng.uniforms(n))


def displace(
    lat: np.ndarray, lon: np.ndarray, level: PrivacyLevel,
    bearing_u: np.ndarray, radius_u1: np.ndarray, radius_u2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The points moved by the noise that three uniforms in [0, 1) per
    point select: a bearing and the two radius draws of
    :func:`sample_radii`. The step is equirectangular, longitude wrapped
    at the antimeridian; any point beyond MAX_OFFSET_LAT raises.

    :func:`perturb` draws the uniforms block by block;
    ``experiment.precision_summary`` draws them trial by trial and moves
    all its query points with one call.
    """
    if np.any(np.abs(lat) > MAX_OFFSET_LAT):
        raise ValueError("polar region unsupported")
    theta = TWO_PI * bearing_u
    r = _radii(level, radius_u1, radius_u2)
    new_lat = lat + r * np.sin(theta) / METERS_PER_DEGREE
    new_lon = lon + r * np.cos(theta) / (METERS_PER_DEGREE * np.cos(np.radians(lat)))
    return new_lat, (new_lon + 180.0) % 360.0 - 180.0


def obfuscate_trace(trace: MobilityTrace, level: PrivacyLevel, rng: RandomSource) -> MobilityTrace:
    """Obfuscate every point of a trace independently through :func:`perturb`.

    User, timestamps and ordering are preserved; zero noise or an empty
    trace returns the trace itself. Noise that carries a point past
    a pole raises, naming the user and the noisy latitude.
    ``metrics.precision_trial`` perturbs its one query point through the
    same function (n = 1), and ``experiment.precision_summary`` moves its
    query points through the same :func:`displace`.
    """
    if level.epsilon == math.inf or len(trace) == 0:
        return trace
    lat, lon = perturb(trace.lat, trace.lon, level, rng)
    past_pole = np.flatnonzero(np.abs(lat) > 90.0)
    if past_pole.size:
        raise ValueError(
            f"noise moved a point of user {trace.user!r} to latitude "
            f"{float(lat[past_pole[0]])!r}, past the pole"
        )
    return MobilityTrace.from_columns(trace.user, trace.t, lat, lon)
