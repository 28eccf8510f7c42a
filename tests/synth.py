"""Deterministic synthetic fixtures shared across the test suite."""

from __future__ import annotations

import numpy as np

from geopriv.core import Dataset, GeoPoint, MobilityTrace, TimestampedLocation

from oracles import offset


def planted_dataset(
    n_users: int,
    n_pois: int = 4,
    dwells_per_poi: int = 2,
    points_per_dwell: int | tuple[int, ...] = 40,
    point_interval_s: int = 120,
    gap_s: int = 1800,
    spread_m: float = 60.0,
    poi_spacing_m: float = 8000.0,
    user_spacing_m: float = 1500.0,
    origin: GeoPoint = GeoPoint(45.0, 5.0),
    seed: int = 0,
) -> tuple[Dataset, dict[str, list[GeoPoint]]]:
    """A dataset of users dwelling repeatedly at planted POI centres.

    Every user visits each of their POIs ``dwells_per_poi`` times, long
    enough to satisfy the default extraction parameters. POIs of one user
    are ``poi_spacing_m`` apart; the same POI of different users is
    ``user_spacing_m`` apart, so all users' POI sets are pairwise disjoint.
    Dwell points jitter uniformly within ``spread_m`` of the centre.
    ``points_per_dwell`` may vary per POI (a tuple of length ``n_pois``)
    to stagger dwell durations.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    if isinstance(points_per_dwell, int):
        dwell_sizes = (points_per_dwell,) * n_pois
    else:
        dwell_sizes = tuple(points_per_dwell)
        assert len(dwell_sizes) == n_pois
    traces = []
    centers: dict[str, list[GeoPoint]] = {}
    for u in range(n_users):
        user = f"u{u:02d}"
        pois = [offset(origin, u * user_spacing_m, k * poi_spacing_m) for k in range(n_pois)]
        centers[user] = pois
        locations = []
        t = 0
        for d in range(dwells_per_poi):
            for k in range(n_pois):
                for i in range(dwell_sizes[k]):
                    jx = gen.uniform(-spread_m, spread_m)
                    jy = gen.uniform(-spread_m, spread_m)
                    locations.append(
                        TimestampedLocation(t + i * point_interval_s, offset(pois[k], jx, jy))
                    )
                t += (dwell_sizes[k] - 1) * point_interval_s + gap_s
        traces.append(MobilityTrace(user, tuple(locations)))
    return Dataset({trace.user: trace for trace in traces}), centers


def random_trace(seed: int, max_points: int = 30, origin: GeoPoint = GeoPoint(45.0, 5.0)) -> MobilityTrace:
    """A small random trace mixing dwells, drifts and jumps.

    Designed to exercise every branch of the stay-extraction walk: step
    sizes straddle typical distance thresholds and time steps straddle
    typical dwell thresholds.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    n = int(gen.integers(0, max_points + 1))
    x, y = 0.0, 0.0
    t = 0
    locations = []
    for _ in range(n):
        move = gen.random()
        if move < 0.5:
            x += gen.uniform(-40, 40)
            y += gen.uniform(-40, 40)
        elif move < 0.8:
            x += gen.uniform(-300, 300)
            y += gen.uniform(-300, 300)
        else:
            x += gen.uniform(-3000, 3000)
            y += gen.uniform(-3000, 3000)
        t += int(gen.integers(10, 400))
        locations.append(TimestampedLocation(t, offset(origin, x, y)))
    return MobilityTrace(f"r{seed}", tuple(locations))


def random_params(seed: int):
    from geopriv.poi import ExtractionParams

    gen = np.random.Generator(np.random.PCG64(seed + 10_000))
    return ExtractionParams(
        min_time=int(gen.integers(60, 600)),
        max_distance=float(gen.uniform(60, 400)),
        min_pts=int(gen.integers(1, 4)),
    )


def dataset_bounds(dataset: Dataset, margin_m: float) -> tuple[float, float, float, float]:
    """Bounding box of every trace point, padded by ``margin_m``."""
    lats = [loc.point.lat for tr in dataset.traces.values() for loc in tr.locations]
    lons = [loc.point.lon for tr in dataset.traces.values() for loc in tr.locations]
    lo = offset(GeoPoint(min(lats), min(lons)), -margin_m, -margin_m)
    hi = offset(GeoPoint(max(lats), max(lons)), margin_m, margin_m)
    return (lo.lat, lo.lon, hi.lat, hi.lon)
