"""Seeded, cab-like mobility inputs as canonical CSV text.

Each user's trace alternates jittered dwells at a few recurring places
with straight-line drives between them, sampled at a fixed interval with
a little timestamp jitter. The first two passes over a user's places visit
every place once each in shuffled order, so every place gets at least two
full dwells (the default extraction's ``min_pts``) unless the trace ends
first; only places that got two full dwells are reported as planted.

The generator imports nothing from geopriv: it writes the canonical trace
CSV (``user_id,timestamp,lat,lon``) and the feature CSV
(``feature_id,lat,lon,category,name``) that the program parses, so the
same seed gives byte-identical text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import GenSpec

# South-west corner and extent of the synthetic city (San Francisco-like).
CITY_LAT0 = 37.70
CITY_LON0 = -122.52
CITY_EAST_M = 12_000.0
CITY_NORTH_M = 14_000.0
# Start of every trace: 2008-05-18 00:00:00 UTC, as in the SF-cab data.
EPOCH0 = 1_211_068_800

M_PER_DEG = 111_320.0
_COS_LAT0 = math.cos(math.radians(CITY_LAT0 + CITY_NORTH_M / M_PER_DEG / 2.0))

DWELL_JITTER_M = 20.0  # standard deviation of a dwell fix around its place
DRIVE_JITTER_M = 10.0
PLACE_MARGIN_M = 500.0
MIN_PLACE_GAP_M = 1_000.0  # keeps one user's places from merging into one POI
SPEED_M_S = (7.0, 12.0)
CATEGORIES = ("restaurant", "shop", "cafe", "park")


@dataclass(frozen=True)
class Inputs:
    traces_csv: str
    features_csv: str
    planted: dict[str, list[tuple[float, float]]]  # user -> (lat, lon) of planted places


def _to_latlon(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lat = CITY_LAT0 + y / M_PER_DEG
    lon = CITY_LON0 + x / (M_PER_DEG * _COS_LAT0)
    # six decimals (about 0.1 m) so the canonical writer round-trips the text
    return np.round(lat, 6), np.round(lon, 6)


def _draw_places(gen: np.random.Generator, n: int, taken: list[np.ndarray]) -> np.ndarray:
    """``n`` places in the city, each at least MIN_PLACE_GAP_M from the
    others and from ``taken``."""
    out: list[np.ndarray] = []
    while len(out) < n:
        p = np.array([
            gen.uniform(PLACE_MARGIN_M, CITY_EAST_M - PLACE_MARGIN_M),
            gen.uniform(PLACE_MARGIN_M, CITY_NORTH_M - PLACE_MARGIN_M),
        ])
        if all(np.hypot(*(p - q)) >= MIN_PLACE_GAP_M for q in out + taken):
            out.append(p)
    return np.array(out)


def _user_trace(gen: np.random.Generator, spec: GenSpec, places: np.ndarray):
    """Timestamps, x/y metres and the indices of places dwelt at twice."""
    end = EPOCH0 + spec.days * 86_400
    n_places = len(places)
    first, second = list(gen.permutation(n_places)), list(gen.permutation(n_places))
    if second[0] == first[-1]:  # two dwells in a row would merge into one stay
        second[0], second[1] = second[1], second[0]
    order = first + second
    t = EPOCH0 + int(gen.integers(0, spec.interval_s * 10))
    # segments: (start_t, end_t, from_xy, to_xy); a dwell has from == to
    seg_start, seg_end, seg_from, seg_to = [], [], [], []
    full_dwells = np.zeros(n_places, dtype=int)
    here = None
    visit = 0
    while t < end:
        if visit < len(order):
            nxt = int(order[visit])
        else:
            nxt = int(gen.integers(0, n_places - 1))
            nxt += nxt >= here  # any place but the current one
        visit += 1
        if here is not None and nxt != here:
            dist = float(np.hypot(*(places[nxt] - places[here])))
            drive = max(int(dist / gen.uniform(*SPEED_M_S)), spec.interval_s)
            seg_start.append(t); seg_end.append(t + drive)
            seg_from.append(places[here]); seg_to.append(places[nxt])
            t += drive
        dwell = int(gen.integers(spec.dwell_s[0], spec.dwell_s[1] + 1))
        seg_start.append(t); seg_end.append(t + dwell)
        seg_from.append(places[nxt]); seg_to.append(places[nxt])
        if t + dwell <= end:
            full_dwells[nxt] += 1
        t += dwell
        here = nxt

    n = (end - EPOCH0) // spec.interval_s
    ts = EPOCH0 + np.arange(n, dtype=np.int64) * spec.interval_s
    ts += gen.integers(0, max(spec.interval_s // 10, 1), n)
    ts = ts[ts >= seg_start[0]]
    starts = np.array(seg_start)
    idx = np.searchsorted(starts, ts, side="right") - 1
    s0 = starts[idx]
    s1 = np.array(seg_end)[idx]
    frac = np.clip((ts - s0) / np.maximum(s1 - s0, 1), 0.0, 1.0)
    a = np.array(seg_from)[idx]
    b = np.array(seg_to)[idx]
    is_dwell = np.all(a == b, axis=1)
    jitter = np.where(is_dwell, DWELL_JITTER_M, DRIVE_JITTER_M)[:, None]
    xy = a + (b - a) * frac[:, None] + gen.normal(0.0, 1.0, (len(ts), 2)) * jitter
    return ts, xy[:, 0], xy[:, 1], np.flatnonzero(full_dwells >= 2)


def _features_csv(gen: np.random.Generator, density: float) -> str:
    area_km2 = CITY_EAST_M * CITY_NORTH_M / 1e6
    count = int(gen.poisson(density * area_km2))
    lat, lon = _to_latlon(gen.uniform(0, CITY_EAST_M, count), gen.uniform(0, CITY_NORTH_M, count))
    cats = gen.integers(0, len(CATEGORIES), count)
    rows = ["feature_id,lat,lon,category,name"]
    rows += [
        f"f{i:06d},{la:.6f},{lo:.6f},{CATEGORIES[c]},{CATEGORIES[c]} {i}"
        for i, (la, lo, c) in enumerate(zip(lat.tolist(), lon.tolist(), cats.tolist()))
    ]
    return "\n".join(rows) + "\n"


def generate(spec: GenSpec, seed: int) -> Inputs:
    """Traces, features and planted places for ``spec``; pure in ``seed``."""
    gen = np.random.Generator(np.random.PCG64(seed))
    pool = _draw_places(gen, spec.shared_pool, [])
    rows = ["user_id,timestamp,lat,lon"]
    planted: dict[str, list[tuple[float, float]]] = {}
    for u in range(spec.users):
        user = f"u{u:04d}"
        shared = pool[gen.choice(spec.shared_pool, spec.shared_places, replace=False)] \
            if spec.shared_places else np.empty((0, 2))
        own = _draw_places(gen, spec.places - spec.shared_places, list(shared))
        places = np.concatenate([shared, own])
        ts, x, y, recurring = _user_trace(gen, spec, places)
        lat, lon = _to_latlon(x, y)
        rows += [
            f"{user},{t},{la:.6f},{lo:.6f}"
            for t, la, lo in zip(ts.tolist(), lat.tolist(), lon.tolist())
        ]
        plat, plon = _to_latlon(places[recurring, 0], places[recurring, 1])
        planted[user] = list(zip(plat.tolist(), plon.tolist()))
    return Inputs(
        traces_csv="\n".join(rows) + "\n",
        features_csv=_features_csv(gen, spec.feature_density),
        planted=planted,
    )
