"""Adversary-side evaluation metrics.

Given the POIs an observer extracts from an obfuscated trace and the
user's real POIs, these functions quantify what leaked: every obfuscated
POI is first remapped to the nearest real POI; recall counts how many real
POIs were hit at all, geographic distance measures how far the remapped
guesses are, and semantic distance compares the surrounding map features.
A separate linking attack scores how often an anonymous POI set can be
re-associated with its owner, and the precision metric measures the
utility cost of querying a service through the obfuscation.

The adversary metrics decide on chord arrays and re-check exactly in a
proven band. Every nearest-POI decision (:func:`remap` and both
directions of :func:`poi_set_distance`) is one routine, :func:`_nearest`:
per row of a chord matrix it takes the chord argmin, and re-checks with
``core.distance`` every column within ``_NEAREST_SLACK_M`` (1 mm) of the
row's least chord, keeping the earliest least one. The proof at that
constant shows that no column outside the band can hold, or tie, the
least distance, so the decision is the scalar loop's. Each PoiSet's chord
coordinates are computed once (``PoiSet.xyz``). The linking attack scores
every anonymous set of a run against every candidate in one blocked
chord pass (blocks of at most ``core._BLOCK_CELLS`` cells); only the
candidates within twice ``_SCORE_SLACK_M`` of a set's best such score
reach the scalar ``poi_set_distance``, which decides, measuring only the
P + Q chosen pairs (and any band re-checks) instead of 2PQ. Semantic
distance looks up every distinct POI of a whole level in one
``FeatureStore.nearest`` call and compares the neighbourhoods as index
sets. The precision trials of a summary run as one blocked pass
(:func:`query_precisions`): the queries are taken in latitude order, a
block of them against the features of the enlarged radius's latitude band
is one product per side, the store's chord scan accepts the features
clearly inside each radius, and only the ``_CHORD_SLACK_M`` band is
re-checked with ``core.distance``. Every reported value and every
decision is therefore the one the scalar distance gives.

All functions are pure given immutable inputs; the only randomness flows
through the explicitly passed source of the precision trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import _BLOCK_CELLS, EARTH_RADIUS_M, GeoPoint, Poi, PoiSet, chord_m, distance
from .features import DEFAULT_TOP_K, FeatureStore, _half_band
from .mechanism import PrivacyLevel, RandomSource, inverse_radius_cdf, perturb


@dataclass(frozen=True, slots=True)
class RemapPair:
    """One obfuscated POI with its nearest real POI.

    ``real_index`` is the position of the match in the real PoiSet's
    deterministic ordering (also the tie-breaking order).
    """

    obfuscated: Poi
    real: Poi
    real_index: int
    distance_m: float


@dataclass(frozen=True)
class RemapResult:
    user: str
    pairs: tuple[RemapPair, ...]


# Band of the nearest-POI decisions, in metres of chord. A row's chord
# argmin decides alone unless another column lies within this band of the
# row's least chord; then every column in the band is re-checked with
# core.distance. Proof that no column outside the band can hold the least
# distance, nor tie with it: core.distance's sqrt(h) and chord / 2R both
# give s = sin(angle / 2) within 1e-14 of the exact value (see
# core.distance). Let column j have the least chord, and column i a chord
# more than B = 1e-3 m above it. Then i's s, as distance evaluates it,
# exceeds j's by more than B / 2R - 4e-14 > 7.8e-11. asin climbs at least
# as fast as its argument, so the exact 2R asin of i's s exceeds j's by
# more than 2R * 7.8e-11 > 9.9e-4 m, while the roundings of asin and of
# the two products move each returned distance by under 1e-8 m (3 ulps of
# at most 2e7 m). So distance(i) > distance(j): the least distance, and
# each column that ties with it, lies inside the band.
_NEAREST_SLACK_M = 1e-3


def _chords(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chord lengths in metres between the rows of ``a`` (matrix rows) and
    the rows of ``b`` (columns), both ``core.chord_xyz`` coordinates."""
    # one (3, rows, columns) difference, coordinate-major so that the
    # square and the two sums run over contiguous planes
    d = a.T[:, :, None] - np.ascontiguousarray(b.T)[:, None, :]
    d *= d
    return np.sqrt(d[0] + d[1] + d[2])


def _exact(a: PoiSet, b: PoiSet):
    """``distance`` of POI i of a and POI j of b, as a function of (i, j)."""
    return lambda i, j: distance(a.pois[i].centroid, b.pois[j].centroid)


def _nearest(chords: np.ndarray, exact) -> list[int]:
    """Per row of a chord matrix (metres), the column whose ``exact(row,
    column)`` distance is least, the earliest on ties.

    The chord argmin decides a row unless another column lies within
    ``_NEAREST_SLACK_M`` of its least chord; such a row re-checks every
    column in that band with ``exact`` and keeps the earliest least one.
    """
    picks = chords.argmin(axis=1).tolist()
    band = chords <= chords.min(axis=1, keepdims=True) + _NEAREST_SLACK_M
    for r in np.flatnonzero(band.sum(axis=1) > 1).tolist():
        picks[r] = min(np.flatnonzero(band[r]).tolist(), key=lambda c: exact(r, c))
    return picks


def _matches(obf: PoiSet, real: PoiSet) -> list[int]:
    """Per obfuscated POI, the index of its nearest real POI (:func:`_nearest`)."""
    if len(real) == 0:
        raise ValueError(f"user {real.user!r} has no real POIs")
    if len(obf) == 0:
        return []
    return _nearest(_chords(obf.xyz, real.xyz), _exact(obf, real))


def remap(obf: PoiSet, real: PoiSet) -> RemapResult:
    """Map every obfuscated POI to the nearest real POI of the same user.

    Ties go to the earlier POI in the real set's deterministic order.
    Raises when the user has no real POIs; such users are excluded from
    remap-based metrics upstream. ``distance_m`` is measured for the
    chosen pair only.
    """
    return RemapResult(user=obf.user, pairs=tuple(
        RemapPair(o, real.pois[i], i, distance(o.centroid, real.pois[i].centroid))
        for o, i in zip(obf.pois, _matches(obf, real))
    ))


def recall_of(result: RemapResult, n_real: int) -> float:
    """Fraction of real POIs receiving at least one remapped POI."""
    return len({p.real_index for p in result.pairs}) / n_real


def geographic_distances(result: RemapResult) -> list[float]:
    """Distance in metres from each obfuscated POI to its remap target."""
    return [p.distance_m for p in result.pairs]


def semantic_distances(results: Sequence[RemapResult], store: FeatureStore) -> list[list[float]]:
    """Per result, per remapped pair: 1 - overlap of the ``DEFAULT_TOP_K``
    nearest features around the obfuscated POI versus around its remap
    target.

    Overlap counts the features the two neighbourhoods share; the
    denominator is the actual number of features returned around the
    target (relevant only when the store holds fewer than
    ``DEFAULT_TOP_K`` features). Every distinct point of all the results
    is queried once, in one :meth:`FeatureStore.nearest` call.
    """
    if len(store) == 0:
        raise ValueError("semantic distance needs a non-empty feature store")
    slots: dict[tuple[float, float], int] = {}
    pairs = [
        [slots.setdefault((c.lat, c.lon), len(slots)) for c in (p.obfuscated.centroid, p.real.centroid)]
        for result in results for p in result.pairs
    ]
    points = np.array(list(slots), dtype=float).reshape(-1, 2)
    near = store.nearest(points[:, 0], points[:, 1], DEFAULT_TOP_K)
    around_obf, around_real = (near[i] for i in np.array(pairs, dtype=np.intp).reshape(-1, 2).T)
    overlap = (around_real[:, :, None] == around_obf[:, None, :]).any(axis=2).sum(axis=1)
    values = iter((1.0 - overlap / near.shape[1]).tolist())
    return [[next(values) for _ in result.pairs] for result in results]


def poi_set_distance(a: PoiSet, b: PoiSet) -> float:
    """Median of the symmetric directed nearest-neighbour distances.

    For each POI of either set, take its distance to the nearest POI of
    the other set; the score is the median of all those values (mean of
    the two central values on even sizes). Infinite when either side is
    empty, so a user whose POIs were destroyed degrades gracefully instead
    of erroring. The nearest POIs come from :func:`_nearest` on one chord
    matrix, read by rows and by columns, so only the chosen pairs (and any
    band re-checks) are measured with ``distance``.
    """
    if len(a) == 0 or len(b) == 0:
        return math.inf
    exact = _exact(a, b)
    chords = _chords(a.xyz, b.xyz)
    values = [exact(i, j) for i, j in enumerate(_nearest(chords, exact))]
    values += [exact(i, j) for j, i in enumerate(_nearest(chords.T, lambda j, i: exact(i, j)))]
    values.sort()
    m = len(values)
    if m % 2 == 1:
        return values[m // 2]
    return (values[m // 2 - 1] + values[m // 2]) / 2.0


def most_likely_user(anon: PoiSet, real_sets: Mapping[str, PoiSet]) -> str:
    """The known user whose POI set is closest to the anonymous one.

    Ties break towards the smallest user identifier.
    """
    if not real_sets:
        raise ValueError("no candidate users")
    best_user = None
    best_d = math.inf
    for user in sorted(real_sets):
        d = poi_set_distance(anon, real_sets[user])
        if best_user is None or d < best_d:
            best_user, best_d = user, d
    return best_user


# Bound on |chord score - exact score| for one anonymous set and one
# candidate, in metres. core.distance and a chord of chord_xyz coordinates
# both give 2R asin(s) for s = sin(angle / 2) within 1e-14 of the exact
# value (see core.distance). Over [0, 1], asin moves by at most
# acos(1 - e) < sqrt(2.01 e) when s moves by e, so one pair's two arcs
# differ by at most 2R sqrt(4.02e-14) < 2.6 m; only near-antipodal pairs
# come close (0.33 m measured), city-scale pairs agree within 1e-8 m.
# Minima, medians and means of two move by no more than the largest error
# of their inputs, so a score is off by no more than its worst pair plus
# about 1e-8 m of its last roundings: 4 m bounds it.
_SCORE_SLACK_M = 4.0


def _chord_scores(anons: Sequence[PoiSet], real: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """poi_set_distance of every anonymous set (rows) against every
    candidate (columns), each within _SCORE_SLACK_M of the exact score.

    ``real`` holds the candidates' chord coordinates as rows; candidate i
    owns the ``sizes[i] >= 1`` rows from ``starts[i]``. Chords order pairs
    like arcs, so minima and medians are taken on chords and only the two
    central values of each (set, candidate) pair become arcs. The sets are
    scored in blocks: one chord matrix per block, read by rows for each
    anonymous POI's nearest chord per candidate and by columns for each
    real POI's nearest chord per set. A block holds at most
    ``_BLOCK_CELLS`` cells in the ``(3, rows, columns)`` difference that
    :func:`_chords` builds, and in the (set, candidate, width) table.
    """
    n = len(sizes)
    widest = max(len(anon) for anon in anons)
    width = widest + int(sizes.max())
    owner = np.repeat(np.arange(n), sizes)
    at = widest + np.arange(len(real)) - starts[owner]
    step = max(1, _BLOCK_CELLS // max(3 * widest * len(real), n * width))
    scores = np.empty((len(anons), n))
    for lo in range(0, len(anons), step):
        block = anons[lo:lo + step]
        m = len(block)
        a_sizes = np.array([len(anon) for anon in block])
        a_starts = np.cumsum(a_sizes) - a_sizes
        chords = _chords(np.concatenate([anon.xyz for anon in block]), real)
        # per (set, candidate): each anonymous POI's nearest chord, then each real POI's
        values = np.full((m, n, width), np.inf)
        a_owner = np.repeat(np.arange(m), a_sizes)
        a_at = np.arange(len(a_owner)) - a_starts[a_owner]
        values[a_owner[:, None], np.arange(n), a_at[:, None]] = np.minimum.reduceat(chords, starts, axis=1)
        values[:, owner, at] = np.minimum.reduceat(chords, a_starts, axis=0)
        values.sort(axis=2)
        count = (a_sizes[:, None] + sizes)[..., None]
        central = np.concatenate(
            (np.take_along_axis(values, (count - 1) // 2, axis=2), np.take_along_axis(values, count // 2, axis=2)),
            axis=2,
        )
        arcs = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(central / (2.0 * EARTH_RADIUS_M), 1.0))
        scores[lo:lo + m] = (arcs[..., 0] + arcs[..., 1]) / 2.0
    return scores


def reidentification_rate(
    real_sets: Mapping[str, PoiSet], obf_sets: Mapping[str, PoiSet]
) -> float:
    """Fraction of obfuscated POI sets linked back to the right user.

    ``obf_sets`` is keyed by the true owner for scoring only; each set is
    assigned independently (several may claim the same user, there is no
    one-to-one matching), exactly as :func:`most_likely_user` would assign
    it. Chord scores rank every candidate for every set in one blocked
    pass; only the candidates within twice ``_SCORE_SLACK_M`` of a set's
    best chord score can hold its best exact score, and only they reach
    :func:`most_likely_user`.

    An empty obfuscated set names no one: it counts as not re-identified
    and is never scored, so ``{'a': A, 'b': B}`` against
    ``{'a': (), 'b': ()}`` gives 0.
    """
    if not real_sets or not obf_sets:
        raise ValueError("re-identification needs non-empty inputs")
    if set(real_sets) != set(obf_sets):
        raise ValueError("real and obfuscated POI sets must cover the same users")
    users = sorted(real_sets)
    sizes = np.array([len(real_sets[u]) for u in users])
    # candidates without POIs keep their infinite score
    scored = np.flatnonzero(sizes)
    counts = sizes[scored]
    owners = [owner for owner, anon in obf_sets.items() if len(anon)]
    scores = np.full((len(owners), len(users)), math.inf)
    if len(scored) and owners:
        real = np.concatenate([real_sets[users[i]].xyz for i in scored.tolist()])
        scores[:, scored] = _chord_scores([obf_sets[o] for o in owners], real, np.cumsum(counts) - counts, counts)
    hits = 0
    for owner, row in zip(owners, scores):
        near = np.flatnonzero(row <= row.min() + 2.0 * _SCORE_SLACK_M)
        if most_likely_user(obf_sets[owner], {users[i]: real_sets[users[i]] for i in near.tolist()}) == owner:
            hits += 1
    return hits / len(obf_sets)


def precision_trial(
    c: GeoPoint,
    level: PrivacyLevel,
    store: FeatureStore,
    radius_m: float,
    alpha: float,
    rng: RandomSource,
    category: str | None = None,
) -> tuple[float, int]:
    """One precision measurement; returns (precision, retrieved count).

    The query is issued from a location obfuscated like any trace point
    (``mechanism.perturb`` with n = 1), with its radius enlarged by the
    alpha-quantile of the noise radius, so the true disc is fully covered
    with probability alpha; precision is the fraction of retrieved
    features that the honest query would also have returned.
    A retrieved count of 0 signals the empty-result convention (precision
    1 by definition), which callers should tally separately.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if not radius_m > 0.0:
        raise ValueError(f"radius must be > 0, got {radius_m!r}")
    lat, lon = np.array([c.lat]), np.array([c.lon])
    noisy_lat, noisy_lon = perturb(lat, lon, level, rng)
    enlarged = radius_m + inverse_radius_cdf(level, alpha)
    values, retrieved = query_precisions(store, lat, lon, noisy_lat, noisy_lon, radius_m, enlarged, category)
    return values[0], retrieved[0]


def query_precisions(
    store: FeatureStore,
    lat: np.ndarray,
    lon: np.ndarray,
    noisy_lat: np.ndarray,
    noisy_lon: np.ndarray,
    radius_m: float,
    enlarged_m: float,
    category: str | None = None,
) -> tuple[list[float], list[int]]:
    """Per query, the precision and the retrieved count of
    :func:`precision_trial`, for queries issued from the noisy points with
    radius ``enlarged_m`` and judged against radius_m around the true ones.

    The queries are scanned in blocks of noisy latitude, each against the
    latitude band of the enlarged radius: one product per side, the
    store's chord bands, and exact re-checks only inside them. The honest
    side is scored on the retrieved side's slice, which holds every
    feature it can count, since it counts only retrieved ones.
    """
    past_pole = np.flatnonzero(np.abs(noisy_lat) > 90.0)
    if past_pole.size:
        raise ValueError(f"noise moved a query to latitude {float(noisy_lat[past_pole[0]])!r}, past the pole")
    order = np.argsort(noisy_lat, kind="stable")
    counts = np.zeros(len(lat), dtype=np.intp)
    useless = np.zeros(len(lat), dtype=np.intp)
    for rows, cols in store._blocks(noisy_lat[order], _half_band(chord_m(enlarged_m))):
        q = order[rows]
        retrieved = store._within(noisy_lat[q], noisy_lon[q], enlarged_m, cols, category)
        honest = store._within(lat[q], lon[q], radius_m, cols, category, among=retrieved)
        counts[q] = retrieved.sum(axis=1)
        useless[q] = (retrieved & ~honest).sum(axis=1)
    values = [1.0 - u / n if n else 1.0 for n, u in zip(counts.tolist(), useless.tolist())]
    return values, counts.tolist()
