"""Search-less star identification with reference-star confirmation.

For every pair of observed centroids the measured interstar angle is
turned into a range query against the onboard pair database.  A
candidate assignment (centroid i -> star A, centroid j -> star B) is
confirmed by a third centroid r when the candidate partner sets of the
two legs (i, r) and (j, r) share exactly one catalog star; an ambiguous
intersection (two or more shared stars) confirms nothing.  Confirmed
triangles vote for their three (centroid, star) assignments and each
centroid keeps the star with the unique maximal vote count, requiring
at least two votes; a star kept by several centroids stays with the one
of unique maximal count, and a tie drops them all.  A centroid left
without an assignment is never a RANSAC inlier, so the flight path
counts it among the spikes.  Centroids, votes and assignments are
arrays throughout: the centroids are the (n, 2) pixels of
``find_centroids``, the votes sorted ``(centroid, star)`` keys with
their counts.

When identification fails, the threshold tuning parameter is raised and
the whole chain (thresholding, centroiding, matching) reruns, until the
asterism is recognized or fewer than three centroids survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroiding import find_centroids
from .geometry import CameraModel, angular_separations, los_from_pixels
from .star_catalog import KVectorIndex, PairDatabase, StarCatalog, kvector_range_queries

MIN_ASTERISM = 3


@dataclass(frozen=True)
class StarMatch:
    centroid_index: int
    star_id: int
    los_camera: np.ndarray  # unit vector in C from the measured centroid
    los_inertial: np.ndarray  # catalog unit vector in N


@dataclass(frozen=True)
class MatchResult:
    matches: tuple[StarMatch, ...]  # by centroid index; unmatched centroids have none


@dataclass(frozen=True)
class IdentifyConfig:
    epsilon_rad: float
    threshold_t: float = 20.0
    threshold_t_step: float = 5.0
    max_iterations: int = 5


@dataclass(frozen=True)
class RetryResult:
    result: MatchResult
    threshold: float
    iterations: int  # centroiding + identification attempts made
    centroids: np.ndarray  # (n, 2) pixel x, y of every centroid
    span: np.ndarray  # (n,) component span of every centroid


def _candidate_table(
    los: np.ndarray,
    db: PairDatabase,
    index: KVectorIndex,
    epsilon_rad: float,
) -> tuple[np.ndarray, tuple[int, int, int, int], np.ndarray]:
    """Every candidate assignment of every ordered centroid pair, as keys.

    Each k-vector row (star s, star t) of the centroid pair {x, y} says
    that x, y may be s, t or t, s, seen from either centroid: four
    entries (cx, sx, cy, sy), centroid cx as star sx and centroid cy as
    star sy.  Stars are numbered compactly; the entries are returned as
    sorted unique ``np.ravel_multi_index`` keys over ``dims`` together
    with the catalog id of every compact star number.
    """
    n = len(los)
    ci, cj = np.triu_indices(n, k=1)
    gammas = angular_separations(los[ci], los[cj])
    rows, offsets = kvector_range_queries(index, db, gammas, epsilon_rad)
    x = np.repeat(ci, np.diff(offsets))
    y = np.repeat(cj, np.diff(offsets))
    star_ids, compact = np.unique(np.concatenate((db.star_i[rows], db.star_j[rows])), return_inverse=True)
    s, t = compact[: len(rows)], compact[len(rows) :]
    dims = (n, len(star_ids), n, len(star_ids))
    keys = np.ravel_multi_index(
        (np.concatenate((x, x, y, y)), np.concatenate((s, t, t, s)),
         np.concatenate((y, y, x, x)), np.concatenate((t, s, s, t))),
        dims,
    )
    keys.sort()
    return keys[np.diff(keys, prepend=-1) != 0], dims, star_ids


def _count_votes(keys: np.ndarray, dims: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Reference-star votes as (centroid, compact star) keys and counts.

    For each leg (i -> a, j -> b) with i < j and each third centroid r,
    the reference stars c with (i -> a, r -> c) and (j -> b, r -> c) both
    candidates are joined; exactly one such c confirms the triangle and
    it votes for (i, a), (j, b) and (r, c).
    """
    n, n_stars = dims[0], dims[1]
    cx, sx, cy, sy = np.unravel_index(keys, dims)
    leg = cx < cy
    i, a, j, b = cx[leg], sx[leg], cy[leg], sy[leg]
    # The entries (i -> a, r -> c) of a leg are one contiguous run of the sorted keys.
    head = (i * n_stars + a) * (n * n_stars)
    lo = np.searchsorted(keys, head)
    length = np.searchsorted(keys, head + n * n_stars) - lo
    which = np.repeat(np.arange(len(i)), length)
    ref = np.repeat(lo - np.cumsum(length) + length, length) + np.arange(len(which))
    r, c = cy[ref], sy[ref]
    query = np.ravel_multi_index((j[which], b[which], r, c), dims)
    found = keys[np.minimum(np.searchsorted(keys, query), len(keys) - 1)] == query
    confirm = (r != j[which]) & found
    which, r, c = which[confirm], r[confirm], c[confirm]
    # Exactly one reference star per (leg, r): a run of length one.
    _, first, runs = np.unique(which * n + r, return_index=True, return_counts=True)
    k = first[runs == 1]
    voters = np.concatenate((i[which[k]], j[which[k]], r[k]))
    stars = np.concatenate((a[which[k]], b[which[k]], c[k]))
    return np.unique(voters * n_stars + stars, return_counts=True)


def identify_stars(
    pixels: np.ndarray,
    camera: CameraModel,
    catalog: StarCatalog,
    db: PairDatabase,
    index: KVectorIndex,
    epsilon_rad: float,
) -> MatchResult | None:
    """Match the (n, 2) centroid pixels to catalog stars; None when no
    asterism is found.

    The catalog supplies the inertial directions of the matched ids; a
    matched id the catalog lacks raises CatalogError.
    """
    n = len(pixels)
    if n < MIN_ASTERISM:
        return None
    los = los_from_pixels(camera, pixels)
    keys, dims, star_ids = _candidate_table(los, db, index, epsilon_rad)
    voted, counts = _count_votes(keys, dims)
    matched, stars = _assign(voted, counts, dims[1])
    ids = star_ids[stars]
    inertial = catalog.unit_vectors[catalog.rows_of(ids)]
    if len(matched) < MIN_ASTERISM:
        return None
    matches = tuple(
        StarMatch(centroid_index=i, star_id=star, los_camera=los[i], los_inertial=u)
        for i, star, u in zip(matched.tolist(), ids.tolist(), inertial)
    )
    return MatchResult(matches=matches)


def _assign(voted: np.ndarray, counts: np.ndarray, n_stars: int) -> tuple[np.ndarray, np.ndarray]:
    """Centroids and the compact stars assigned to them, by centroid.

    ``voted`` are the sorted ``centroid * n_stars + star`` keys of
    ``_count_votes`` and ``counts`` their votes.  A centroid keeps its
    star of unique maximal count when that count is at least 2; a star
    kept by several centroids stays with the unique maximal count among
    them, and a tie drops every claimant.
    """
    voter, star = np.divmod(voted, n_stars)
    best = _unique_max(voter, counts)
    best = best[counts[best] >= 2]
    won = np.sort(best[_unique_max(star[best], counts[best])])
    return voter[won], star[won]


def _unique_max(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Index of the largest value of each group, by group; a group whose
    largest value is tied has none."""
    order = np.lexsort((-value, group))  # by group, largest value first
    g, v = group[order], value[order]
    opens = np.ones(len(g) + 1, dtype=bool)  # entry k opens a group; k = len(g) is past the end
    np.not_equal(g[1:], g[:-1], out=opens[1:-1])
    ties_next = np.zeros(len(g), dtype=bool)
    np.equal(v[1:], v[:-1], out=ties_next[:-1])
    return order[opens[:-1] & (opens[1:] | ~ties_next)]


def identify_with_retry(
    image: np.ndarray,
    camera: CameraModel,
    catalog: StarCatalog,
    db: PairDatabase,
    index: KVectorIndex,
    config: IdentifyConfig,
) -> RetryResult | None:
    """Run centroiding + identification, escalating the threshold on failure.

    Stops as soon as an asterism is recognized, when fewer than three
    centroids remain, or after ``max_iterations`` attempts.
    """
    for iteration in range(config.max_iterations):
        t = config.threshold_t + iteration * config.threshold_t_step
        xy, span, threshold = find_centroids(image, t)
        if len(xy) < MIN_ASTERISM:
            return None
        result = identify_stars(xy, camera, catalog, db, index, config.epsilon_rad)
        if result is not None:
            return RetryResult(result, threshold, iteration + 1, xy, span)
    return None
