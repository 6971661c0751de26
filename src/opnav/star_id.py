"""Star identification by k-vector range queries with reference-star
confirmation.

For every pair of observed centroids the measured interstar angle is
turned into a range query against the onboard pair database.  The
k-vector brackets each query, and ``kvector_range_queries`` takes one
binary search per angle (``np.searchsorted`` of its upper cosine) to
widen the bracket where the upper bin falls short.  A
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
their counts.  The votes are counted by a join over the runs of the
sorted candidate keys, with no search of the key table: a dense node ->
run table of n * S entries (n centroids, S candidate stars) finds the
run of a leg's far end, and one search of sorted codes confirms the
reference stars (``_count_votes``).

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
    return keys[_run_edges(keys)[:-1]], dims, star_ids


def _count_votes(keys: np.ndarray, dims: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Reference-star votes as (centroid, compact star) keys and counts.

    For each leg (i -> a, j -> b) with i < j and each third centroid r,
    the reference stars c with (i -> a, r -> c) and (j -> b, r -> c) both
    candidates are joined; exactly one such c confirms the triangle and
    it votes for (i, a), (j, b) and (r, c).

    The join runs over the sorted keys.  Each key is split into its node
    (centroid * S + star, S compact stars) and its partner node, and the
    keys of a node form one run, its partners ascending.  A leg's i-side
    run is the run that holds the leg's own key; its j-side run is the run
    of the node (j, b), found through a dense node -> run table of n * S
    entries, of which only the nodes that have a run are written.  No
    i-side partner has r = i and no j-side partner has r = j, so a run of
    one key (the leg itself, or its mirror) confirms nothing and its leg
    is dropped.  The runs of the other legs are expanded as ascending
    (leg, r, c) codes, and the i-side codes found among the j-side codes
    are the confirmations, in (leg, r) order.
    """
    n_nodes, n_stars = dims[0] * dims[1], dims[1]
    node, partner = np.divmod(keys, n_nodes)
    opens = _run_edges(node)
    starts = np.flatnonzero(opens[:-1])
    lengths = np.diff(starts, append=len(keys))
    run_of = np.empty(n_nodes, dtype=np.intp)
    run_of[node[starts]] = np.arange(len(starts))
    # Legs, i < j (the centroid is the high part of a node), not alone in their run
    leg = np.flatnonzero((node < partner) & ~(opens[:-1] & opens[1:]))
    j_run = run_of[partner[leg]]
    keep = lengths[j_run] > 1
    leg, j_run = leg[keep], j_run[keep]
    i_codes = _run_codes(partner, starts, lengths, run_of[node[leg]], n_nodes)
    j_codes = _run_codes(partner, starts, lengths, j_run, n_nodes)
    at = np.minimum(np.searchsorted(j_codes, i_codes), len(j_codes) - 1)
    confirmed = i_codes[j_codes[at] == i_codes]
    # Exactly one reference star per (leg, r): a run of length one.
    edges = _run_edges(confirmed // n_stars)
    which, rc = np.divmod(confirmed[edges[:-1] & edges[1:]], n_nodes)
    return np.unique(np.concatenate((node[leg[which]], partner[leg[which]], rc)), return_counts=True)


def _run_codes(partner, starts, lengths, runs, n_nodes):
    """The partners of runs ``runs[k]``, as ascending ``k * n_nodes + partner``."""
    size = lengths[runs]
    first = np.repeat(starts[runs] - np.cumsum(size) + size, size) + np.arange(size.sum())
    return np.repeat(np.arange(len(runs)) * n_nodes, size) + partner[first]


def _run_edges(values: np.ndarray) -> np.ndarray:
    """``edges[k]``: entry k of the grouped ``values`` opens a run (k =
    len(values) is past the end), so entry k is a run of its own when
    ``edges[k] & edges[k + 1]``."""
    edges = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edges[1:-1])
    return edges


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
    opens = _run_edges(g)
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
