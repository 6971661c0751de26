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
their counts.  A star is the pair table's own index of it
(``PairDatabase.first`` and ``second``), so a frame renumbers nothing,
and a (centroid, star) node is ``centroid << star_bits | star``.  The
votes are counted by a join over the runs of the sorted candidate keys,
with no search of the key table: a dense node -> run table over the
n x S nodes (n centroids, S stars of the pair table rounded up to a power
of two) finds the run of a leg's far end, and one search of sorted codes
confirms the reference stars (``_count_votes``).  That table holds fewer
than 2 n S entries of 8 bytes, at most 128 KiB per centroid for a table
built here (S <= ``MAX_PAIR_STARS``); it is allocated empty and written
only at the nodes that hold candidates.

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
# Star ID takes every pair of its centroids (time and memory grow as about
# n^2.5), so it sees only the brightest: 40 take about 14 ms and 4 MiB.
MAX_STAR_ID_CENTROIDS = 40


# A match: centroid index, catalog star id, the unit vector in C from the
# measured centroid and the catalog unit vector in N.
MATCH_DTYPE = np.dtype([("centroid_index", "i8"), ("star_id", "i8"), ("los_camera", "f8", 3), ("los_inertial", "f8", 3)])


@dataclass(frozen=True)
class MatchResult:
    matches: np.recarray  # of MATCH_DTYPE, by centroid index; unmatched centroids have none


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
    peak: np.ndarray  # (n,) peak DN of every centroid


def _candidate_table(
    los: np.ndarray,
    db: PairDatabase,
    index: KVectorIndex,
    epsilon_rad: float,
) -> tuple[np.ndarray, int, int]:
    """Every candidate assignment of every ordered centroid pair, as keys.

    Each k-vector row (star s, star t) of the centroid pair {x, y} says
    that x, y may be s, t or t, s, seen from either centroid: four
    entries (cx, sx, cy, sy), centroid cx as star sx and centroid cy as
    star sy.  Stars are the pair table's own indices (``db.first``,
    ``db.second``).  A node ``cx << star_bits | sx`` is a centroid as a
    star, and an entry is the key ``node << node_bits | partner node``.
    Returns the sorted unique keys, ``node_bits`` and ``star_bits``.
    """
    n = len(los)
    ci, cj = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))  # triu_indices(n, 1), at a third of the cost
    gammas = angular_separations(los[ci], los[cj])
    rows, offsets = kvector_range_queries(index, db, gammas, epsilon_rad)
    star_bits = (len(db.stars) - 1).bit_length()
    node_bits = star_bits + (n - 1).bit_length()
    if 2 * node_bits > 63:
        raise ValueError(f"{n} centroids of {len(db.stars)} pair-table stars overflow the int64 candidate keys")
    # entry (x, s, y, t) is (x << node_bits | y) << star_bits | (s << node_bits | t): the
    # centroid pair's bits and the star pair's bits, which do not overlap
    ci <<= star_bits
    cj <<= star_bits
    lengths = np.diff(offsets)
    xy = np.repeat(ci << node_bits | cj, lengths)
    yx = np.repeat(cj << node_bits | ci, lengths)
    s, t = db.first[rows].astype(np.int64), db.second[rows].astype(np.int64)
    st, ts = s << node_bits | t, t << node_bits | s
    keys = np.concatenate((xy | st, xy | ts, yx | ts, yx | st))
    keys.sort()
    # a table that holds no pair twice gives no key twice
    edges = _run_edges(keys)
    return (keys if edges.all() else keys[edges[:-1]]), node_bits, star_bits


def _count_votes(keys: np.ndarray, node_bits: int, star_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference-star votes as sorted ``centroid << star_bits | star`` nodes
    and their counts.

    For each leg (i -> a, j -> b) with i < j and each third centroid r,
    the reference stars c with (i -> a, r -> c) and (j -> b, r -> c) both
    candidates are joined; exactly one such c confirms the triangle and
    it votes for (i, a), (j, b) and (r, c).

    The join runs over the sorted keys of ``_candidate_table``.  Each key
    is split into its node and its partner node, and the keys of a node
    form one run, its partners ascending.  A leg's i-side run is the run
    that holds the leg's own key; its j-side run is the run of the node
    (j, b), found through a dense node -> run table up to the largest node
    (every partner node is a node too: the table holds each key's mirror),
    of which only the nodes that have a run are written.  No
    i-side partner has r = i and no j-side partner has r = j, so a run of
    one key (the leg itself, or its mirror) confirms nothing and its leg
    is dropped.  The runs of the other legs are expanded as ascending
    ``leg << node_bits | (r, c)`` codes, and the i-side codes found among
    the j-side codes are the confirmations, in (leg, r) order.
    """
    node, partner = keys >> node_bits, keys & ((1 << node_bits) - 1)
    opens = _run_edges(node)
    starts = np.flatnonzero(opens[:-1])
    lengths = np.diff(starts, append=len(keys))
    run_of = np.empty(node[-1] + 1 if len(node) else 0, dtype=np.intp)
    run_of[node[starts]] = np.arange(len(starts))
    # Legs, i < j (the centroid is the high part of a node), not alone in their run
    leg = np.flatnonzero((node < partner) & ~(opens[:-1] & opens[1:]))
    j_run = run_of[partner[leg]]
    keep = lengths[j_run] > 1
    leg, j_run = leg[keep], j_run[keep]
    i_codes = _run_codes(partner, starts, lengths, run_of[node[leg]], node_bits)
    j_codes = _run_codes(partner, starts, lengths, j_run, node_bits)
    at = np.minimum(np.searchsorted(j_codes, i_codes), len(j_codes) - 1)
    confirmed = i_codes[j_codes[at] == i_codes]
    # Exactly one reference star per (leg, r): a run of length one.
    edges = _run_edges(confirmed >> star_bits)
    confirmed = confirmed[edges[:-1] & edges[1:]]
    which = leg[confirmed >> node_bits]
    rc = confirmed & ((1 << node_bits) - 1)
    return np.unique(np.concatenate((node[which], partner[which], rc)), return_counts=True)


def _run_codes(partner, starts, lengths, runs, node_bits):
    """The partners of runs ``runs[k]``, as ascending ``k << node_bits | partner``."""
    size = lengths[runs]
    first = np.repeat(starts[runs] - np.cumsum(size) + size, size) + np.arange(size.sum())
    return np.repeat(np.arange(len(runs)) << node_bits, size) | partner[first]


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
    keys, node_bits, star_bits = _candidate_table(los, db, index, epsilon_rad)
    voted, counts = _count_votes(keys, node_bits, star_bits)
    matched, stars = _assign(voted, counts, star_bits)
    ids = db.stars[stars]
    inertial = catalog.unit_vectors[catalog.rows_of(ids)]
    if len(matched) < MIN_ASTERISM:
        return None
    return MatchResult(np.rec.fromarrays((matched, ids, los[matched], inertial), dtype=MATCH_DTYPE))


def _assign(voted: np.ndarray, counts: np.ndarray, star_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Centroids and the pair-table stars assigned to them, by centroid.

    ``voted`` are the sorted ``centroid << star_bits | star`` nodes of
    ``_count_votes`` and ``counts`` their votes.  A centroid keeps its
    star of unique maximal count when that count is at least 2; a star
    kept by several centroids stays with the unique maximal count among
    them, and a tie drops every claimant.
    """
    voter, star = voted >> star_bits, voted & ((1 << star_bits) - 1)
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

    Identification sees the ``MAX_STAR_ID_CENTROIDS`` centroids of highest
    peak DN (ties in ROI order), in ROI order; the matches index every
    centroid.  Stops as soon as an asterism is recognized, when fewer than
    three centroids remain, or after ``max_iterations`` attempts.
    """
    for iteration in range(config.max_iterations):
        t = config.threshold_t + iteration * config.threshold_t_step
        xy, span, peak, threshold = find_centroids(image, t)
        if len(xy) < MIN_ASTERISM:
            return None
        keep = None
        if len(xy) > MAX_STAR_ID_CENTROIDS:  # the brightest (ties in ROI order), in ROI order
            keep = np.sort(np.argsort(-peak, kind="stable")[:MAX_STAR_ID_CENTROIDS])
        result = identify_stars(xy if keep is None else xy[keep], camera, catalog, db, index, config.epsilon_rad)
        if result is not None:
            if keep is not None:  # matches index every centroid
                result.matches["centroid_index"] = keep[result.matches["centroid_index"]]
            return RetryResult(result, threshold, iteration + 1, xy, span, peak)
    return None
