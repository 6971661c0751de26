"""Star catalog ingestion and the k-vector pair database.

The onboard database stores, for every retained star pair, the cosine of
the interstar angle in a sorted array together with the two catalog ids
that produced it.  A k-vector over that sorted array brackets range
queries: entry k of the count vector holds how many cosines fall
strictly below the straight line fitted through the first and last entry
of the array.

Queries use the k-vector bins to bracket a coarse candidate range, take
one binary search per query (``np.searchsorted`` of the upper cosine) to
widen it where the upper bin stops short, and then apply exact
comparisons against the sorted cosines, so endpoint and tie conventions
can only add candidates, never lose them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TWO_PI, radec_to_unit


class CatalogError(ValueError):
    """Raised for malformed catalog input or degenerate databases."""


@dataclass(frozen=True)
class StarCatalog:
    """Read-only star columns, one row per star: catalog id, right
    ascension in [0, 2pi) and declination in rad, magnitude, and the
    (n, 3) inertial unit vector.  Built by ``catalog_from_records``."""

    ids: np.ndarray  # int64, unique
    right_ascension: np.ndarray
    declination: np.ndarray
    magnitudes: np.ndarray
    unit_vectors: np.ndarray
    _id_order: np.ndarray = field(init=False, repr=False, compare=False)  # argsort of ids

    def __post_init__(self):
        order = np.argsort(self.ids, kind="stable")
        repeated = self.ids[order][1:][np.diff(self.ids[order]) == 0]
        if len(repeated):
            raise CatalogError(f"duplicate star id {repeated[0]}")
        object.__setattr__(self, "_id_order", order)
        for column in (self.ids, self.right_ascension, self.declination, self.magnitudes, self.unit_vectors):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    def rows_of(self, ids) -> np.ndarray:
        """Catalog row of every id in the 1-D ``ids``.

        Raises CatalogError naming the smallest id the catalog lacks.
        """
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, ids, sorter=self._id_order)
        found = pos < len(self)  # an id past the largest one is missing
        found[found] = self.ids[self._id_order[pos[found]]] == ids[found]
        if not found.all():
            missing = int(ids[~found].min())
            raise CatalogError(f"star id {missing} is not in the catalog")
        return self._id_order[pos]


@dataclass(frozen=True)
class PairDatabase:
    """Sorted pair invariants: ``cos_angles`` ascending, and each pair's two
    stars as int32 indices ``first`` and ``second`` into ``stars``, the
    int64 catalog ids of the stars the table numbers.

    The numbering is the table's own: ``build_pair_database`` numbers every
    star that passes the magnitude filter, in catalog order, and
    ``from_ids`` (so ``load_pair_database``) numbers the stars the pairs
    hold, by ascending id.  ``star_i`` and ``star_j`` are the ids of each
    pair, taken from ``stars`` on each access.
    """

    cos_angles: np.ndarray
    stars: np.ndarray
    first: np.ndarray
    second: np.ndarray
    mag_limit: float
    max_angle_rad: float

    def __post_init__(self):
        for a in (self.cos_angles, self.stars, self.first, self.second):
            a.setflags(write=False)

    @classmethod
    def from_ids(cls, cos_angles, star_i, star_j, mag_limit: float, max_angle_rad: float) -> "PairDatabase":
        """The table of the pairs (``star_i[k]``, ``star_j[k]``) of catalog
        ids, its stars numbered by ascending id."""
        star_i, star_j = np.asarray(star_i, dtype=np.int64), np.asarray(star_j, dtype=np.int64)
        stars, index = np.unique(np.concatenate((star_i, star_j)), return_inverse=True)
        index = index.astype(np.int32)
        return cls(np.asarray(cos_angles), stars, index[: len(star_i)], index[len(star_i) :], mag_limit, max_angle_rad)

    @property
    def star_i(self) -> np.ndarray:
        return self.stars[self.first]

    @property
    def star_j(self) -> np.ndarray:
        return self.stars[self.second]

    def __len__(self) -> int:
        return len(self.cos_angles)


@dataclass(frozen=True)
class KVectorIndex:
    """Count vector plus the line coefficients cos = slope * k + intercept.

    counts has exactly len(cos_angles) entries; counts[0] is always 0 and
    the line passes through the first and last sorted cosine.
    """

    counts: np.ndarray
    intercept: float
    slope: float

    def __post_init__(self):
        self.counts.setflags(write=False)


def catalog_from_records(rows) -> StarCatalog:
    """A StarCatalog from ``(id, ra_rad, dec_rad, mag)`` rows, unit vectors
    computed from the angles; a repeated id raises CatalogError."""
    ids, ra, dec, mags = tuple(zip(*rows)) or ((), (), (), ())
    ra, dec, mags = (np.array(column, dtype=float) for column in (ra, dec, mags))
    return StarCatalog(np.array(ids, dtype=np.int64), ra, dec, mags, radec_to_unit(ra, dec))


def load_catalog(path) -> StarCatalog:
    """Parse a raw catalog file: one ``id,ra_deg,dec_deg,vmag`` row per star.

    Lines starting with ``#`` (and blank lines) are skipped.  A line that
    does not parse, or holds an id outside int64, a non-finite right
    ascension or magnitude, or a declination outside [-90, 90], raises
    CatalogError naming the file and line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path} line {lineno}"
            parts = line.split(",")
            if len(parts) != 4:
                raise CatalogError(f"{where}: expected 4 comma-separated fields, got {len(parts)}")
            try:
                star_id = int(parts[0])
                ra_deg = float(parts[1])
                dec_deg = float(parts[2])
                mag = float(parts[3])
            except ValueError as exc:
                raise CatalogError(f"{where}: unparseable field ({exc})") from None
            if not -(2**63) <= star_id < 2**63:
                raise CatalogError(f"{where}: star id {star_id} outside the int64 range")
            if not math.isfinite(ra_deg):
                raise CatalogError(f"{where}: right ascension {ra_deg} is not finite")
            if not -90.0 <= dec_deg <= 90.0:
                raise CatalogError(f"{where}: declination {dec_deg} outside [-90, 90]")
            if not math.isfinite(mag):
                raise CatalogError(f"{where}: magnitude {mag} is not finite")
            # RA wraps twice: a tiny negative angle % TWO_PI rounds to TWO_PI itself
            rows.append((star_id, math.radians(ra_deg) % TWO_PI % TWO_PI, math.radians(dec_deg), mag))
    try:
        return catalog_from_records(rows)
    except CatalogError as exc:
        raise CatalogError(f"{exc} in {path}") from None


def _degrees_text(angle: float) -> str:
    """The shortest degree string whose ``math.radians`` is ``angle`` bit
    for bit; ``repr(math.degrees(angle))`` when no float64 degree value
    maps there (about 9 % of arbitrary angles: radians() skips values).

    The search covers ``math.degrees(angle)`` and its two float64
    neighbours (no preimage lay farther in 4 million random angles); ties
    in length go to ``math.degrees(angle)``, then to the lower neighbour.
    """
    nearest = math.degrees(angle)
    candidates = (nearest, math.nextafter(nearest, -math.inf), math.nextafter(nearest, math.inf))
    exact = [repr(d) for d in candidates if math.radians(d).hex() == angle.hex()]
    return min(exact, key=len, default=repr(nearest))


def save_catalog(catalog: StarCatalog, path) -> None:
    """Write a StarCatalog back out in the raw text format.

    Each angle is the shortest degree string that ``load_catalog`` reads
    back to the stored radians, so every catalog read from a file (and
    any angle that ``math.radians`` can produce) round-trips bit-exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# id,ra_deg,dec_deg,vmag\n")
        columns = (catalog.ids, catalog.right_ascension, catalog.declination, catalog.magnitudes)
        for star_id, ra, dec, mag in zip(*(column.tolist() for column in columns)):
            fh.write(f"{star_id},{_degrees_text(ra)},{_degrees_text(dec)},{mag!r}\n")


# Cells of the cosine block taken and compared against the angle limit at
# a time: 2^16 float64, 512 KiB, so a block and its temporaries stay in cache.
_SQUARE_BLOCK = 1 << 16

# The most stars at or brighter than mag_limit that build_pair_database
# takes: it holds about 33 B per pair kept at its peak, and a uniform sky
# keeps about S**2 * (1 - cos max_angle) / 4 pairs, 4.5 million at 35 deg.
MAX_PAIR_STARS = 10_000


def _stable_sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``order = np.argsort(values, kind="stable")`` and ``values[order]``,
    from numpy's default sort: each run of equal values is put back in
    index order by sorting only its positions, keyed by (run, index).
    Without ties that costs one comparison pass.  Equal means ``==``, so
    -0.0 and 0.0 share a run, and their bytes are read after the repair."""
    order = np.argsort(values)
    ranked = values[order]
    tie = ranked[1:] == ranked[:-1]
    if tie.any():
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] = tie
        tied[:-1] |= tie
        pos = np.flatnonzero(tied)
        run = np.cumsum(~np.concatenate(([False], tie))[pos])
        m = len(order)
        order[pos] = np.sort(run * m + order[pos]) % m
        ranked[pos] = values[order[pos]]
    return order, ranked


def build_pair_database(catalog: StarCatalog, mag_limit: float, max_angle_rad: float) -> PairDatabase:
    """Collect every star pair with both magnitudes <= mag_limit and an
    interstar angle <= max_angle_rad (both bounds inclusive), sorted
    ascending in cos(angle) with ties kept in input-pair order: row-major
    over the upper triangle, as a stable sort leaves them
    (``_stable_sort``).

    The cosine of stars i < j is ``(x_i x_j + y_i y_j) + z_i z_j``, each step
    one correctly rounded ufunc, so its bits depend on no BLAS or CPU.  Row
    blocks of about ``_SQUARE_BLOCK`` upper-triangle cells are taken and
    scanned one at a time: nothing of S x S size is held.  Kept cosines are
    clipped to [-1, 1], which moves none across cos(max_angle_rad) > -1.
    More than ``MAX_PAIR_STARS`` stars to mag_limit raise CatalogError.

    The table numbers the stars that pass the magnitude cut in catalog
    order: a pair's ``first`` and ``second`` are the row and column of its
    upper-triangle cell, so the ids are never gathered per pair.
    """
    if not 0.0 < max_angle_rad < math.pi:
        raise ValueError("max_angle_rad must lie in (0, pi)")
    keep = catalog.magnitudes <= mag_limit
    n = int(keep.sum())
    if n < 2:
        raise CatalogError("catalog too sparse: fewer than 2 stars pass the magnitude filter")
    if n > MAX_PAIR_STARS:
        raise CatalogError(
            f"{n} stars are at or brighter than mag_limit {mag_limit}, more than the cap of {MAX_PAIR_STARS}: "
            f"the pair table may hold up to {n} * {n - 1} / 2 = {n * (n - 1) // 2:,} pairs"
        )
    ids = catalog.ids[keep]
    v = catalog.unit_vectors[keep].T.copy()  # the x, y and z rows
    cos_max = math.cos(max_angle_rad)

    step = max(1, _SQUARE_BLOCK // n)
    cells, kept = [], []
    for r0 in range(0, n - 1, step):
        # pairs (r0 + i, r0 + 1 + j) with j >= i, row-major as triu_indices
        block = np.multiply.outer(v[0, r0 : r0 + step], v[0, r0 + 1 :])
        block += np.multiply.outer(v[1, r0 : r0 + step], v[1, r0 + 1 :])
        block += np.multiply.outer(v[2, r0 : r0 + step], v[2, r0 + 1 :])
        flat = np.flatnonzero(block >= cos_max)
        i, j = np.divmod(flat, n - r0 - 1)
        upper = j >= i
        cells.append((i[upper] + r0) * n + (j[upper] + (r0 + 1)))
        kept.append(block.ravel()[flat[upper]])
    cell, cosines = np.concatenate(cells), np.concatenate(kept)  # the flat S x S index and cosine of each pair
    del cells, kept
    np.clip(cosines, -1.0, 1.0, out=cosines)
    if len(cosines) < 1:
        raise CatalogError("catalog too sparse: no star pair within the angle limit")

    order, cosines = _stable_sort(cosines)
    cell = cell[order]
    del order
    row, col = np.divmod(cell, n)
    del cell
    return PairDatabase(cosines, ids, row.astype(np.int32), col.astype(np.int32), mag_limit, max_angle_rad)


def build_kvector(db: PairDatabase) -> KVectorIndex:
    """Fit the endpoint line and count, per integer step k, the cosines
    strictly below it: ``searchsorted(s, line, "left")``, taken by binning.

    Each cosine goes to the bin k with ``line[k] <= c < line[k + 1]``,
    compared against the same line floats, and ``counts[k]`` is the
    number of cosines in the bins below k.  Raises CatalogError when the
    cosines leave [-1, 1] or are too close together for a rising line.
    """
    s = db.cos_angles
    n = len(s)
    if n < 2:
        raise CatalogError("need at least 2 pairs to build a k-vector")
    if not (-1.0 <= s[0] and s[-1] <= 1.0):
        raise CatalogError("pair cosines outside [-1, 1]")
    if s[0] >= s[-1]:
        raise CatalogError("degenerate invariant range: all pair cosines equal")
    slope = (s[-1] - s[0]) / (n - 1)
    if not slope > 0:
        raise CatalogError("degenerate invariant range: the pair cosines span too little for a rising line")
    intercept = float(s[0])
    line = intercept + slope * np.arange(n + 1)
    line[n] = math.inf
    # the bin of each cosine c, the k with line[k] <= c < line[k + 1]: the
    # line's own estimate, and a search for the few it misses by rounding
    k = np.minimum((s - intercept) / slope, n - 1).astype(np.int64)
    off = ~((line[k] <= s) & (s < line[k + 1]))
    k[off] = np.searchsorted(line[:n], s[off], side="right") - 1
    counts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.bincount(k, minlength=n)[: n - 1], out=counts[1:])
    return KVectorIndex(counts=counts, intercept=intercept, slope=float(slope))


def kvector_range_query(
    index: KVectorIndex, db: PairDatabase, gamma_rad: float, epsilon_rad: float
) -> np.ndarray:
    """Indices of all pairs with cos(gamma+eps) <= cos_angle <= cos(gamma-eps).

    The one-angle call of ``kvector_range_queries``: pair indices in
    ascending order; empty result is valid.
    """
    return kvector_range_queries(index, db, [gamma_rad], epsilon_rad)[0]


def kvector_range_queries(
    index: KVectorIndex, db: PairDatabase, gammas_rad, epsilon_rad: float
) -> tuple[np.ndarray, np.ndarray]:
    """``kvector_range_query`` for every angle at once, in CSR layout.

    The pair indices of angle p are ``rows[offsets[p]:offsets[p + 1]]``,
    ascending.  Per angle, the k-vector bins ``counts[k_lo]`` and
    ``counts[k_hi]`` bracket the rows; the bracket is widened where the
    upper bin falls short, and exact comparisons against the sorted
    cosines trim it to ``lo <= cos <= hi``.  ``lo`` and ``hi`` are taken with
    ``math.cos`` per angle, so the result does not depend on numpy's
    vectorised cosine.
    """
    if epsilon_rad < 0:
        raise ValueError("epsilon must be non-negative")
    gammas = np.asarray(gammas_rad, dtype=float).ravel().tolist()
    s = db.cos_angles
    n = len(s)
    lo = np.fromiter((math.cos(g + epsilon_rad) for g in gammas), dtype=float, count=len(gammas))
    hi = np.fromiter((math.cos(g - epsilon_rad) for g in gammas), dtype=float, count=len(gammas))
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("angles must be finite")
    k_lo = np.clip(np.floor((lo - index.intercept) / index.slope), 0, n - 1).astype(np.int64)
    k_hi = np.clip(np.ceil((hi - index.intercept) / index.slope), 0, n - 1).astype(np.int64)
    # counts[k_lo] never passes a cosine >= lo; counts[k_hi] may stop a bin
    # short of the last cosine <= hi, so the bracket is widened to it.
    start = index.counts[k_lo]
    stop = np.maximum(index.counts[k_hi], np.searchsorted(s, hi, side="right"))
    length = np.maximum(stop - start, 0)
    bracket = np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())
    keep = (s[bracket] >= np.repeat(lo, length)) & (s[bracket] <= np.repeat(hi, length))
    offsets = np.concatenate(([0], np.cumsum(keep)))[np.concatenate(([0], np.cumsum(length)))]
    return bracket[keep], offsets


_ARTIFACT_KEYS = ("cos_angles", "star_i", "star_j", "mag_limit", "max_angle_rad")


def save_pair_database(db: PairDatabase, path) -> None:
    """Persist the pair table as a single .npz artifact (bit-exact); the
    k-vector is rebuilt from it on load."""
    np.savez(path, **{key: getattr(db, key) for key in _ARTIFACT_KEYS})


def load_pair_database(path) -> tuple[PairDatabase, KVectorIndex]:
    """Read a ``save_pair_database`` artifact and rebuild its k-vector.

    Raises CatalogError naming ``path`` when a key is missing, the pair
    arrays differ in length, the cosines are not sorted, or they admit no
    k-vector.  The ``counts``, ``intercept`` and ``slope`` keys of an older
    artifact are ignored.
    """
    with np.load(path) as z:
        missing = [key for key in _ARTIFACT_KEYS if key not in z.files]
        if missing:
            raise CatalogError(f"{path}: missing {', '.join(missing)}")
        cos_angles, star_i, star_j = z["cos_angles"], z["star_i"], z["star_j"]
        mag_limit, max_angle_rad = float(z["mag_limit"]), float(z["max_angle_rad"])
    if len({a.shape for a in (cos_angles, star_i, star_j)}) != 1 or cos_angles.ndim != 1:
        raise CatalogError(f"{path}: cos_angles, star_i and star_j are not 1-D arrays of one length")
    if not (np.diff(cos_angles) >= 0).all():
        raise CatalogError(f"{path}: cos_angles are not sorted ascending")
    db = PairDatabase.from_ids(cos_angles, star_i, star_j, mag_limit, max_angle_rad)
    try:
        return db, build_kvector(db)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from None


# A pair cosine recomputed from the catalog agrees with the stored one to
# a few ulps; moving a star by 1 arcsec shifts it by about 1e-6.
PAIR_COS_TOLERANCE = 1e-12


def check_pairs_match(db: PairDatabase, catalog: StarCatalog) -> None:
    """Raise CatalogError unless every pair of ``db`` is a pair of
    ``catalog``: both stars present (``rows_of``), neither fainter than
    ``db.mag_limit``, and the stored cosine within ``PAIR_COS_TOLERANCE``
    of the one the catalog's unit vectors give.  The first offending pair
    is named."""
    rows = catalog.rows_of(np.concatenate([db.star_i, db.star_j])).reshape(2, -1)
    faint = ~(catalog.magnitudes[rows] <= db.mag_limit).all(axis=0)
    if faint.any():
        k = int(np.argmax(faint))
        raise CatalogError(
            f"pair {k} (stars {db.star_i[k]}, {db.star_j[k]}) holds a star fainter than mag_limit {db.mag_limit}"
        )
    u = catalog.unit_vectors
    cosines = np.clip(np.einsum("ij,ij->i", u[rows[0]], u[rows[1]]), -1.0, 1.0)
    off = ~(np.abs(cosines - db.cos_angles) <= PAIR_COS_TOLERANCE)
    if off.any():
        k = int(np.argmax(off))
        raise CatalogError(
            f"pair {k} (stars {db.star_i[k]}, {db.star_j[k]}): stored cosine {float(db.cos_angles[k])!r}, "
            f"the catalog gives {float(cosines[k])!r}"
        )
