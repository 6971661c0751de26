"""Star catalog ingestion and the search-less pair database.

The onboard database stores, for every retained star pair, the cosine of
the interstar angle in a sorted array together with the two catalog ids
that produced it.  A k-vector over that sorted array supports range
queries without searching: entry k of the count vector holds how many
cosines fall strictly below the straight line fitted through the first
and last entry of the array.

Queries use the k-vector bins to bracket a coarse candidate range and
then apply exact comparisons against the sorted cosines, so endpoint and
tie conventions can only add candidates, never lose them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import radec_to_unit

TWO_PI = 2.0 * math.pi


class CatalogError(ValueError):
    """Raised for malformed catalog input or degenerate databases."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class StarRecord:
    id: int
    right_ascension: float  # rad, [0, 2pi)
    declination: float  # rad, [-pi/2, pi/2]
    magnitude: float


@dataclass(frozen=True)
class StarCatalog:
    """Immutable star list plus the matching (n, 3) unit-vector block."""

    stars: tuple[StarRecord, ...]
    unit_vectors: np.ndarray
    _row_by_id: dict[int, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.unit_vectors.setflags(write=False)
        self._row_by_id.update({s.id: i for i, s in enumerate(self.stars)})

    def __len__(self) -> int:
        return len(self.stars)

    def row_of(self, star_id: int) -> int:
        return self._row_by_id[star_id]

    def unit_vector_of(self, star_id: int) -> np.ndarray:
        return self.unit_vectors[self._row_by_id[star_id]]

    @property
    def magnitudes(self) -> np.ndarray:
        return np.array([s.magnitude for s in self.stars])


@dataclass(frozen=True)
class PairDatabase:
    """Sorted pair invariants: cos_angles ascending, ids aligned by row."""

    cos_angles: np.ndarray
    star_i: np.ndarray
    star_j: np.ndarray
    mag_limit: float
    max_angle_rad: float

    def __post_init__(self):
        for a in (self.cos_angles, self.star_i, self.star_j):
            a.setflags(write=False)

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


def catalog_from_records(records) -> StarCatalog:
    """Build a StarCatalog, computing unit vectors from the angles."""
    records = tuple(records)
    seen = set()
    for r in records:
        if r.id in seen:
            raise CatalogError(f"duplicate star id {r.id}")
        seen.add(r.id)
    if records:
        vecs = np.array([radec_to_unit(r.right_ascension, r.declination) for r in records])
    else:
        vecs = np.zeros((0, 3))
    return StarCatalog(stars=records, unit_vectors=vecs)


def load_catalog(path) -> StarCatalog:
    """Parse a raw catalog file: one ``id,ra_deg,dec_deg,vmag`` row per star.

    Lines starting with ``#`` (and blank lines) are skipped.  Parse
    failures raise CatalogError naming the offending line number.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise CatalogError(f"expected 4 comma-separated fields, got {len(parts)}", lineno)
            try:
                star_id = int(parts[0])
                ra_deg = float(parts[1])
                dec_deg = float(parts[2])
                mag = float(parts[3])
            except ValueError as exc:
                raise CatalogError(f"unparseable field ({exc})", lineno) from None
            if not -90.0 <= dec_deg <= 90.0:
                raise CatalogError(f"declination {dec_deg} outside [-90, 90]", lineno)
            records.append(
                StarRecord(
                    id=star_id,
                    # twice: a tiny negative angle % TWO_PI rounds to TWO_PI itself
                    right_ascension=math.radians(ra_deg) % TWO_PI % TWO_PI,
                    declination=math.radians(dec_deg),
                    magnitude=mag,
                )
            )
    try:
        return catalog_from_records(records)
    except CatalogError as exc:
        raise CatalogError(f"{exc} in {path}") from None


def save_catalog(catalog: StarCatalog, path) -> None:
    """Write a StarCatalog back out in the raw text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# id,ra_deg,dec_deg,vmag\n")
        for s in catalog.stars:
            fh.write(
                f"{s.id},{math.degrees(s.right_ascension)!r},"
                f"{math.degrees(s.declination)!r},{float(s.magnitude)!r}\n"
            )


def build_pair_database(catalog: StarCatalog, mag_limit: float, max_angle_rad: float) -> PairDatabase:
    """Collect every star pair with both magnitudes <= mag_limit and an
    interstar angle <= max_angle_rad (both bounds inclusive), sorted
    ascending in cos(angle) with ties kept in input-pair order.
    """
    if not 0.0 < max_angle_rad < math.pi:
        raise ValueError("max_angle_rad must lie in (0, pi)")
    keep = np.array([s.magnitude <= mag_limit for s in catalog.stars], dtype=bool)
    if keep.sum() < 2:
        raise CatalogError("catalog too sparse: fewer than 2 stars pass the magnitude filter")
    ids = np.array([s.id for s in catalog.stars])[keep]
    vecs = catalog.unit_vectors[keep]
    cos_max = math.cos(max_angle_rad)

    cos_all = np.clip(vecs @ vecs.T, -1.0, 1.0)
    iu, ju = np.triu_indices(len(vecs), k=1)
    cosines = cos_all[iu, ju]
    sel = cosines >= cos_max
    cosines, iu, ju = cosines[sel], iu[sel], ju[sel]
    if len(cosines) < 1:
        raise CatalogError("catalog too sparse: no star pair within the angle limit")

    order = np.argsort(cosines, kind="stable")
    return PairDatabase(
        cos_angles=cosines[order],
        star_i=ids[iu[order]],
        star_j=ids[ju[order]],
        mag_limit=mag_limit,
        max_angle_rad=max_angle_rad,
    )


def build_kvector(db: PairDatabase) -> KVectorIndex:
    """Fit the endpoint line and count, per integer step k, the cosines
    strictly below it."""
    s = db.cos_angles
    n = len(s)
    if n < 2:
        raise CatalogError("need at least 2 pairs to build a k-vector")
    if s[0] >= s[-1]:
        raise CatalogError("degenerate invariant range: all pair cosines equal")
    slope = (s[-1] - s[0]) / (n - 1)
    intercept = float(s[0])
    counts = np.searchsorted(s, intercept + slope * np.arange(n), side="left")
    return KVectorIndex(counts=counts.astype(np.int64), intercept=intercept, slope=float(slope))


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


def save_pair_database(db: PairDatabase, index: KVectorIndex, path) -> None:
    """Persist database + k-vector as a single .npz artifact (bit-exact)."""
    np.savez(
        path,
        cos_angles=db.cos_angles,
        star_i=db.star_i,
        star_j=db.star_j,
        mag_limit=np.float64(db.mag_limit),
        max_angle_rad=np.float64(db.max_angle_rad),
        counts=index.counts,
        intercept=np.float64(index.intercept),
        slope=np.float64(index.slope),
    )


def load_pair_database(path) -> tuple[PairDatabase, KVectorIndex]:
    with np.load(path) as z:
        db = PairDatabase(
            cos_angles=z["cos_angles"],
            star_i=z["star_i"],
            star_j=z["star_j"],
            mag_limit=float(z["mag_limit"]),
            max_angle_rad=float(z["max_angle_rad"]),
        )
        index = KVectorIndex(
            counts=z["counts"], intercept=float(z["intercept"]), slope=float(z["slope"])
        )
    return db, index
