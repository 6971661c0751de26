"""Property: the k-vector range query equals a linear scan of db.cos_angles,
and the batched query equals the one-angle query angle by angle; the
k-vector counts, taken by binning, equal one ``searchsorted`` per bin."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav.star_catalog import (
    CatalogError,
    PairDatabase,
    build_kvector,
    build_pair_database,
    catalog_from_records,
    kvector_range_queries,
    kvector_range_query,
)
from conftest import SKIES


@st.composite
def pair_databases(draw):
    """A random star patch and its pair database; some patches repeat
    positions so that several pairs share one cosine."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.05, 0.3, 1.0]))
    ra = rng.uniform(0.0, spread, n)
    dec = rng.uniform(-spread / 2, spread / 2, n)
    if draw(st.booleans()):  # a regular grid: many equal pair angles
        ra = np.round(ra / (spread / 4)) * (spread / 4)
        dec = np.round(dec / (spread / 4)) * (spread / 4)
    # distinct positions only: a zero-angle pair is not a star pair
    rows = list({(r, d): (100 + k, r, d, 1.0) for k, (r, d) in enumerate(zip(ra, dec))}.values())
    if len(rows) < 3:
        return None
    try:
        db = build_pair_database(catalog_from_records(rows), 5.5, math.radians(35.0))
    except CatalogError:  # no pair within the angle limit
        return None
    if len(db) < 2 or db.cos_angles[0] >= db.cos_angles[-1]:
        return None
    return db


def linear_scan(db, gamma, epsilon):
    lo = math.cos(gamma + epsilon)
    hi = math.cos(gamma - epsilon)
    return np.flatnonzero((db.cos_angles >= lo) & (db.cos_angles <= hi))


@settings(max_examples=200, deadline=None)
@given(
    db=pair_databases(),
    gamma=st.floats(0.0, 0.7),
    epsilon=st.sampled_from([0.0, 1e-9, 3.4e-5, 1e-3, 0.05]),
)
def test_random_angles(db, gamma, epsilon):
    if db is None:
        return
    index = build_kvector(db)
    got = kvector_range_query(index, db, gamma, epsilon)
    np.testing.assert_array_equal(got, linear_scan(db, gamma, epsilon))


@settings(max_examples=200, deadline=None)
@given(
    db=pair_databases(),
    pick=st.integers(0, 10**6),
    epsilon=st.sampled_from([0.0, 1e-12, 3.4e-5]),
)
def test_angles_of_stored_pairs(db, pick, epsilon):
    # query right on a stored cosine, where the bins and ties bite
    if db is None:
        return
    index = build_kvector(db)
    gamma = math.acos(float(db.cos_angles[pick % len(db)]))
    got = kvector_range_query(index, db, gamma, epsilon)
    np.testing.assert_array_equal(got, linear_scan(db, gamma, epsilon))


# Angles inside the table, on stored pairs, between them (empty brackets)
# and beyond both ends of it (cos above the largest or below the smallest).
angle_picks = st.one_of(
    st.floats(0.0, 0.7),
    st.integers(0, 10**6).map(lambda k: ("stored", k)),
    st.sampled_from([0.0, 1e-12, math.radians(36.0), 1.5, 3.0, math.pi]),
)


@settings(max_examples=200, deadline=None)
@given(
    db=pair_databases(),
    picks=st.lists(angle_picks, min_size=0, max_size=30),
    epsilon=st.sampled_from([0.0, 1e-12, 3.4e-5, 1e-3, 0.05]),
)
def test_batched_equals_per_angle_and_scan(db, picks, epsilon):
    if db is None:
        return
    index = build_kvector(db)
    gammas = [
        math.acos(float(db.cos_angles[p[1] % len(db)])) if isinstance(p, tuple) else p for p in picks
    ]
    rows, offsets = kvector_range_queries(index, db, gammas, epsilon)
    assert rows.dtype == np.int64
    assert len(offsets) == len(gammas) + 1 and offsets[0] == 0 and offsets[-1] == len(rows)
    for p, gamma in enumerate(gammas):
        got = rows[offsets[p] : offsets[p + 1]]
        np.testing.assert_array_equal(got, kvector_range_query(index, db, gamma, epsilon))
        np.testing.assert_array_equal(got, linear_scan(db, gamma, epsilon))


def searchsorted_counts(s):
    """The k-vector counts by definition: per bin k, the cosines strictly
    below ``intercept + slope * k``, one binary search each."""
    n = len(s)
    slope = (s[-1] - s[0]) / (n - 1)
    return np.searchsorted(s, float(s[0]) + slope * np.arange(n), side="left")


def _pair_table(s):
    s = np.asarray(s, dtype=float)
    return PairDatabase.from_ids(s, np.arange(len(s)), np.arange(len(s)) + 1, 5.5, 1.0)


@st.composite
def sorted_cosines(draw):
    """Sorted cosines in [-1, 1] with a rising endpoint line: spreads from
    the whole range down to a few ulps (where many bins share one line
    value), long runs of ties drawn from a small pool of values, and
    entries set to -1, -0.0, 0.0 and 1, the ends of the clip."""
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([2.0, 0.3, 1e-6, 1e-9, 1e-13, 1e-15]))
    centre = draw(st.floats(-1.0, 1.0))
    pool = np.clip(centre + width * (rng.random(draw(st.integers(2, n + 1))) - 0.5), -1.0, 1.0)
    values = pool[rng.integers(0, len(pool), n)]
    for end in draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), max_size=4)):
        values[rng.integers(0, n, draw(st.integers(1, 50)))] = end
    s = np.sort(values)
    return s if s[0] < s[-1] else None


@settings(max_examples=300, deadline=None)
@given(s=sorted_cosines())
def test_counts_equal_searchsorted(s):
    if s is None:
        return
    index = build_kvector(_pair_table(s))
    assert index.intercept == s[0] and index.slope == (s[-1] - s[0]) / (len(s) - 1)
    assert index.counts.dtype == np.int64
    np.testing.assert_array_equal(index.counts, searchsorted_counts(s))


# sha256 of KVectorIndex.counts on each of the SKIES
COUNTS_SHA256 = {
    "default": "66879bacb101e88c0d8412240268a37ffa3db4d5fb13684e293989ef5a05a6e2",
    "crowded": "8405f70ea7aef97710beafa8c903591c41bb0ea72f297c88590a3ab2e2657340",
}


@pytest.mark.parametrize("name", sorted(SKIES))
def test_sky_counts_frozen_and_equal_searchsorted(name):
    cfg = SKIES[name]
    catalog = cfg.sky()
    db = build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
    counts = build_kvector(db).counts
    np.testing.assert_array_equal(counts, searchsorted_counts(db.cos_angles))
    assert hashlib.sha256(counts.tobytes()).hexdigest() == COUNTS_SHA256[name]


@pytest.mark.parametrize(
    "s, reason",
    [
        ([-1.5, 0.0, 0.5], "pair cosines outside [-1, 1]"),
        ([0.0, 0.5, math.nan], "pair cosines outside [-1, 1]"),
        ([0.0, 0.5, math.inf], "pair cosines outside [-1, 1]"),
        # one subnormal of rise over 3 bins: the slope rounds to 0
        ([0.0, 0.0, 0.0, 5e-324], "degenerate invariant range: the pair cosines span too little for a rising line"),
    ],
)
def test_counts_need_cosines_and_a_rising_line(s, reason):
    with pytest.raises(CatalogError) as info:
        build_kvector(_pair_table(s))
    assert str(info.value) == reason


def test_counts_on_a_subnormal_slope():
    s = np.array([0.0, 0.0, 1e-323])  # slope 5e-324, the smallest that rises
    np.testing.assert_array_equal(build_kvector(_pair_table(s)).counts, searchsorted_counts(s))
