"""Property: the k-vector range query equals a linear scan of db.cos_angles,
and the batched query equals the one-angle query angle by angle."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav.star_catalog import (
    CatalogError,
    build_kvector,
    build_pair_database,
    catalog_from_records,
    kvector_range_queries,
    kvector_range_query,
)


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
