"""Property: ``build_pair_database``, which scans the stars sorted by z in
row blocks, each against the band of later stars within the chord of the
angle limit, and sorts with numpy's default sort plus a repair of tied
runs, equals the full form (every cosine of the S x S matrix at once,
clipped, its upper triangle gathered with ``triu_indices``, stable
argsort) byte for byte, whatever the block size; every stored cosine is
``(x_i x_j + y_i y_j) + z_i z_j`` in Python floats; and the build holds
nothing of S x S size."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnav import star_catalog
from opnav.star_catalog import CatalogError, StarCatalog, build_pair_database, catalog_from_records
from conftest import SKIES


def pair_cosines(vecs):
    """The S x S cosines ``(x_i x_j + y_i y_j) + z_i z_j``, from elementwise
    ufuncs in that order: never ``@`` or ``einsum``, which may call BLAS."""
    x, y, z = vecs.T
    return (x[:, None] * x + y[:, None] * y) + z[:, None] * z


def reference_pair_database(catalog, mag_limit, max_angle_rad):
    """The full form: four arrays of S x S size at once."""
    if not 0.0 < max_angle_rad < math.pi:
        raise ValueError("max_angle_rad must lie in (0, pi)")
    keep = catalog.magnitudes <= mag_limit
    if keep.sum() < 2:
        raise CatalogError("catalog too sparse: fewer than 2 stars pass the magnitude filter")
    ids = catalog.ids[keep]
    vecs = catalog.unit_vectors[keep]
    cos_max = math.cos(max_angle_rad)

    cos_all = np.clip(pair_cosines(vecs), -1.0, 1.0)
    iu, ju = np.triu_indices(len(vecs), k=1)
    cosines = cos_all[iu, ju]
    sel = cosines >= cos_max
    cosines, iu, ju = cosines[sel], iu[sel], ju[sel]
    if len(cosines) < 1:
        raise CatalogError("catalog too sparse: no star pair within the angle limit")

    order = np.argsort(cosines, kind="stable")
    return cosines[order], ids[iu[order]], ids[ju[order]]


def _outcome(build, catalog, mag_limit, max_angle_rad):
    """The (cos_angles, star_i, star_j) bytes of a build, or its error."""
    try:
        result = build(catalog, mag_limit, max_angle_rad)
    except CatalogError as exc:
        return "CatalogError", str(exc)
    if isinstance(result, star_catalog.PairDatabase):
        result = (result.cos_angles, result.star_i, result.star_j)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in result)


def _angle_on_a_cosine(cosine):
    """An angle whose ``math.cos`` is ``cosine`` exactly, or None."""
    if not -1.0 < cosine < 1.0:
        return None
    candidates = [math.acos(cosine)]
    for _ in range(4):  # the nearest few float64 angles on either side
        candidates = [math.nextafter(candidates[0], 0.0), *candidates, math.nextafter(candidates[-1], math.pi)]
    return next((a for a in candidates if 0.0 < a < math.pi and math.cos(a) == cosine), None)


@st.composite
def catalogs(draw):
    """2-600 stars drawn from a pool of directions, so that some share a
    direction (equal cosines, ties in the sort), with a magnitude limit,
    an angle limit, and sometimes that limit set exactly on the cosine of
    one pair."""
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.integers(1, n))
    spread = draw(st.sampled_from([0.05, 0.5, math.pi]))
    ra = rng.uniform(0.0, spread, pool) % (2 * math.pi)
    dec = rng.uniform(-spread / 2, spread / 2, pool)
    pick = rng.integers(0, pool, n)
    mags = rng.uniform(0.0, 7.0, n)
    catalog = catalog_from_records(zip(range(n), ra[pick], dec[pick], mags))
    mag_limit = draw(st.floats(0.0, 7.0))
    max_angle_rad = draw(st.floats(1e-6, math.pi, exclude_max=True))
    if draw(st.booleans()):
        bright = catalog.unit_vectors[catalog.magnitudes <= mag_limit]
        if len(bright) >= 2:
            a, b = sorted(rng.choice(len(bright), 2, replace=False))
            on_pair = _angle_on_a_cosine(float(pair_cosines(bright)[a, b]))
            if on_pair is not None:
                max_angle_rad = on_pair
    return catalog, mag_limit, max_angle_rad


def _shared_directions():
    """90 stars on 3 directions 2-3 deg apart: every pair cosine is one
    of 6 values, so the sort meets runs of up to 1305 equal cosines."""
    k = np.arange(90)
    ra, dec = np.array([0.40, 0.45, 0.42])[k % 3], np.array([0.10, 0.10, 0.14])[k % 3]
    return catalog_from_records(zip(k.tolist(), ra, dec, np.full(90, 3.0))), 5.5, math.radians(35.0)


def _axes():
    """Each of the six axis directions four times, with -0.0 components,
    and a 100 deg limit: the orthogonal pairs have a cosine of zero, the
    opposite pairs fall outside the limit."""
    axes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -0.0, 0], [0, -1, -0.0], [-0.0, 0, -1]], dtype=float)
    vecs = np.repeat(axes, 4, axis=0)
    ra = np.arctan2(vecs[:, 1], vecs[:, 0]) % (2 * math.pi)
    dec = np.arcsin(vecs[:, 2])
    catalog = StarCatalog(np.arange(len(vecs)), ra, dec, np.full(len(vecs), 1.0), vecs)
    return catalog, 5.5, math.radians(100.0)


# Catalogs whose builds always reach the repair of tied runs in the sort.
TIED_CASES = {"shared_directions": _shared_directions(), "axes": _axes()}


def _stars(ra, dec):
    """Magnitude 3 stars at the given angles, ids 0, 1, ..."""
    return catalog_from_records(zip(range(len(ra)), ra, dec, np.full(len(ra), 3.0)))


def _poles():
    """30 stars within 1 deg of each pole, one of them on it, and a 1.5 deg
    limit: the first and last rows of the z order, where the bands end."""
    rng = np.random.default_rng(26)
    dec = math.pi / 2 - rng.uniform(0.0, math.radians(1.0), 60)
    dec[:2] = math.pi / 2
    dec[::2] *= -1.0
    return _stars(rng.uniform(0.0, 2 * math.pi, 60), dec), 5.5, math.radians(1.5)


def _duplicates_tiny_limit():
    """60 stars on 12 directions, 3 per base direction at 0, 5e-7 and 2e-6
    rad apart in declination (one base 3e-6 rad from the pole), and a limit
    of 1e-6 rad: a band about 1e-6 wide in z."""
    base_ra, base_dec = np.array([0.3, 2.0, 4.0, 5.5]), np.array([0.2, -0.9, 1.1, math.pi / 2 - 3e-6])
    dec = (base_dec[:, None] + np.array([0.0, 5e-7, 2e-6])).ravel()
    k = np.arange(60) % 12
    return _stars(np.repeat(base_ra, 3)[k], dec[k]), 5.5, 1e-6


def _wide_limit(max_angle_rad):
    """150 stars over the whole sky, both poles among them, and a limit
    wide enough that the bands of most rows reach both poles."""
    rng = np.random.default_rng(27)
    dec = np.arcsin(rng.uniform(-1.0, 1.0, 150))
    dec[:2] = (math.pi / 2, -math.pi / 2)
    return _stars(rng.uniform(0.0, 2 * math.pi, 150), dec), 5.5, max_angle_rad


def _mirrored_pairs():
    """Pairs on one meridian mirrored across the equator, whose z differ by
    their full chord, and the limit set exactly on one pair's cosine: the
    band's bound is met with equality."""
    dec = np.array([0.05, 0.058529112991541794, 0.058529112991541794 + 1e-9, 0.61, 1.2])
    ra = np.full(10, 4.816125402671297)
    catalog = _stars(ra, np.concatenate((dec, -dec)))
    x, y, z = catalog.unit_vectors[1]
    on_pair = _angle_on_a_cosine((x * x + y * y) + z * -z)
    assert on_pair is not None
    return catalog, 5.5, on_pair


# Catalogs at the edges of the z bands.
BAND_CASES = {
    "poles": _poles(),
    "duplicates_tiny_limit": _duplicates_tiny_limit(),
    "wide_limit_100deg": _wide_limit(math.radians(100.0)),
    "wide_limit_near_pi": _wide_limit(math.pi - 1e-6),
    "mirrored_pairs": _mirrored_pairs(),
}


@settings(max_examples=150, deadline=None)
@given(case=catalogs(), block_rows=st.integers(1, 5), tail=st.integers(0, 4))
@example(case=TIED_CASES["shared_directions"], block_rows=1, tail=0)
@example(case=TIED_CASES["shared_directions"], block_rows=4, tail=3)
@example(case=TIED_CASES["axes"], block_rows=1, tail=0)
@example(case=TIED_CASES["axes"], block_rows=5, tail=2)
@example(case=BAND_CASES["poles"], block_rows=1, tail=0)
@example(case=BAND_CASES["poles"], block_rows=4, tail=1)
@example(case=BAND_CASES["duplicates_tiny_limit"], block_rows=1, tail=0)
@example(case=BAND_CASES["duplicates_tiny_limit"], block_rows=3, tail=4)
@example(case=BAND_CASES["wide_limit_100deg"], block_rows=1, tail=0)
@example(case=BAND_CASES["wide_limit_100deg"], block_rows=5, tail=0)
@example(case=BAND_CASES["wide_limit_near_pi"], block_rows=2, tail=3)
@example(case=BAND_CASES["mirrored_pairs"], block_rows=1, tail=0)
@example(case=BAND_CASES["mirrored_pairs"], block_rows=2, tail=1)
def test_row_blocks_equal_the_full_form(case, block_rows, tail):
    catalog, mag_limit, max_angle_rad = case
    n = int((catalog.magnitudes <= mag_limit).sum())
    # a budget of block_rows rows; a budget below one row still scans 1 row
    budget = max(1, n * block_rows - tail)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(star_catalog, "_SQUARE_BLOCK", budget)
        got = _outcome(build_pair_database, catalog, mag_limit, max_angle_rad)
    assert got == _outcome(reference_pair_database, catalog, mag_limit, max_angle_rad)


@pytest.mark.parametrize("name", sorted(TIED_CASES))
def test_tied_cases_hold_ties(name):
    cos_angles = reference_pair_database(*TIED_CASES[name])[0]
    assert len(cos_angles) > 16  # past the sizes numpy sorts by insertion
    assert (cos_angles[1:] == cos_angles[:-1]).sum() > len(cos_angles) // 2
    if name == "axes":
        assert (cos_angles == 0.0).sum() == 4 * 4 * 12  # 12 orthogonal direction pairs


@st.composite
def tied_values(draw):
    """Up to 3000 floats drawn from a small pool holding -0.0 and 0.0,
    so most of them sit in runs of equal values."""
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate(([-0.0, 0.0], rng.standard_normal(draw(st.integers(0, 40)))))
    return pool[rng.integers(0, len(pool), n)]


@settings(max_examples=200, deadline=None)
@given(values=tied_values())
def test_sort_equals_stable_argsort(values):
    order, ranked = star_catalog._stable_sort(values, np.arange(len(values)))
    want = np.argsort(values, kind="stable")
    np.testing.assert_array_equal(order, want)
    assert ranked.tobytes() == values[want].tobytes()  # -0.0 and 0.0 in input order


@settings(max_examples=200, deadline=None)
@given(values=tied_values(), seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 5000))
def test_sort_breaks_ties_by_key(values, seed, distinct):
    """Ties go to the smaller key, then (equal keys too) to the smaller
    index, as ``np.lexsort`` orders them."""
    key = np.random.default_rng(seed).integers(0, distinct, len(values))
    order, ranked = star_catalog._stable_sort(values, key)
    want = np.lexsort((key, values))
    np.testing.assert_array_equal(order, want)
    assert ranked.tobytes() == values[want].tobytes()


def test_pair_exactly_on_the_bound_is_kept():
    # two stars on the equator: the limit is set on their cosine itself
    catalog = catalog_from_records([(1, 0.0, 0.0, 1.0), (2, 0.4, 0.0, 1.0), (3, 2.0, 0.0, 1.0)])
    vecs = catalog.unit_vectors
    bound = _angle_on_a_cosine(float(pair_cosines(vecs)[0, 1]))
    assert bound is not None
    db = build_pair_database(catalog, 5.5, bound)
    assert (db.star_i.tolist(), db.star_j.tolist()) == ([1], [2])
    assert _outcome(build_pair_database, catalog, 5.5, bound) == _outcome(
        reference_pair_database, catalog, 5.5, bound
    )


@settings(max_examples=100, deadline=None)
@given(dec=st.floats(-8.0, 0.17).map(lambda e: 10.0**e), ra=st.floats(0.0, 6.28))
@example(dec=0.058529112991541794, ra=4.816125402671297)
@example(dec=1.6800639958667013e-08, ra=5.360356629993344)
def test_pair_across_the_equator_on_the_bound_is_kept(dec, ra):
    """Two stars mirrored across the equator differ in z by their whole
    chord; with the limit on their cosine, the band of the lower star's
    one-row block must still reach the upper star, although 2 - 2 cos
    rounds below the squared z difference for about half of such pairs
    (the two examples among them)."""
    catalog = _stars([ra, ra], [dec, -dec])
    x, y, z = catalog.unit_vectors[0]
    bound = _angle_on_a_cosine((x * x + y * y) + z * -z)
    if bound is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(star_catalog, "_SQUARE_BLOCK", 1)
        db = build_pair_database(catalog, 5.5, bound)
    assert (db.first.tolist(), db.second.tolist()) == ([0], [1])


@pytest.fixture(scope="module", params=sorted(SKIES))
def sky_catalog(request):
    cfg = SKIES[request.param]
    return cfg, cfg.sky()


def test_skies_equal_the_full_form(sky_catalog):
    cfg, catalog = sky_catalog
    args = (catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
    assert _outcome(build_pair_database, *args) == _outcome(reference_pair_database, *args)


@settings(max_examples=100, deadline=None)
@given(case=catalogs())
def test_cosines_are_the_fixed_order_sum(case):
    catalog, mag_limit, max_angle_rad = case
    try:
        db = build_pair_database(catalog, mag_limit, max_angle_rad)
    except CatalogError:
        return
    u = catalog.unit_vectors.tolist()
    rows = zip(catalog.rows_of(db.star_i).tolist(), catalog.rows_of(db.star_j).tolist())
    want = []
    for (xi, yi, zi), (xj, yj, zj) in ((u[a], u[b]) for a, b in rows):
        want.append(min(1.0, max(-1.0, (xi * xj + yi * yj) + zi * zj)))
    assert [c.hex() for c in db.cos_angles.tolist()] == [c.hex() for c in want]


# What the build may hold at its peak: 32 B per kept pair (the sorted
# cosines, the sort order, the flat cell index and its gather; the row and
# column split from it come after the order is dropped), and room for one
# float64 block and the temporaries of its scan.
PEAK_BYTES_PER_PAIR = 32
PEAK_BLOCK_BYTES = 4 * 8 * star_catalog._SQUARE_BLOCK


def test_peak_memory_is_the_kept_pairs():
    """On the default sky (S = 2258 stars to mag 5.5, 230,259 pairs): about
    7.3 MiB, against 38.9 MiB for one S x S float64 matrix."""
    cfg = SKIES["default"]
    catalog = cfg.sky()
    s = int((catalog.magnitudes <= cfg.mag_limit).sum())
    tracemalloc.start()
    try:
        db = build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES_PER_PAIR * len(db) + PEAK_BLOCK_BYTES < 8 * s * s
