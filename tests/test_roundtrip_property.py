"""Properties: quaternion <-> matrix and file-format round trips.

Every file format writes floats with ``repr``, so a value read back is
the value written, bit for bit.  The raw star catalog stores degrees:
each angle is written as the shortest degree string whose
``math.radians`` is the stored angle, so it reads back bit for bit
whenever such a float64 degree value exists.  ``math.radians`` skips
about 9 % of arbitrary angles; those come back within one ulp, and the
catalog read back is then a fixed point of the round trip.  The
synthetic sky holds only angles read back from its own file, so it and
that file are the same sky.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SKIES

from opnav.config import (
    MAX_FRAME_PIXELS,
    MAX_RANSAC_SAMPLES,
    MAX_SKY_STARS,
    NON_NEGATIVE_FIELDS,
    POSITIVE_FIELDS,
    PipelineConfig,
    load_config,
    save_config,
)
from opnav.ephemeris import Planet, load_ephemeris, save_ephemeris
from opnav.geometry import Attitude, PointingAngles, matrix_from_quaternion, quaternion_from_matrix
from opnav.renderer import (
    PSF_TRUNCATION_SIGMAS,
    GroundTruth,
    Image,
    TruthObject,
    read_pgm,
    read_truth,
    write_pgm,
    write_truth,
)
from opnav.skysim import synthetic_catalog
from opnav.star_catalog import (
    build_kvector,
    build_pair_database,
    catalog_from_records,
    load_catalog,
    load_pair_database,
    save_catalog,
    save_pair_database,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


# --- quaternion <-> matrix ----------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(q=arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)))
@example(q=np.array([0.0, 1.0, 0.0, 0.0]))  # half turns: the non-trace branches
@example(q=np.array([0.0, 0.0, 0.0, -1.0]))
@example(q=np.array([1e-9, 0.6, 0.0, 0.8]))
def test_quaternion_matrix_quaternion(q):
    assume(np.linalg.norm(q) > 1e-3)
    canonical = Attitude(q)
    back = quaternion_from_matrix(matrix_from_quaternion(canonical))
    assert back.q[0] >= 0
    if canonical.q[0] > 1e-12:
        np.testing.assert_allclose(back.q, canonical.q, rtol=0, atol=1e-15)
    else:  # a half turn: q and -q both have q0 = 0 within round-off
        assert min(np.abs(back.q - canonical.q).max(), np.abs(back.q + canonical.q).max()) <= 1e-15


# --- text and binary files ----------------------------------------------------


def radians_preimage(angle: float) -> bool:
    """Some float64 degree value within 4 ulps of ``math.degrees(angle)``
    has ``math.radians`` equal to ``angle`` bit for bit."""
    below = above = math.degrees(angle)
    near = [below]
    for _ in range(4):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        near += [below, above]
    return any(bits(math.radians(d)) == bits(angle) for d in near)


def catalog_columns(catalog) -> tuple[bytes, ...]:
    return tuple(
        column.tobytes()
        for column in (catalog.ids, catalog.right_ascension, catalog.declination, catalog.magnitudes, catalog.unit_vectors)
    )


@settings(max_examples=50, deadline=None)
@given(
    stars=st.lists(
        st.tuples(
            st.floats(0.0, 2.0 * math.pi, exclude_max=True),
            st.floats(-math.pi / 2, math.pi / 2),
            finite,
        ),
        max_size=20,
    )
)
@example(stars=[(math.radians(123.4), -0.0, 1.0), (0.0, math.pi / 2, 2.0), (2.0 * math.pi - 1e-15, -math.pi / 2, 3.0)])
@example(stars=[(5.0000000000000036, 0.3000000000000003, 4.0)])  # neither angle has a float64 degree preimage
def test_catalog_file(workdir, stars):
    catalog = catalog_from_records((3 * i + 1, ra, dec, m) for i, (ra, dec, m) in enumerate(stars))
    path = workdir / "catalog.csv"
    save_catalog(catalog, path)
    back = load_catalog(path)
    assert back.ids.tolist() == catalog.ids.tolist()
    assert back.magnitudes.tobytes() == catalog.magnitudes.tobytes()
    for name in ("right_ascension", "declination"):
        stored, read = getattr(catalog, name), getattr(back, name)
        exact = np.array([radians_preimage(a) for a in stored.tolist()], dtype=bool)
        assert read[exact].tobytes() == stored[exact].tobytes()
        assert (np.abs(read - stored)[~exact] <= np.spacing(np.abs(stored[~exact]))).all()
    np.testing.assert_allclose(back.unit_vectors, catalog.unit_vectors, rtol=0, atol=2e-15)
    # a catalog read from a file round-trips bit for bit
    save_catalog(back, path)
    assert catalog_columns(load_catalog(path)) == catalog_columns(back)


@settings(max_examples=50, deadline=None)
@given(
    stars=st.lists(
        st.tuples(
            st.floats(0.0, 360.0, exclude_max=True),
            st.floats(-90.0, 90.0),
            st.integers(0, 12),
            st.floats(-2.0, 12.0),
        ),
        max_size=20,
    )
)
def test_catalog_text_written_back_unchanged(workdir, stars):
    """Degrees of up to 12 decimals (15 significant digits at most), RA in
    [0, 360), are the shortest strings for their angles: save writes the
    file back as read."""
    text = "# id,ra_deg,dec_deg,vmag\n" + "".join(
        f"{i + 1},{round(ra, k) % 360.0!r},{round(dec, k)!r},{mag!r}\n" for i, (ra, dec, k, mag) in enumerate(stars)
    )
    path = workdir / "typed.csv"
    path.write_text(text)
    save_catalog(load_catalog(path), path)
    assert path.read_text() == text


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_stars=st.integers(0, 400))
def test_synthetic_catalog_is_its_own_file(workdir, seed, n_stars):
    catalog = synthetic_catalog(n_stars, seed, mag_bright=0.0, mag_faint=5.0, slope=0.35)
    path = workdir / "synthetic.csv"
    save_catalog(catalog, path)
    assert catalog_columns(load_catalog(path)) == catalog_columns(catalog)


@pytest.mark.parametrize("name", sorted(SKIES))
def test_config_sky_is_its_own_file(tmp_path, name):
    catalog = SKIES[name].sky()
    save_catalog(catalog, tmp_path / "sky.csv")
    assert catalog_columns(load_catalog(tmp_path / "sky.csv")) == catalog_columns(catalog)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_stars=st.integers(30, 150))
def test_pair_database_file(workdir, seed, n_stars):
    catalog = synthetic_catalog(n_stars, seed, mag_bright=0.0, mag_faint=5.0, slope=0.35)
    db = build_pair_database(catalog, mag_limit=5.5, max_angle_rad=math.radians(35.0))
    assume(len(db) >= 2 and db.cos_angles[0] < db.cos_angles[-1])
    index = build_kvector(db)
    path = workdir / "onboard.npz"
    save_pair_database(db, path)
    db2, index2 = load_pair_database(path)
    for name in ("cos_angles", "star_i", "star_j"):
        a, b = getattr(db, name), getattr(db2, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert index.counts.dtype == index2.counts.dtype and index.counts.tobytes() == index2.counts.tobytes()
    for a, b in (
        (db.mag_limit, db2.mag_limit),
        (db.max_angle_rad, db2.max_angle_rad),
        (index.intercept, index2.intercept),
        (index.slope, index2.slope),
    ):
        assert type(b) is float and bits(a) == bits(b)


@settings(max_examples=100, deadline=None)
@given(
    table=st.dictionaries(
        names,
        st.dictionaries(names, st.tuples(st.tuples(finite, finite, finite), finite), min_size=1, max_size=4),
        max_size=4,
    )
)
def test_ephemeris_file(workdir, table):
    planets = {
        epoch: tuple(Planet(name, pos, mag) for name, (pos, mag) in rows.items())
        for epoch, rows in table.items()
    }
    path = workdir / "planets.csv"
    save_ephemeris(planets, path)
    back = load_ephemeris(path)
    assert list(back) == list(planets)
    for epoch in planets:
        assert [p.name for p in back[epoch]] == [p.name for p in planets[epoch]]
        for got, want in zip(back[epoch], planets[epoch]):
            assert got.position_km.tobytes() == want.position_km.tobytes()
            assert bits(got.magnitude) == bits(want.magnitude)


# The int fields that validate caps from above, and the frame sides: at
# most isqrt(MAX_FRAME_PIXELS) each keeps the pixel count within the cap.
# A longer side is valid beside a short one, so only the fields capped on
# their own draw invalid values from above.
_INT_CAPS = {
    "ransac_samples": MAX_RANSAC_SAMPLES,
    "sky_star_count": MAX_SKY_STARS,
    "image_width": math.isqrt(MAX_FRAME_PIXELS),
    "image_height": math.isqrt(MAX_FRAME_PIXELS),
}
_CAPPED_ALONE = ("ransac_samples", "sky_star_count")


def _valid_values(name, kind):
    """Every value PipelineConfig.validate accepts for one field."""
    if kind is bool:
        return st.booleans()
    if kind is int:
        low = 1 if name in POSITIVE_FIELDS or name == "threshold_max_iterations" else -(2**40)
        high = _INT_CAPS.get(name, 2**40)
        return st.integers(0 if name in NON_NEGATIVE_FIELDS else low, high)
    if name == "fov_deg":
        return st.floats(0.0, 180.0, exclude_min=True, exclude_max=True)
    if name in POSITIVE_FIELDS:
        return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    if name in NON_NEGATIVE_FIELDS:
        return st.floats(min_value=0.0, allow_infinity=False)
    return finite


def _invalid_values(name, kind, cfg):
    """Values outside the range of one field, given the rest of ``cfg``."""
    if kind is int:
        low = st.integers(-(2**40), 0 if name in POSITIVE_FIELDS or name == "threshold_max_iterations" else -1)
        return (low | st.integers(_INT_CAPS[name] + 1, 2**40)) if name in _CAPPED_ALONE else low
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    if name == "render_mag_cutoff":
        return st.floats(max_value=cfg.mag_limit, exclude_max=True) | non_finite
    if name in POSITIVE_FIELDS:
        return st.floats(max_value=0.0) | non_finite | (st.floats(min_value=180.0) if name == "fov_deg" else st.nothing())
    if name in NON_NEGATIVE_FIELDS:
        return st.floats(max_value=0.0, exclude_max=True) | non_finite
    return non_finite  # every float field must be finite


@st.composite
def configs(draw):
    cfg = PipelineConfig()
    for f in dataclasses.fields(PipelineConfig):
        if draw(st.booleans()):
            setattr(cfg, f.name, draw(_valid_values(f.name, type(getattr(cfg, f.name)))))
    if cfg.render_mag_cutoff < cfg.mag_limit:
        cfg.render_mag_cutoff, cfg.mag_limit = cfg.mag_limit, cfg.render_mag_cutoff
    # the 4-sigma PSF box, 2 * ceil(4 sigma) + 1 px, fits the smaller frame side
    cfg.image_width, cfg.image_height = max(cfg.image_width, 3), max(cfg.image_height, 3)
    half_box = (min(cfg.image_width, cfg.image_height) - 1) // 2
    if PSF_TRUNCATION_SIGMAS * cfg.defocus_sigma_px > half_box:
        cfg.defocus_sigma_px = draw(st.floats(0.0, half_box / PSF_TRUNCATION_SIGMAS, exclude_min=True))
    return cfg


@settings(max_examples=100, deadline=None)
@given(cfg=configs())
def test_config_file(workdir, cfg):
    path = workdir / "pipeline.cfg"
    save_config(cfg, path)
    back = load_config(path)
    for f in dataclasses.fields(PipelineConfig):
        got, want = getattr(back, f.name), getattr(cfg, f.name)
        assert type(got) is type(want)
        assert got == want and (not isinstance(want, float) or bits(got) == bits(want))


FLOAT_FIELDS = tuple(
    f.name for f in dataclasses.fields(PipelineConfig) if isinstance(getattr(PipelineConfig(), f.name), float)
)
RANGED_FIELDS = sorted({*POSITIVE_FIELDS, *NON_NEGATIVE_FIELDS, "threshold_max_iterations", *FLOAT_FIELDS})


@settings(max_examples=100, deadline=None)
@given(cfg=configs(), name=st.sampled_from(RANGED_FIELDS), data=st.data())
def test_config_file_out_of_range_rejected(workdir, cfg, name, data):
    setattr(cfg, name, data.draw(_invalid_values(name, type(getattr(cfg, name)), cfg)))
    path = workdir / "pipeline.cfg"
    save_config(cfg, path)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        load_config(path)


@settings(max_examples=100, deadline=None)
@given(data=st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(lambda s: arrays(np.uint8, s)))
def test_pgm_file(workdir, data):
    path = workdir / "frame.pgm"
    write_pgm(Image(data), path)
    back = read_pgm(path)
    assert back.data.shape == data.shape
    assert back.data.dtype == np.uint8 and back.data.tobytes() == data.tobytes()
    again = workdir / "again.pgm"
    write_pgm(back, again)
    assert again.read_bytes() == path.read_bytes()


truth_objects = st.builds(
    TruthObject,
    kind=st.sampled_from(["star", "planet", "artifact"]),
    ident=names,
    x=finite | st.just(math.nan),  # NaN: a planet behind the camera
    y=finite | st.just(math.nan),
    peak_dn=st.floats(0.0, 255.0),
    visible=st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(
    objects=st.lists(truth_objects, max_size=10),
    attitude=st.builds(
        PointingAngles, alpha=st.floats(-10.0, 10.0), delta=st.floats(-math.pi / 2, math.pi / 2), phi=st.floats(-10.0, 10.0)
    ),
)
@example(  # -tiny % 2 pi rounds to 2 pi, which a second reading maps to 0
    objects=[], attitude=PointingAngles(alpha=-1e-300, delta=0.0, phi=-6.883241104396364e-255)
)
def test_truth_file(workdir, objects, attitude):
    truth = GroundTruth(objects=tuple(objects), attitude=attitude)
    path = workdir / "truth.csv"
    write_truth(truth, path)
    back = read_truth(path)
    for got, want in zip(back.objects, truth.objects, strict=True):
        assert (got.kind, got.ident, got.visible) == (want.kind, want.ident, want.visible)
        assert [bits(v) for v in (got.x, got.y, got.peak_dn)] == [bits(v) for v in (want.x, want.y, want.peak_dn)]
    a, b = back.attitude, truth.attitude
    assert [bits(v) for v in (a.alpha, a.delta, a.phi)] == [bits(v) for v in (b.alpha, b.delta, b.phi)]
    again = workdir / "again.csv"
    write_truth(back, again)
    assert again.read_bytes() == path.read_bytes()
