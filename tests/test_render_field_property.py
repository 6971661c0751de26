"""``render_field`` and the peak gather of ``render`` against the
per-source loops they replace.

``render_field`` lays every source's clipped 4-sigma window on one
fixed-shape grid and adds the deposits with ``np.bincount`` in deposit
order.  The reference here is the dense per-source loop: a float frame,
one ``+= flux * np.outer(fy, fx)`` per source, then the non-zero pixels in
C order.  The two agree bit for bit, and each ``peak_dn`` of ``render`` is
the largest quantized DN in that object's window, as a per-object loop
reads it.  Both run over several PSF widths: at 1.0 and 1.25 px, 4 sigma
is a whole number, so a box can fill the grid; at 12 px the box is wider
than the frame, so the grid is capped at the frame size.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from opnav.ephemeris import Planet
from opnav.config import PipelineConfig
from opnav.geometry import CameraModel, PointingAngles, attitude_from_axis_azimuth, los_from_pixel, project_star
from opnav.renderer import (
    DETECTABILITY_DN,
    PSF_TRUNCATION_SIGMAS,
    SceneSpec,
    TruthObject,
    magnitude_to_flux,
    render,
    render_field,
)
from opnav.star_catalog import catalog_from_records

WIDTH, HEIGHT = 40, 30
CAMERA = CameraModel(width=WIDTH, height=HEIGHT)
SIGMAS = (0.5, 0.9, 1.0, 1.25, 12.0)  # 0.9 is the default
POSE = PointingAngles(0.3, -0.2, 1.1)
ATTITUDE = attitude_from_axis_azimuth(POSE)
DEFAULT_SKY = PipelineConfig().sky()


def psf_box(shape, x, y, sigma):
    """Inclusive (x0, x1, y0, y1) of the clipped 4-sigma box, or None."""
    height, width = shape
    r = PSF_TRUNCATION_SIGMAS * sigma
    x0 = max(int(math.floor(x - r)), 0)
    x1 = min(int(math.ceil(x + r)), width - 1)
    y0 = max(int(math.floor(y - r)), 0)
    y1 = min(int(math.ceil(y + r)), height - 1)
    if x0 > x1 or y0 > y1:
        return None
    return x0, x1, y0, y1


def reference_field(objects, fluxes, sigma, shape=(HEIGHT, WIDTH)):
    """The dense float frame, one source at a time in deposit order."""
    field = np.zeros(shape)
    for o, flux in zip(objects, fluxes):
        box = None if math.isnan(o.x) else psf_box(field.shape, o.x, o.y, sigma)
        if box is None:
            continue
        x0, x1, y0, y1 = box
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        fx = ndtr((xs + 0.5 - o.x) / sigma) - ndtr((xs - 0.5 - o.x) / sigma)
        fy = ndtr((ys + 0.5 - o.y) / sigma) - ndtr((ys - 0.5 - o.y) / sigma)
        field[y0 : y1 + 1, x0 : x1 + 1] += flux * np.outer(fy, fx)
    return field


def reference_peak(data, x, y, sigma):
    box = None if math.isnan(x) else psf_box(data.shape, x, y, sigma)
    if box is None:
        return 0.0
    x0, x1, y0, y1 = box
    return float(data[y0 : y1 + 1, x0 : x1 + 1].max())


def star_at(ident, x, y, mag):
    """A catalog row whose direction projects to about pixel (x, y)."""
    u = ATTITUDE.T @ los_from_pixel(CAMERA, (x, y))
    return ident, math.atan2(u[1], u[0]), math.asin(u[2]), mag


def planet_at(name, x, y, mag, behind=False):
    u = ATTITUDE.T @ los_from_pixel(CAMERA, (x, y))
    return Planet(name, (-1e8 if behind else 1e8) * u, mag)


def scene_of(stars, planets, artifacts, sigma, seed=0):
    return SceneSpec(
        camera=CameraModel(width=WIDTH, height=HEIGHT, defocus_sigma_px=sigma),
        true_attitude=POSE,
        sc_position_km=np.zeros(3),
        star_catalog=catalog_from_records([star_at(i + 1, *s) for i, s in enumerate(stars)]),
        planets=tuple(planet_at(*p) for p in planets),
        photon_noise=False,
        seed=seed,
        extra_sources=tuple(artifacts),
    )


def fluxes_of(scene, objects):
    """Each object's total flux, looked up from the scene it came from."""
    mags = dict(zip(scene.star_catalog.ids.tolist(), scene.star_catalog.magnitudes.tolist()))
    mags.update((p.name, p.magnitude) for p in scene.planets)
    artifacts = iter(scene.extra_sources)
    out = []
    for o in objects:
        if o.kind == "artifact":
            out.append(next(artifacts)[2])
        else:
            m = mags[int(o.ident)] if o.kind == "star" else mags[o.ident]
            out.append(magnitude_to_flux(m, scene.camera, scene.anchor_mag, scene.anchor_peak_dn))
    return out


xs = st.floats(-6.0, WIDTH + 5.0)
ys = st.floats(-6.0, HEIGHT + 5.0)
flux = st.one_of(st.just(0.0), st.floats(-2000.0, 5000.0))
# a source within 1.5 px of one of the four frame edges, so its window is clipped there
at_edge = st.builds(
    lambda edge, t, d, f: [
        (d, t * (HEIGHT - 1), f),
        (WIDTH - 1 + d, t * (HEIGHT - 1), f),
        (t * (WIDTH - 1), d, f),
        (t * (WIDTH - 1), HEIGHT - 1 + d, f),
    ][edge],
    st.integers(0, 3),
    st.floats(0.0, 1.0),
    st.floats(-1.5, 1.5),
    flux,
)
far = st.tuples(st.sampled_from([1e30, -1e30, WIDTH + 40.0, -50.0]), ys, flux)
cancelling = st.tuples(xs, ys, st.floats(1.0, 5000.0)).map(lambda s: [s, (s[0], s[1], -s[2])])
near_pair = st.tuples(xs, ys, flux, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), flux).map(
    lambda s: [s[:3], (s[0] + s[3], s[1] + s[4], s[5])]
)
artifacts = st.builds(
    lambda singles, pairs: singles + [s for pair in pairs for s in pair],
    st.lists(st.one_of(st.tuples(xs, ys, flux), at_edge, far), max_size=6),
    st.lists(st.one_of(cancelling, near_pair), max_size=2),
)
stars = st.lists(st.tuples(xs, ys, st.floats(-1.0, 7.0)), max_size=5)
planets = st.lists(
    st.tuples(st.sampled_from(["mars", "venus"]), xs, ys, st.floats(-3.0, 4.0), st.booleans()),
    max_size=2,
    unique_by=lambda p: p[0],
)

CANCEL = [(12.3, 14.1, 700.0), (12.3, 14.1, -700.0)]
CORNERS = [(0.2, 0.0, 900.0), (WIDTH - 1.0, 0.4, 900.0), (-0.9, HEIGHT - 1.0, 900.0), (WIDTH - 0.5, HEIGHT, 900.0)]


@pytest.mark.parametrize("sigma", SIGMAS)
@settings(max_examples=150, deadline=None)
@given(stars=stars, planets=planets, artifacts=artifacts)
@example(stars=[], planets=[], artifacts=[])
@example(stars=[], planets=[], artifacts=CANCEL)
@example(stars=[], planets=[], artifacts=CORNERS)
@example(stars=[], planets=[], artifacts=[(1e30, 10.0, 500.0), (5.0, -1e30, 500.0), (-60.0, 10.0, 500.0)])
@example(stars=[(20.0, 15.0, 2.0), (21.0, 15.5, 3.0)], planets=[("mars", 20.0, 15.0, 0.0, True)], artifacts=[])
@example(
    stars=[(20.0, 15.0, 2.0)],
    planets=[("mars", 20.4, 14.8, -1.0, False), ("venus", 5.0, 5.0, -2.0, True)],
    artifacts=[(20.0, 15.0, 0.0), *CANCEL],
)
def test_render_field_equals_dense_per_source_loop(stars, planets, artifacts, sigma):
    scene = scene_of(stars, planets, artifacts, sigma)
    lit, signal, objects = render_field(scene)
    field = reference_field(objects, fluxes_of(scene, objects), sigma).ravel()
    expected = np.flatnonzero(field != 0)
    np.testing.assert_array_equal(lit, expected)
    assert signal.dtype == np.float64
    assert signal.view(np.int64).tolist() == field[expected].view(np.int64).tolist()
    if artifacts == CANCEL:
        assert lit.size == 0

    image, truth = render(scene)
    assert [(o.kind, o.ident, repr(o.x), repr(o.y)) for o in truth.objects] == [
        (o.kind, o.ident, repr(o.x), repr(o.y)) for o in objects
    ]
    for o in truth.objects:
        peak = reference_peak(image.data, o.x, o.y, sigma)
        assert type(o.peak_dn) is float and o.peak_dn == peak
        assert o.visible == (CAMERA.in_frame(o.x, o.y) and peak >= DETECTABILITY_DN)


def uncut_field(scene):
    """``render_field`` of a scene of stars with no cone cut: every catalog
    row through ``project_star``, then the in-box and magnitude filters,
    ``magnitude_to_flux`` and the dense per-source loop."""
    cam = scene.camera
    att = attitude_from_axis_azimuth(scene.true_attitude)
    margin = PSF_TRUNCATION_SIGMAS * cam.defocus_sigma_px + 1.0
    cat = scene.star_catalog
    objects, fluxes = [], []
    for ident, ra, dec, mag in zip(
        cat.ids.tolist(), cat.right_ascension.tolist(), cat.declination.tolist(), cat.magnitudes.tolist()
    ):
        px = project_star(cam, att, ra, dec)
        if px is None or mag > scene.render_mag_cutoff:
            continue
        x, y = px.tolist()
        if -margin <= x <= cam.width - 1 + margin and -margin <= y <= cam.height - 1 + margin:
            objects.append(TruthObject("star", str(ident), x, y, 0.0, False))
            fluxes.append(magnitude_to_flux(mag, cam, scene.anchor_mag, scene.anchor_peak_dn))
    field = reference_field(objects, fluxes, cam.defocus_sigma_px, (cam.height, cam.width)).ravel()
    lit = np.flatnonzero(field != 0)
    return lit, field[lit], objects


def assert_equals_uncut(scene):
    lit, signal, objects = render_field(scene)
    ref_lit, ref_signal, ref_objects = uncut_field(scene)
    assert [(o.kind, o.ident, repr(o.x), repr(o.y)) for o in objects] == [
        (o.kind, o.ident, repr(o.x), repr(o.y)) for o in ref_objects
    ]
    np.testing.assert_array_equal(lit, ref_lit)
    assert signal.view(np.int64).tolist() == ref_signal.view(np.int64).tolist()
    return objects


def edge_stars(camera, attitude):
    """Catalog rows about one pixel inside and one pixel outside the PSF
    margin past each frame edge and corner, a star in the frame, and one
    in the frame fainter than the render cutoff."""
    margin = PSF_TRUNCATION_SIGMAS * camera.defocus_sigma_px + 1.0
    rows = []
    for d, mag in ((margin - 0.01, 3.0), (margin + 0.01, 3.0)):
        lo, hi = -d, (camera.width - 1 + d, camera.height - 1 + d)
        mid = ((camera.width - 1) / 2, (camera.height - 1) / 2)
        for x, y in (
            (lo, mid[1]), (hi[0], mid[1]), (mid[0], lo), (mid[0], hi[1]),
            (lo, lo), (hi[0], lo), (lo, hi[1]), hi,
        ):
            rows.append((x, y, mag))
    rows += [(5.0, 7.0, 2.0), (12.0, 9.0, 7.0)]
    out = []
    for i, (x, y, mag) in enumerate(rows):
        u = attitude.T @ los_from_pixel(camera, (x, y))
        out.append((i + 1, math.atan2(u[1], u[0]), math.asin(u[2]), mag))
    return catalog_from_records(out)


@pytest.mark.parametrize("pose", [POSE, PointingAngles(5.0, 1.5, 4.0)], ids=["pose", "near_pole"])
@pytest.mark.parametrize("sigma", (0.9, 1.25, 12.0))
@pytest.mark.parametrize("fov", (20.0, 120.0, 170.0))
def test_cone_cut_keeps_every_star_of_the_psf_margin(fov, sigma, pose):
    camera = CameraModel(fov_deg=fov, width=WIDTH, height=HEIGHT, defocus_sigma_px=sigma)
    catalog = edge_stars(camera, attitude_from_axis_azimuth(pose))
    scene = SceneSpec(camera, pose, np.zeros(3), catalog, photon_noise=False)
    objects = assert_equals_uncut(scene)
    # the eight stars inside the margin and the bright one in the frame are drawn
    assert [o.ident for o in objects] == [str(i) for i in range(1, 9)] + ["17"]


@pytest.mark.parametrize("fov, poses", [(20.0, 20), (120.0, 3), (170.0, 3)])
def test_cone_cut_on_the_default_sky(fov, poses):
    camera = CameraModel(fov_deg=fov)
    rng = np.random.default_rng(int(fov))
    for _ in range(poses):
        pose = PointingAngles(
            rng.uniform(0.0, 2.0 * math.pi), math.asin(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        )
        objects = assert_equals_uncut(SceneSpec(camera, pose, np.zeros(3), DEFAULT_SKY, photon_noise=False))
        assert objects
