"""Property: the sparse noise stage of ``render`` equals the dense one.

The reference draws Poisson shot noise over every pixel of the signal
field, adds the Gaussian background as a separate full-frame array, and
rounds, clamps and casts, the way ``render`` did before shot noise was
drawn on the lit pixels only.  ``Generator.poisson`` takes no draw for a
zero rate, so both forms must give the same bytes for any scene.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnav.geometry import CameraModel, PointingAngles
from opnav.renderer import SceneSpec, render, render_field
from opnav.star_catalog import catalog_from_records

WIDTH, HEIGHT = 40, 30
CAMERA = CameraModel(width=WIDTH, height=HEIGHT)
CORNERS = ((0.0, 0.0, 900.0), (WIDTH - 1.0, HEIGHT - 1.0, 900.0))
OVERLAPPING = ((12.3, 14.1, 1500.0), (13.0, 14.6, 800.0), (12.8, 13.2, 40.0))


def dense_reference(field, scene):
    rng = np.random.default_rng(scene.seed)
    if scene.photon_noise:
        field = rng.poisson(field).astype(np.float64)
    if scene.background_sigma_dn > 0 or scene.background_mean_dn != 0:
        field = field + rng.normal(scene.background_mean_dn, scene.background_sigma_dn, size=field.shape)
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def scene_of(sources, photon_noise, background, seed):
    mean, sigma = background
    return SceneSpec(
        camera=CAMERA,
        true_attitude=PointingAngles(0.0, 0.0, 0.0),
        sc_position_km=np.zeros(3),
        star_catalog=catalog_from_records([]),
        background_mean_dn=mean,
        background_sigma_dn=sigma,
        photon_noise=photon_noise,
        seed=seed,
        extra_sources=tuple(sources),
    )


flux = st.one_of(st.just(0.0), st.floats(1e-3, 5000.0))
anywhere = st.tuples(st.floats(-4.0, WIDTH + 3.0), st.floats(-4.0, HEIGHT + 3.0), flux)
# a source centred within 1.5 px of a frame corner, so its PSF is clipped there
at_corner = st.builds(
    lambda corner, dx, dy, f: (corner[0] + dx, corner[1] + dy, f),
    st.sampled_from([(0.0, 0.0), (WIDTH - 1.0, 0.0), (0.0, HEIGHT - 1.0), (WIDTH - 1.0, HEIGHT - 1.0)]),
    st.floats(-1.5, 1.5),
    st.floats(-1.5, 1.5),
    flux,
)
# a second source within 2 px of the first, so their PSFs overlap
overlapping_pair = st.builds(
    lambda s, dx, dy, f: [s, (s[0] + dx, s[1] + dy, f)],
    anywhere,
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    flux,
)
sources = st.builds(
    lambda singles, pairs: singles + [s for pair in pairs for s in pair],
    st.lists(st.one_of(anywhere, at_corner), max_size=6),
    st.lists(overlapping_pair, max_size=2),
)
background = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(-3.0, 20.0), st.floats(0.0, 6.0)),
)


@settings(max_examples=150, deadline=None)
@given(
    sources=sources,
    photon_noise=st.booleans(),
    background=background,
    seed=st.integers(0, 2**32 - 1),
)
@example(sources=[], photon_noise=True, background=(5.0, 2.0), seed=0)
@example(sources=[], photon_noise=False, background=(0.0, 0.0), seed=0)
@example(sources=list(CORNERS), photon_noise=True, background=(5.0, 2.0), seed=3)
@example(sources=list(CORNERS), photon_noise=True, background=(0.0, 0.0), seed=3)
@example(sources=list(CORNERS), photon_noise=False, background=(5.0, 2.0), seed=3)
@example(sources=list(OVERLAPPING), photon_noise=True, background=(5.0, 2.0), seed=4)
@example(sources=list(OVERLAPPING), photon_noise=True, background=(0.0, 0.0), seed=4)
@example(sources=list(OVERLAPPING), photon_noise=False, background=(0.0, 0.0), seed=4)
def test_render_equals_dense_noise(sources, photon_noise, background, seed):
    scene = scene_of(sources, photon_noise, background, seed)
    field, _ = render_field(scene)
    image, _ = render(scene)
    np.testing.assert_array_equal(image.data, dense_reference(field, scene))


def test_corner_example_lights_first_and_last_pixel():
    field, _ = render_field(scene_of(CORNERS, True, (0.0, 0.0), 0))
    flat = field.ravel()
    assert flat[0] != 0 and flat[-1] != 0
