"""Properties of the noise stage of ``render``.

Away from lit pixels each pixel is ``rint(clip(mean + sigma * Z))``, a
fixed pmf over 0..255, which ``render`` samples with a 2^16-cell lookup
table and an exact inverse-CDF draw inside the cells that straddle two
levels.  Three properties pin it:

* the table's level probabilities equal the exact pmf to float64;
* 10^7 sampled pixels pass a chi-square test against that pmf;
* ``render`` equals a slow per-pixel reference of the same algorithm,
  lit pixels and random stream order included, for any scene.

The sampler draws the frame in blocks; a frame several blocks long must
equal the one-call form, random stream included.
"""

from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import chisquare

from opnav.geometry import CameraModel, PointingAngles
from opnav.renderer import (
    _BACKGROUND_BLOCK,
    BACKGROUND_CELLS,
    SceneSpec,
    _background_cells,
    _sample_background,
    background_table,
    render,
    render_field,
)
from opnav.star_catalog import catalog_from_records

WIDTH, HEIGHT = 40, 30
CAMERA = CameraModel(width=WIDTH, height=HEIGHT)
CORNERS = ((0.0, 0.0, 900.0), (WIDTH - 1.0, HEIGHT - 1.0, 900.0))
OVERLAPPING = ((12.3, 14.1, 1500.0), (13.0, 14.6, 800.0), (12.8, 13.2, 40.0))


def exact_pmf(mean, sigma):
    """P(level k), k = 0..255, of rint(clip(mean + sigma * Z, 0, 255))."""
    cdf = ndtr((np.arange(255) + 0.5 - mean) / sigma)
    return np.diff(np.concatenate(([0.0], cdf, [1.0])))


def reference_noise(field, scene):
    """The noise stage pixel by pixel, in the documented stream order."""
    mean, sigma = scene.background_mean_dn, scene.background_sigma_dn
    rng = np.random.default_rng(scene.seed)
    flat = field.ravel()
    lit = [i for i, v in enumerate(flat.tolist()) if v != 0]
    signal = rng.poisson(flat[lit]) if scene.photon_noise else flat[lit]
    lit_dn = rng.normal(mean, sigma, len(lit)) + signal
    out = np.empty(flat.size, dtype=np.uint8)
    if sigma > 0:
        with np.errstate(over="ignore"):
            cdf = ndtr((np.arange(255) + 0.5 - mean) / sigma).tolist()
        cells = rng.integers(0, 2**16, flat.size, dtype=np.uint16).tolist()
        straddling = []
        for i, c in enumerate(cells):
            low, high = bisect_right(cdf, c / 2**16), bisect_left(cdf, (c + 1) / 2**16)
            if low == high:
                out[i] = low
            else:
                straddling.append(i)
        for i, r in zip(straddling, rng.random(len(straddling)).tolist()):
            out[i] = bisect_right(cdf, (cells[i] + r) / 2**16)
    else:
        out[:] = min(max(np.rint(mean), 0), 255)
    for i, v in zip(lit, lit_dn.tolist()):
        out[i] = min(max(np.rint(v), 0), 255)
    return out.reshape(field.shape)


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


BACKGROUNDS = [(5.0, 2.0), (100.2, 7.3), (0.3, 1.7), (250.0, 3.0), (-3.0, 0.5), (5.0, 1e-3), (128.0, 300.0)]


@pytest.mark.parametrize("mean, sigma", BACKGROUNDS)
def test_table_level_probabilities_are_exact(mean, sigma):
    cdf, table = background_table(mean, sigma)
    pmf = exact_pmf(mean, sigma)
    pure = table < 256
    prob = np.bincount(table[pure], minlength=256) / BACKGROUND_CELLS
    # a straddling cell [a, b) gives each level its overlap with [cdf[k - 1], cdf[k])
    lower = np.concatenate(([0.0], cdf))
    upper = np.concatenate((cdf, [1.0]))
    for c in np.flatnonzero(~pure):
        a, b = c / BACKGROUND_CELLS, (c + 1) / BACKGROUND_CELLS
        prob += np.clip(np.minimum(b, upper) - np.maximum(a, lower), 0.0, None)
        assert table[c] == 256 + np.searchsorted(cdf, a, "right")
    np.testing.assert_allclose(prob, pmf, rtol=0, atol=1e-15)
    if (mean, sigma) == (5.0, 2.0):
        assert (~pure).sum() == 14


@pytest.mark.parametrize("mean, sigma", BACKGROUNDS[:3], ids=["default", "bright", "clipped_at_0"])
def test_sampled_background_chi_square(mean, sigma):
    n = 10**7
    counts = np.bincount(_sample_background(np.random.default_rng(20240611), n, mean, sigma), minlength=256)
    expected = n * exact_pmf(mean, sigma)
    # tail levels with fewer than 5 expected pixels join the nearest kept level
    kept = np.flatnonzero(expected >= 5)
    lo, hi = kept[0], kept[-1] + 1
    observed = np.concatenate(([counts[: lo + 1].sum()], counts[lo + 1 : hi - 1], [counts[hi - 1 :].sum()]))
    expected = np.concatenate(([expected[: lo + 1].sum()], expected[lo + 1 : hi - 1], [expected[hi - 1 :].sum()]))
    assert counts.sum() == n
    assert chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 1199, 1200, 2**20])
def test_background_cells_are_the_uint16_integer_stream(n):
    """The cells are ``rng.integers(0, 2**16, n, dtype=uint16)`` for any
    ``n``, a multiple of 4 or not, after the lit pixels' Poisson and normal
    draws, and the float draws that follow read the same stream."""
    ours, reference = np.random.default_rng(n), np.random.default_rng(n)
    for rng in (ours, reference):
        rng.poisson([3.0, 0.4, 250.0])
        rng.normal(5.0, 2.0, 5)
    cells = _background_cells(ours, n)
    assert cells.dtype == np.uint16
    np.testing.assert_array_equal(cells, reference.integers(0, 2**16, n, dtype=np.uint16))
    np.testing.assert_array_equal(ours.random(7), reference.random(7))


def one_shot_background(rng, n, mean, sigma):
    """The sampler with all ``n`` cells drawn and looked up in one call."""
    cdf, table = background_table(mean, sigma)
    cells = _background_cells(rng, n)
    levels = table.take(cells)
    straddle = np.flatnonzero(levels > 255)
    u = (cells[straddle] + rng.random(straddle.size)) / BACKGROUND_CELLS
    levels[straddle] = np.searchsorted(cdf, u, "right")
    return levels.astype(np.uint8)


BLOCK = _BACKGROUND_BLOCK  # a multiple of 4, so each block is whole raw words


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 2**20])
@pytest.mark.parametrize("mean, sigma", BACKGROUNDS[:3], ids=["default", "bright", "clipped_at_0"])
def test_blocked_background_equals_one_shot(n, mean, sigma):
    """Drawing the cells a block at a time reads the same words, and the
    straddle floats after the last block, as one call over the frame."""
    assert BLOCK % 4 == 0
    ours, reference = np.random.default_rng(n), np.random.default_rng(n)
    levels = _sample_background(ours, n, mean, sigma)
    assert levels.dtype == np.uint8
    np.testing.assert_array_equal(levels, one_shot_background(reference, n, mean, sigma))
    np.testing.assert_array_equal(ours.random(7), reference.random(7))


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
@example(sources=list(OVERLAPPING), photon_noise=False, background=(7.6, 0.0), seed=4)
def test_render_equals_reference_noise(sources, photon_noise, background, seed):
    scene = scene_of(sources, photon_noise, background, seed)
    lit, signal, _ = render_field(scene)
    field = np.zeros((HEIGHT, WIDTH))
    field.flat[lit] = signal
    image, _ = render(scene)
    np.testing.assert_array_equal(image.data, reference_noise(field, scene))


def test_corner_example_lights_first_and_last_pixel():
    lit, _, _ = render_field(scene_of(CORNERS, True, (0.0, 0.0), 0))
    assert lit[0] == 0 and lit[-1] == WIDTH * HEIGHT - 1
