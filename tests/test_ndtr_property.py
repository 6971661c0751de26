"""Property: ``renderer._ndtr`` is ``scipy.special.ndtr`` bit for bit.

Both are the Cephes ``ndtr``: ``0.5 + 0.5 erf(a / sqrt 2)`` near 0 and
``0.5 erfc(|a| / sqrt 2)`` (reflected for a > 0) elsewhere, with erf from
one rational and erfc from two more, and ``exp(-z^2)`` from libm.  The
results are compared as int64 bit patterns, so a one-ulp difference, a
sign of zero or a branch taken one float too early fails.  NaN gives NaN
(its bits are not compared).  The inputs cover finite floats, subnormals,
signed zeros and infinities, every branch edge a = +-1, +-sqrt(2),
+-8 sqrt(2) and +-sqrt(2 MAXLOG) with its float64 neighbours, and every
argument of one default render.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from opnav import renderer
from opnav.config import PipelineConfig
from opnav.harness import sample_scenarios
from opnav.skysim import solar_system

MAXLOG = 7.09782712893383996843e2


def neighbours(edge, k=4):
    """``edge`` and its ``k`` float64 neighbours on each side, for +-edge."""
    out = []
    for value in (edge, -edge):
        below = above = value
        out.append(value)
        for _ in range(k):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out += [below, above]
    return out


EDGES = [v for e in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG)) for v in neighbours(e)]
SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]


def check(values):
    a = np.array(values, dtype=float)
    got, want = renderer._ndtr(a), ndtr(a)
    assert got.shape == a.shape and got.dtype == np.float64
    nan = np.isnan(a)
    assert np.isnan(got[nan]).all()
    assert got[~nan].view(np.int64).tolist() == want[~nan].view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(-40.0, 40.0)
        | st.floats(-1e-300, 1e-300)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from(EDGES + SPECIAL),
        max_size=64,
    )
)
@example(values=EDGES)
@example(values=SPECIAL)
@example(values=[np.nan, -np.nan, 1.0, np.nan])
@example(values=[])
def test_equals_scipy_ndtr(values):
    check(values)


def test_every_edge_neighbour_of_the_exact_switch():
    # where the branch tests z < sqrt(1/2), z < 1, z < 8 and z^2 <= MAXLOG flip
    # in a, whatever a's rounding: 64 floats on each side of each
    check([v for e in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG)) for v in neighbours(e, 64)])


def test_a_grid_of_a_million():
    check(np.linspace(-40.0, 40.0, 1_000_001))


def test_every_argument_of_a_default_render():
    cfg = PipelineConfig()
    spec = sample_scenarios(1, 3, cfg, cfg.camera(), solar_system())[0]
    original, seen = renderer._ndtr, []

    def spy(a):
        seen.append(np.array(a, dtype=float).ravel())
        return original(a)

    # the central-pixel fraction and the background table are cached: drop them so the render asks again
    renderer.central_pixel_fraction.cache_clear()
    renderer.background_table.cache_clear()
    with mock.patch.object(renderer, "_ndtr", spy):
        renderer.render(cfg.scene(spec.pointing, spec.sc_position_km, cfg.sky(), spec.planets, spec.index))
    assert [len(a) for a in seen[:1]] == [2] and len(seen) == 3  # central pixel, the PSF edges, the background
    check(np.concatenate(seen))
