"""Property: consensus_scores equals the scalar pairwise rule.

The reference scores every pair with geometry.angular_separation, the
way RANSAC scored axes one pair at a time, including degenerate (None)
samples, indeterminate axes and thresholds a few ulps either side of an
actual pair separation.  Underneath, the array form of the separation
must equal the scalar one bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav.attitude_solver import AxisAngle, consensus_scores
from opnav.geometry import angular_separation, angular_separations


def reference_scores(axes, threshold_rad):
    def agree(a, b):
        if a.indeterminate or b.indeterminate:
            return a.indeterminate and b.indeterminate
        return angular_separation(a.axis, b.axis) <= threshold_rad

    return [
        -1
        if a is None
        else sum(1 for j, b in enumerate(axes) if j != i and b is not None and agree(a, b))
        for i, a in enumerate(axes)
    ]


direction = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3).filter(
    lambda v: math.fsum(c * c for c in v) > 1e-6
)
# None, an indeterminate axis, or a unit axis a given distance off the base
entry = st.one_of(
    st.none(),
    st.just("indeterminate"),
    st.tuples(direction, st.sampled_from([0.0, 1e-7, 1e-5, 5e-5, 1e-4, 1e-3, 1.0]), st.booleans()),
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def build_axes(base, entries):
    axes = []
    for e in entries:
        if e is None:
            axes.append(None)
        elif e == "indeterminate":
            axes.append(AxisAngle(axis=np.array([0.0, 0.0, 1.0]), angle=0.0, indeterminate=True))
        else:
            d, scale, flip = e
            axis = _unit(base + scale * _unit(d))
            axes.append(AxisAngle(axis=-axis if flip else axis, angle=1.0))
    return axes


@settings(max_examples=300, deadline=None)
@given(
    base=direction,
    entries=st.lists(entry, min_size=0, max_size=24),
    threshold=st.floats(1e-6, 1e-2),
)
def test_matches_scalar_rule(base, entries, threshold):
    axes = build_axes(_unit(base), entries)
    scores = consensus_scores(axes, threshold)
    assert scores.tolist() == reference_scores(axes, threshold)


@settings(max_examples=300, deadline=None)
@given(
    base=direction,
    entries=st.lists(entry, min_size=2, max_size=12),
    pair=st.tuples(st.integers(0, 11), st.integers(0, 11)),
    ulps=st.integers(-3, 3),
)
def test_threshold_within_ulps_of_a_separation(base, entries, pair, ulps):
    axes = build_axes(_unit(base), entries)
    directed = [a for a in axes if a is not None and not a.indeterminate]
    if len(directed) < 2:
        return
    a, b = directed[pair[0] % len(directed)], directed[pair[1] % len(directed)]
    threshold = angular_separation(a.axis, b.axis)
    for _ in range(abs(ulps)):
        threshold = math.nextafter(threshold, math.inf if ulps > 0 else -math.inf)
    scores = consensus_scores(axes, threshold)
    assert scores.tolist() == reference_scores(axes, threshold)


@settings(max_examples=100, deadline=None)
@given(base=direction, entries=st.lists(entry, min_size=1, max_size=24))
def test_array_separation_is_bitwise_scalar(base, entries):
    axes = [a.axis for a in build_axes(_unit(base), entries) if a is not None]
    if not axes:
        return
    u = np.array(axes)
    got = angular_separations(u[:, None, :], u[None, :, :])
    want = np.array([[angular_separation(a, b) for b in u] for a in u])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
