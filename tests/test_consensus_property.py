"""Property: the stacked RANSAC stages equal their one-sample forms.

consensus_scores is checked against the scalar pairwise rule: the
reference scores every pair with geometry.angular_separation, the way
RANSAC scored axes one pair at a time, including degenerate (None)
samples, indeterminate axes and thresholds a few ulps either side of an
actual pair separation.  Underneath, the array form of the separation
must equal the scalar one bit for bit.

The stacked Wahba solve and principal-axis extraction are checked bit
for bit against per-sample ``principal_axis_angle(wahba_svd(...))`` and
against one-matrix references of the 2-D SVD solve and of the
quaternion route, over collinear
(degenerate) triples, near-identity (indeterminate) rotations and exact
half turns (q0 == 0).

The agreement test decides most pairs by comparing the sine against
tan(threshold) times the cosine, and must equal
``angular_separations(a, b) <= threshold`` bit for bit: it is checked on
pairs within 1e-12 relative of the threshold, antiparallel pairs,
indeterminate and degenerate samples, vectors that are not unit, and NaN.

The peak memory of consensus_scores per pair of samples is pinned with
``tracemalloc``: it sizes the ``ransac_samples`` cap of the config.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav.attitude_solver import (
    AxisAngle,
    DegenerateGeometryError,
    _agreement,
    consensus_scores,
    principal_axes,
    principal_axis_angle,
    wahba_svd,
    wahba_svds,
)
from opnav.config import MAX_RANSAC_SAMPLES
from opnav.geometry import angular_separation, angular_separations, matrix_from_quaternion, separations_within
from conftest import stack_axes


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
    scores = consensus_scores(*stack_axes(axes), threshold)
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
    scores = consensus_scores(*stack_axes(axes), threshold)
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


def consensus_peak_per_pair(threshold):
    """The ``tracemalloc`` peak of consensus_scores over 256 random unit
    axes, in bytes per pair of samples."""
    k = 256
    rng = np.random.default_rng(5)
    axes = rng.normal(size=(k, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    flags = np.zeros(k, dtype=bool)
    tracemalloc.start()
    try:
        consensus_scores(axes, flags, flags, threshold)
        return tracemalloc.get_traced_memory()[1] / (k * k)
    finally:
        tracemalloc.stop()


def test_consensus_peak_memory_per_sample_pair():
    """consensus_scores holds about 27 B per pair of samples at its peak
    below a 45 deg threshold, and about 160 B at 45 deg or more, where every
    pair goes through ``math.atan2``: the figures the ``ransac_samples`` cap
    of ``PipelineConfig`` is sized by; the cap itself is never run."""
    assert 24 < consensus_peak_per_pair(1e-4) <= 28
    assert 128 < consensus_peak_per_pair(math.pi / 4) <= 161
    assert 161 * MAX_RANSAC_SAMPLES**2 <= 162 * 2**20  # the cap peaks near 160 MiB


def reference_agreement(vec, indeterminate, degenerate, threshold):
    within = angular_separations(vec[:, None, :], vec[None, :, :]) <= threshold
    either = indeterminate[:, None] | indeterminate[None, :]
    agree = np.where(either, indeterminate[:, None] & indeterminate[None, :], within)
    return agree & ~degenerate[:, None] & ~degenerate[None, :]


unit = direction.map(_unit)
# a vector: a unit axis, a scaled one (the tangent test takes squared
# norms in [1/4, 4] only), a zero vector, or one with a NaN
vector = st.one_of(
    unit,
    st.tuples(unit, st.sampled_from([0.49, 0.5, 2.0, 2.01, 1e-200, 1e200])).map(lambda p: p[0] * p[1]),
    st.just(np.zeros(3)),
    st.tuples(unit, st.integers(0, 2)).map(lambda p: np.where(np.arange(3) == p[1], np.nan, p[0])),
)


def near(base, angle, rng):
    """A unit vector ``angle`` rad from ``base``, about a random normal."""
    normal = _unit(np.cross(base, rng.normal(size=3)))
    return math.cos(angle) * base + math.sin(angle) * normal


def near_thresholds(separation, relative):
    """The separation itself, a few ulps either side, and the separation
    scaled by 1 +- ``relative``."""
    out = [separation, separation * (1.0 + relative), separation * (1.0 - relative)]
    for toward in (math.inf, -math.inf):
        t = separation
        for _ in range(3):
            t = math.nextafter(t, toward)
            out.append(t)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and overflow, in the reference too
@settings(max_examples=150, deadline=None)
@given(
    base=unit,
    angles=st.lists(st.sampled_from([0.0, 1e-9, 7e-5, 7.3e-5, 1e-3, 0.5, 0.785, 1.0, math.pi / 2, 3.0, math.pi]),
                    min_size=1, max_size=10),
    extra=st.lists(vector, max_size=4),
    pick=st.tuples(st.integers(0, 15), st.integers(0, 15)),
    relative=st.sampled_from([1e-12, 3e-13]) | st.floats(1e-16, 1e-12),
    flags=st.lists(st.sampled_from(["", "", "indeterminate", "degenerate"]), min_size=16, max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_agreement_equals_atan2_rule(base, angles, extra, pick, relative, flags, seed):
    """Axes at set angles from a base (antiparallel at pi), and thresholds
    at, a few ulps from and within 1e-12 relative of the separation of one
    drawn pair, so the tangent test meets its margin."""
    rng = np.random.default_rng(seed)
    vec = np.array([near(base, a, rng) for a in angles] + [-base] + list(extra), dtype=float)
    a, b = vec[pick[0] % len(vec)], vec[pick[1] % len(vec)]
    ind = np.array([f == "indeterminate" for f in flags[: len(vec)]])
    deg = np.array([f == "degenerate" for f in flags[: len(vec)]])
    for threshold in near_thresholds(float(angular_separations(a, b)), relative):
        got = _agreement(vec, ind, deg, threshold)
        np.testing.assert_array_equal(got, reference_agreement(vec, ind, deg, threshold))
        within = angular_separations(vec[:, None, :], vec[None, :, :]) <= threshold
        np.testing.assert_array_equal(separations_within(vec[:, None, :], vec[None, :, :], threshold), within)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and overflow, in the reference too
@settings(max_examples=200, deadline=None)
@given(
    u=st.lists(vector, min_size=1, max_size=8),
    v=st.lists(vector, min_size=1, max_size=8),
    threshold=st.sampled_from([0.0, 2.0**-401, 2.0**-400, 1e-300, 7.27e-5, math.pi / 4, np.nextafter(math.pi / 4, 0),
                               1.0, math.pi, np.inf, np.nan, -1.0]) | st.floats(0.0, 4.0),
)
def test_separations_within_equals_atan2_rule(u, v, threshold):
    u, v = np.array(u)[:, None, :], np.array(v)[None, :, :]
    np.testing.assert_array_equal(separations_within(u, v, threshold), angular_separations(u, v) <= threshold)


def reference_axis_angle(m):
    """Axis, angle and indeterminate flag of one rotation matrix, by the
    largest-pivot quaternion branch, unit norm, q0 >= 0 and atan2."""
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    best = int(np.argmax([tr, m[0, 0], m[1, 1], m[2, 2]]))
    if best == 0:
        q0 = 0.5 * math.sqrt(1.0 + tr)
        q = np.array([q0, (m[1, 2] - m[2, 1]) / (4.0 * q0), (m[2, 0] - m[0, 2]) / (4.0 * q0),
                      (m[0, 1] - m[1, 0]) / (4.0 * q0)])
    else:
        i = best - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        qi = 0.5 * math.sqrt(1.0 + 2.0 * m[i, i] - tr)
        q = np.empty(4)
        q[0] = (m[j, k] - m[k, j]) / (4.0 * qi)
        q[1 + i] = qi
        q[1 + j] = (m[i, j] + m[j, i]) / (4.0 * qi)
        q[1 + k] = (m[i, k] + m[k, i]) / (4.0 * qi)
    q = q / np.linalg.norm(q)
    nonzero = [x for x in q[1:] if x != 0]
    if q[0] < 0 or (q[0] == 0 and nonzero and nonzero[0] < 0):
        q = -q
    qv_norm = float(np.linalg.norm(q[1:]))
    angle = 2.0 * math.atan2(qv_norm, q[0])
    if angle < 1e-9:
        return np.array([0.0, 0.0, 1.0]), angle, True
    return q[1:] / qv_norm, angle, False


def assert_bitwise(a, b):
    np.testing.assert_array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


def assert_axes_match(rotations, axis, angle, indeterminate):
    for k, r in enumerate(rotations):
        one = principal_axis_angle(r)
        ref_axis, ref_angle, ref_ind = reference_axis_angle(r)
        assert bool(indeterminate[k]) == one.indeterminate == ref_ind
        assert_bitwise(axis[k], one.axis)
        assert_bitwise(axis[k], ref_axis)
        assert_bitwise(angle[k], one.angle)
        assert_bitwise(angle[k], ref_angle)


def reference_wahba(c, n):
    """One 3x3 Wahba solve in 2-D products, or None for collinear rows."""
    b = c.T @ n
    u, s, vt = np.linalg.svd(b)
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        return None
    return u @ np.diag([1.0, 1.0, np.linalg.det(u) * np.linalg.det(vt)]) @ vt


def _rotation(rng):
    q = rng.standard_normal(4)
    return matrix_from_quaternion(q / np.linalg.norm(q))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["random", "noisy", "collinear", "identity", "tiny_turn"]), min_size=1, max_size=24),
)
def test_stacked_wahba_and_axes_equal_per_sample(seed, kinds):
    rng = np.random.default_rng(seed)
    c = np.empty((len(kinds), 3, 3))
    n = rng.standard_normal((len(kinds), 3, 3))
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    for k, kind in enumerate(kinds):
        if kind == "collinear":  # one direction, seen twice and once reversed
            n[k, 1], n[k, 2] = n[k, 0], -n[k, 0]
            c[k] = n[k] @ _rotation(rng).T
        elif kind == "identity":
            c[k] = n[k]
        elif kind == "tiny_turn":  # a rotation far below the indeterminate-axis angle
            c[k] = n[k] @ matrix_from_quaternion(np.array([1.0, 1e-12, 0.0, 0.0])).T
        else:
            c[k] = n[k] @ _rotation(rng).T
            if kind == "noisy":
                c[k] += 1e-4 * rng.standard_normal((3, 3))
    rotations, degenerate = wahba_svds(c, n)
    for k in range(len(kinds)):
        ref = reference_wahba(c[k], n[k])
        assert degenerate[k] == (ref is None)
        try:
            one = wahba_svd(c[k], n[k])
        except DegenerateGeometryError:
            assert degenerate[k]
            continue
        assert not degenerate[k]
        assert_bitwise(rotations[k], one)
        assert_bitwise(rotations[k], ref)
    assert degenerate[[k for k, kind in enumerate(kinds) if kind == "collinear"]].all()
    solved = rotations[~degenerate]
    assert_axes_match(solved, *principal_axes(solved))


signed_unit = st.tuples(*[st.sampled_from([0.0, 0.6, -0.6, 0.8, -0.8, 1.0, -1.0])] * 3).filter(
    lambda v: math.fsum(x * x for x in v) > 0
)


@settings(max_examples=100, deadline=None)
@given(axes=st.lists(signed_unit, min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
def test_stacked_axes_at_half_turns_and_identity(axes, seed):
    """Exact half turns have q0 == 0, where the sign of the first nonzero
    vector component decides the canonical quaternion."""
    rng = np.random.default_rng(seed)
    rotations = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), _rotation(rng)]
    for v in axes:
        v = np.array(v) / np.linalg.norm(v)
        rotations.append(matrix_from_quaternion(np.concatenate(([0.0], v))))
        rotations.append(matrix_from_quaternion(np.array([math.cos(1e-10), *(math.sin(1e-10) * v)])))
    rotations = np.array(rotations)
    assert_axes_match(rotations, *principal_axes(rotations))
