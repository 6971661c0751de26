"""Properties: a stacked projection equals the one-target projection.

``predict_projections`` takes one attitude matrix, stacked Jacobians,
stacked ``P = F S F^T`` and stacked eigen-decompositions for every
beacon; each entry must equal ``predict_projection`` for that beacon
alone, and a one-beacon reference written with plain per-beacon NumPy
products, bit for bit, with None for a beacon behind the camera.

The stacked form gives each row its own spacecraft estimate and budget,
as the Monte Carlo sigma_r sweep does: each row of ``predict_projections``
and each dict of a stacked ``harness.detect_beacons`` call must equal the
one-row call with that row's estimate and budget, bit for bit.

``render_field`` projects the stars of a cone around the boresight and
every planet through ``project_points``; each truth pixel must equal
``project_star`` or ``project_point`` of that one target, bit for bit,
with NaN for a planet behind the camera.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav.beacon_detection import (
    CHI2_GATE_3SIGMA,
    UncertaintyBudget,
    predict_projection,
    predict_projections,
)
from opnav.attitude_solver import AttitudeSolution
from opnav.config import PipelineConfig
from opnav.ephemeris import Planet
from opnav.geometry import (
    Attitude,
    CameraModel,
    PointingAngles,
    attitude_from_axis_azimuth,
    matrix_from_quaternion,
    project_point,
    project_points,
    project_star,
    skew,
)
from opnav.harness import AttitudeOutput, detect_beacons
from opnav.renderer import SceneSpec, render_field
from opnav.skysim import AU_KM
from opnav.star_id import MATCH_DTYPE, MatchResult, RetryResult

CAMERA = CameraModel()
DEFAULT_SKY = PipelineConfig().sky()

# camera-frame direction of a beacon: near the boresight, off to the side,
# or behind the camera
placement = st.sampled_from(["boresight", "wide", "behind", "edge_on"])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _beacon_at(rng, a, sc, where):
    """An inertial beacon position placed in the camera frame of ``a``."""
    x, y = rng.uniform(-0.2, 0.2, 2) if where == "boresight" else rng.uniform(-3.0, 3.0, 2)
    z = {"boresight": 1.0, "wide": 0.3, "behind": -1.0, "edge_on": 0.0}[where]
    return sc + rng.uniform(0.1, 10.0) * AU_KM * (a.T @ np.array([x, y, z]))


def reference_prediction(camera, q, sc, beacon, budget, floor_px):
    """(expected pixel, floored covariance, (a, b, psi)) of one beacon, or
    None behind the camera, one 2-D product at a time."""
    q0, qv = q.q[0], q.q[1:]
    a = matrix_from_quaternion(q)
    rho = beacon - sc
    rho_c = a @ rho
    if rho_c[2] <= 0.0:
        return None
    k = camera.intrinsic
    h = k @ rho_c
    dehom = np.array([[1.0 / h[2], 0.0, -h[0] / h[2] ** 2], [0.0, 1.0 / h[2], -h[1] / h[2] ** 2]])
    inner = np.empty((3, 10))
    inner[:, 0] = 2.0 * q0 * rho - 2.0 * skew(qv) @ rho
    inner[:, 1:4] = (
        -2.0 * np.outer(rho, qv) + 2.0 * (qv @ rho) * np.eye(3) + 2.0 * np.outer(qv, rho) + 2.0 * q0 * skew(rho)
    )
    inner[:, 4:7] = -a
    inner[:, 7:10] = a
    f = dehom @ k @ inner
    p = f @ budget.to_matrix() @ f.T
    p = 0.5 * (p + p.T)
    vals, vecs = np.linalg.eigh(p)
    p = vecs @ np.diag(np.maximum(vals, floor_px**2 / CHI2_GATE_3SIGMA)) @ vecs.T
    vals, vecs = np.linalg.eigh(p)
    v_max = vecs[:, 1]
    if v_max[0] < 0 or (v_max[0] == 0 and v_max[1] < 0):
        v_max = -v_max
    ellipse = (
        math.sqrt(CHI2_GATE_3SIGMA * max(vals[1], 0.0)),
        math.sqrt(CHI2_GATE_3SIGMA * max(vals[0], 0.0)),
        math.atan2(v_max[1], v_max[0]),
    )
    return np.array([h[0] / h[2], h[1] / h[2]]), p, ellipse


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    placements=st.lists(placement, min_size=0, max_size=9),
    sigma_qv=st.sampled_from([0.0, 1e-4, 1e-3]),
    sigma_r=st.floats(1e2, 1e8),
    sigma_rbc=st.sampled_from([0.0, 1e3]),
    floor_px=st.sampled_from([0.0, 0.5, 3.0]),
)
def test_all_planet_pass_equals_per_planet(seed, placements, sigma_qv, sigma_r, sigma_rbc, floor_px):
    rng = np.random.default_rng(seed)
    q = Attitude(rng.standard_normal(4))
    a = matrix_from_quaternion(q)
    sc = rng.standard_normal(3) * 3.0 * AU_KM
    beacons = [_beacon_at(rng, a, sc, where) for where in placements]
    budget = UncertaintyBudget(sigma_qv=sigma_qv, sigma_r_km=sigma_r, sigma_rbc_km=sigma_rbc)

    batch = predict_projections(CAMERA, q, sc, beacons, budget, floor_px)
    assert len(batch) == len(beacons)
    for beacon, got in zip(beacons, batch):
        one = predict_projection(CAMERA, q, sc, beacon, budget, floor_px)
        ref = reference_prediction(CAMERA, q, sc, beacon, budget, floor_px)
        assert (got is None) == (one is None) == (ref is None)
        if ref is None:
            continue
        for pred in (got, one):
            np.testing.assert_array_equal(_bits(pred.expected_px), _bits(ref[0]))
            np.testing.assert_array_equal(_bits(pred.covariance), _bits(ref[1]))
            assert _bits([pred.ellipse.a, pred.ellipse.b, pred.ellipse.psi]).tolist() == _bits(ref[2]).tolist()


def test_beacon_at_spacecraft_rejected_in_a_batch():
    q = Attitude(np.array([1.0, 0.0, 0.0, 0.0]))
    sc = np.array([1e8, 2e8, 3e8])
    with pytest.raises(ValueError, match="coincides"):
        predict_projections(CAMERA, q, sc, [sc + [0.0, 0.0, 1e8], sc.copy()], UncertaintyBudget())


def _assert_same_prediction(got, one):
    assert (got is None) == (one is None)
    if one is not None:
        np.testing.assert_array_equal(_bits(got.expected_px), _bits(one.expected_px))
        np.testing.assert_array_equal(_bits(got.covariance), _bits(one.covariance))
        assert _bits([got.ellipse.a, got.ellipse.b, got.ellipse.psi]).tolist() == _bits(
            [one.ellipse.a, one.ellipse.b, one.ellipse.psi]
        ).tolist()


def _attitude_output(q, a, spikes):
    """A solved frame whose centroids after the three star inliers are
    the given spikes."""
    centroids = np.vstack([np.full((3, 2), 10.0), np.reshape(spikes, (-1, 2))])
    retry = RetryResult(
        result=MatchResult(matches=np.recarray(0, MATCH_DTYPE)),
        threshold=45.0,
        iterations=1,
        centroids=centroids,
        span=np.zeros(len(centroids), dtype=np.int64),
        peak=np.zeros(len(centroids), dtype=np.int64),
    )
    solution = AttitudeSolution(matrix=a, quaternion=q, inlier_centroids=(0, 1, 2), consensus_score=3)
    return AttitudeOutput(retry, solution, tuple(range(3, len(centroids))))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    placements=st.lists(placement, min_size=0, max_size=2),
    extra_sigma_r=st.lists(st.floats(1e2, 1e8), max_size=3),
    sigma_qv=st.sampled_from([0.0, 1e-4, 1e-3]),
    sigma_rbc=st.sampled_from([0.0, 1e3]),
    floor_px=st.sampled_from([0.5, 3.0]),  # the gate inverts P: sigma_r 0 needs a floor
    with_spikes=st.booleans(),
)
def test_stacked_sweep_rows_equal_one_row_calls(
    seed, placements, extra_sigma_r, sigma_qv, sigma_rbc, floor_px, with_spikes
):
    rng = np.random.default_rng(seed)
    q = Attitude(rng.standard_normal(4))
    a = matrix_from_quaternion(q)
    sc = rng.standard_normal(3) * 3.0 * AU_KM
    planets = [
        Planet(f"planet-{i}", _beacon_at(rng, a, sc, where), 0.0)
        for i, where in enumerate(["boresight", *placements])
    ]
    # eta leans along the boresight, so a large enough sigma_r carries the
    # estimate past the first planet and puts it behind the camera
    eta = a.T @ (rng.standard_normal(3) * [1.0, 1.0, 0.0] + [0.0, 0.0, rng.uniform(0.5, 2.0)])
    behind = 2.0 * (a[2] @ (planets[0].position_km - sc)) / (a[2] @ eta)
    sigma_r = [0.0, behind, *extra_sigma_r]
    rng.shuffle(sigma_r)
    est = sc + np.array(sigma_r)[:, None] * eta
    budgets = [UncertaintyBudget(sigma_qv=sigma_qv, sigma_r_km=s, sigma_rbc_km=sigma_rbc) for s in sigma_r]

    # one spike near each planet in front of the camera, and one anywhere
    px = project_points(CAMERA, a, sc, [p.position_km for p in planets])[2]
    spikes = [xy + rng.normal(0.0, 3.0, 2) for xy in px if not math.isnan(xy[0])]
    spikes.append(rng.uniform(0.0, 1000.0, 2))
    attitude_out = _attitude_output(q, a, spikes if with_spikes else [])

    rows = predict_projections(
        CAMERA, q, np.repeat(est, len(planets), axis=0), [p.position_km for p in planets] * len(est),
        [b for b in budgets for _ in planets], floor_px,
    )
    stacked = detect_beacons(attitude_out, CAMERA, est, planets, budgets, floor_px)
    assert len(rows) == len(est) * len(planets) and len(stacked) == len(est)
    assert rows[sigma_r.index(behind) * len(planets)] is None
    for i, (est_i, budget) in enumerate(zip(est, budgets)):
        one = detect_beacons(attitude_out, CAMERA, est_i, planets, budget, floor_px)
        assert list(stacked[i]) == list(one) == [p.name for p in planets]
        for j, planet in enumerate(planets):
            got, ref = stacked[i][planet.name], one[planet.name]
            _assert_same_prediction(rows[i * len(planets) + j], ref.prediction)
            _assert_same_prediction(got.prediction, ref.prediction)
            assert (got.attempted, got.spike_index) == (ref.attempted, ref.spike_index)
            assert (got.selected_px is None) == (ref.selected_px is None)
            if ref.selected_px is not None:
                assert _bits(got.selected_px).tolist() == _bits(ref.selected_px).tolist()


def test_stacked_form_needs_one_budget_per_row():
    q = Attitude(np.array([1.0, 0.0, 0.0, 0.0]))
    sc = np.array([1e8, 2e8, 3e8])
    with pytest.raises(ValueError, match="2 budgets for 3 beacon rows"):
        predict_projections(CAMERA, q, sc, [sc + [0.0, 0.0, 1e8]] * 3, [UncertaintyBudget()] * 2)
    attitude_out = _attitude_output(q, matrix_from_quaternion(q), [])
    with pytest.raises(ValueError, match="1 budgets for 2 position estimates"):
        detect_beacons(attitude_out, CAMERA, np.stack([sc, sc]), [], [UncertaintyBudget()], 0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), placements=st.lists(placement, min_size=0, max_size=4))
def test_render_field_pixels_equal_one_target_projection(seed, placements):
    rng = np.random.default_rng(seed)
    pose = PointingAngles(
        rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(0.0, 2.0 * math.pi)
    )
    a = attitude_from_axis_azimuth(pose)
    sc = rng.standard_normal(3) * AU_KM
    planets = tuple(
        Planet(f"planet-{i}", _beacon_at(rng, a, sc, where), rng.uniform(-3.0, 3.0))
        for i, where in enumerate(placements)
    )
    _, _, objects = render_field(SceneSpec(CAMERA, pose, sc, DEFAULT_SKY, planets))

    stars = [o for o in objects if o.kind == "star"]
    for o, row in zip(stars, DEFAULT_SKY.rows_of([int(o.ident) for o in stars])):
        px = project_star(CAMERA, a, DEFAULT_SKY.right_ascension[row], DEFAULT_SKY.declination[row])
        assert _bits([o.x, o.y]).tolist() == _bits(px).tolist()

    drawn = [o for o in objects if o.kind == "planet"]
    assert [o.ident for o in drawn] == [p.name for p in planets]
    for o, planet in zip(drawn, planets):
        px = project_point(CAMERA, a, sc, planet.position_km)
        if px is None:
            assert math.isnan(o.x) and math.isnan(o.y)
        else:
            assert _bits([o.x, o.y]).tolist() == _bits(px).tolist()
