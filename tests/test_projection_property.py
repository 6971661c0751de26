"""Property: the all-planet prediction equals the one-planet prediction.

``predict_projections`` takes one attitude matrix, stacked Jacobians,
stacked ``P = F S F^T`` and stacked eigen-decompositions for every
beacon; each entry must equal ``predict_projection`` for that beacon
alone, and a one-beacon reference written with plain per-beacon NumPy
products, bit for bit, with None for a beacon behind the camera.
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
from opnav.geometry import Attitude, CameraModel, matrix_from_quaternion, skew
from opnav.skysim import AU_KM

CAMERA = CameraModel()

# camera-frame direction of a beacon: near the boresight, off to the side,
# or behind the camera
placement = st.sampled_from(["boresight", "wide", "behind", "edge_on"])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


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
    beacons = []
    for where in placements:
        x, y = rng.uniform(-0.2, 0.2, 2) if where == "boresight" else rng.uniform(-3.0, 3.0, 2)
        z = {"boresight": 1.0, "wide": 0.3, "behind": -1.0, "edge_on": 0.0}[where]
        beacons.append(sc + rng.uniform(0.1, 10.0) * AU_KM * (a.T @ np.array([x, y, z])))
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
