"""Expected beacon projection, its pixel covariance, and spike gating.

The projection of a beacon depends on the ten parameters (q0, qv, r,
r_bc): attitude quaternion, spacecraft position, beacon position.  The
2x10 Jacobian chains the dehomogenization derivative through the
intrinsic matrix into the analytic partials of the rotated line of
sight.  The pixel covariance P = F S F^T then feeds the 99.73%
chi-square gate (11.8292 for 2 degrees of freedom): a spike is accepted
when its Mahalanobis distance to the expected projection passes the
gate, and the closest accepted spike wins.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Attitude, CameraModel, matrix_from_quaternion, project_points, skew

# Inverse chi-square cdf with 2 dof at 0.9973 (the 3-sigma probability).
CHI2_GATE_3SIGMA = 11.8292

DEFAULT_ELLIPSE_FLOOR_PX = 0.5


@dataclass(frozen=True)
class UncertaintyBudget:
    """Per-axis standard deviations of the pose/ephemeris knowledge.

    sigma_q0 is structurally zero: small-angle attitude errors live
    entirely in the quaternion vector part.
    """

    sigma_qv: float = 1e-4
    sigma_r_km: float = 1e5
    sigma_rbc_km: float = 0.0

    def __post_init__(self):
        for name in ("sigma_qv", "sigma_r_km", "sigma_rbc_km"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def variances(self) -> list[float]:
        """Diagonal of the covariance, blocks (q0 | qv | r | r_bc)."""
        return [0.0] + [self.sigma_qv**2] * 3 + [self.sigma_r_km**2] * 3 + [self.sigma_rbc_km**2] * 3


@dataclass(frozen=True)
class Ellipse:
    a: float  # semimajor axis, px
    b: float  # semiminor axis, px
    psi: float  # orientation of the major axis towards the image x axis, rad


@dataclass(frozen=True)
class ProjectionPrediction:
    expected_px: np.ndarray
    covariance: np.ndarray  # 2x2, after the semiminor-axis floor
    ellipse: Ellipse

    def __post_init__(self):
        self.expected_px.setflags(write=False)
        self.covariance.setflags(write=False)


def projection_jacobian(
    camera: CameraModel,
    attitude_q: Attitude,
    sc_position_km: np.ndarray,
    beacon_position_km: np.ndarray,
) -> np.ndarray:
    """2x10 Jacobian of the beacon pixel w.r.t. (q0, qv, r, r_bc).

    Column blocks: d/dq0 (1), d/dqv (3), d/dr (3), d/dr_bc (3).  Raises
    when the beacon sits behind the camera.
    """
    q = attitude_q.q
    a = matrix_from_quaternion(q)
    rho, h, px = project_points(camera, a, sc_position_km, [beacon_position_km])
    if math.isnan(px[0, 0]):
        raise ValueError("beacon is behind the camera")
    return _jacobians(camera.intrinsic, q, a, rho, h)[0]


def _jacobians(k: np.ndarray, q: np.ndarray, a: np.ndarray, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Stacked (n, 2, 10) Jacobians for beacons in front of the camera.

    ``rho`` are the inertial spacecraft-to-beacon vectors and ``h`` their
    homogeneous pixels; every product is taken in the order of the
    one-beacon chain ``dehom @ K @ inner``.
    """
    q0, qv = q[0], q[1:]
    n = len(rho)
    # A float power (libm pow) per value: numpy's array square is x*x, which
    # differs from it in about one value in 1100.
    h2_sq = np.array([z**2 for z in h[:, 2].tolist()], dtype=float)
    dehom = np.zeros((n, 2, 3))
    dehom[:, 0, 0] = dehom[:, 1, 1] = 1.0 / h[:, 2]
    dehom[:, 0, 2] = -h[:, 0] / h2_sq
    dehom[:, 1, 2] = -h[:, 1] / h2_sq
    qv_dot_rho = np.vecdot(qv, rho)
    inner = np.empty((n, 3, 10))
    inner[:, :, 0] = 2.0 * q0 * rho - np.matvec(2.0 * skew(qv), rho)
    inner[:, :, 1:4] = (
        -2.0 * (rho[:, :, None] * qv[None, None, :])
        + (2.0 * qv_dot_rho)[:, None, None] * np.eye(3)
        + 2.0 * (qv[None, :, None] * rho[:, None, :])
        + 2.0 * q0 * skew(rho)
    )
    inner[:, :, 4:7] = -a
    inner[:, :, 7:10] = a
    return dehom @ k @ inner


def projection_covariance(jacobian: np.ndarray, variances) -> np.ndarray:
    """P = F S F^T for the diagonal S of ``UncertaintyBudget.variances``,
    symmetrized against round-off: one (10,) row for every F of a stack,
    or an (n, 10) stack of one row per F.  ``(F * v) F^T`` takes exactly
    the products F_ij s_j of the gemm with S, whose other terms are zeros
    that change no sum."""
    p = (jacobian * np.asarray(variances, dtype=float)[..., None, :]) @ np.swapaxes(jacobian, -1, -2)
    return 0.5 * (p + np.swapaxes(p, -1, -2))


def covariance_ellipse(p: np.ndarray) -> Ellipse:
    """3-sigma ellipse of a 2x2 covariance; see ``covariance_ellipses``."""
    return covariance_ellipses(np.asarray(p, dtype=float)[None])[0]


def covariance_ellipses(p: np.ndarray) -> list[Ellipse]:
    """3-sigma ellipses of a stack of (n, 2, 2) covariances.

    Semi-axes are sqrt(11.8292 * eigenvalue); psi is the two-argument
    arctangent of the major eigenvector, reported in (-pi, pi] with the
    x-component canonicalized non-negative.
    """
    vals, vecs = np.linalg.eigh(p)
    out = []
    for (v_min, v_max), (x, y) in zip(vals.tolist(), vecs[:, :, 1].tolist()):
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        out.append(
            Ellipse(
                a=math.sqrt(CHI2_GATE_3SIGMA * max(v_max, 0.0)),
                b=math.sqrt(CHI2_GATE_3SIGMA * max(v_min, 0.0)),
                psi=math.atan2(y, x),
            )
        )
    return out


def floor_covariance(p: np.ndarray, floor_px: float = DEFAULT_ELLIPSE_FLOOR_PX) -> np.ndarray:
    """Raise the eigenvalues of P so the semiminor axis is at least
    ``floor_px``; encodes the centroiding error the budget omits and
    keeps the gate invertible.  P may be a stack."""
    min_eig = floor_px**2 / CHI2_GATE_3SIGMA
    vals, vecs = np.linalg.eigh(np.asarray(p, dtype=float))
    return (vecs * np.maximum(vals, min_eig)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def predict_projection(
    camera: CameraModel,
    attitude_q: Attitude,
    sc_position_km: np.ndarray,
    beacon_position_km: np.ndarray,
    budget: UncertaintyBudget,
    floor_px: float = DEFAULT_ELLIPSE_FLOOR_PX,
) -> ProjectionPrediction | None:
    """Expected pixel, floored covariance, and ellipse for one beacon.

    The one-beacon call of ``predict_projections``: None when the expected
    projection is behind the camera; raises ValueError when the beacon
    sits at the spacecraft position.
    """
    return predict_projections(camera, attitude_q, sc_position_km, [beacon_position_km], [budget], floor_px)[0]


def predict_projections(
    camera: CameraModel,
    attitude_q: Attitude,
    sc_position_km: np.ndarray,
    beacon_positions_km,
    budgets: Sequence[UncertaintyBudget],
    floor_px: float = DEFAULT_ELLIPSE_FLOOR_PX,
) -> list[ProjectionPrediction | None]:
    """Expected pixel, floored covariance, and ellipse for every beacon row.

    The one stacked path of the beacon stage: one budget per row of
    ``beacon_positions_km``, and one (3,) ``sc_position_km`` or an (n, 3)
    stack of one per row.  An entry is None when the expected projection
    is behind the camera, and equals the one-beacon call with its row's
    estimate and budget bit for bit.  Raises ValueError when a beacon sits
    at the spacecraft position.
    """
    q = attitude_q.q
    a = matrix_from_quaternion(q)
    rho, h, px = project_points(camera, a, sc_position_km, beacon_positions_km)
    if len(budgets) != len(rho):
        raise ValueError(f"{len(budgets)} budgets for {len(rho)} beacon rows")
    out: list[ProjectionPrediction | None] = [None] * len(rho)
    front = np.flatnonzero(~np.isnan(px[:, 0]))
    if not len(front):
        return out
    jac = _jacobians(camera.intrinsic, q, a, rho[front], h[front])
    variances = [budgets[i].variances() for i in front.tolist()]
    p = floor_covariance(projection_covariance(jac, variances), floor_px)
    for i, expected, cov, ellipse in zip(front.tolist(), px[front], p, covariance_ellipses(p)):
        out[i] = ProjectionPrediction(expected_px=expected, covariance=cov, ellipse=ellipse)
    return out


def detect_beacon(spike_positions, prediction: ProjectionPrediction) -> int | None:
    """Pick the gated spike closest to the expected projection.

    ``spike_positions`` is a sequence of (x, y) pixel pairs.  Returns the
    index of the selected spike, or None when no spike passes the
    chi-square gate.  Ties on distance go to the lowest index.
    """
    positions = np.atleast_2d(np.asarray(spike_positions, dtype=float))
    if positions.size == 0:
        return None
    delta = positions - prediction.expected_px
    mahal = np.einsum("ni,ni->n", delta @ np.linalg.inv(prediction.covariance), delta)
    inside = mahal <= CHI2_GATE_3SIGMA
    if not inside.any():
        return None
    dist = np.linalg.norm(delta, axis=1)
    dist[~inside] = np.inf
    return int(np.argmin(dist))
