"""Camera model, attitude representations, and pinhole projection.

Conventions shared by every module in this package:

* Inertial frame N is right-handed; star directions come from right
  ascension / declination on the celestial sphere.
* Camera frame C has c3 along the boresight, c1 pointing right and c2
  pointing down in the image.
* Image coordinates: x (column) grows to the right, y (row) grows
  downward, origin at the upper-left corner.  Pixel centers sit at
  integer coordinates, so pixel (0, 0) covers [-0.5, 0.5] x [-0.5, 0.5].
* Rotation matrices are passive (they transform coordinates, not
  vectors).  Quaternions are scalar-first (q0, qv) and describe the same
  passive rotation; the canonical representative has q0 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ARCSEC_TO_RAD = math.pi / (180.0 * 3600.0)
RAD_TO_ARCSEC = 1.0 / ARCSEC_TO_RAD


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with the detector parameters used for rendering.

    The pixel focal length is derived from the field of view and the
    image width (the physical focal length and f-number only matter for
    photometry): f_px = width / (2 tan(fov/2)).
    """

    fov_deg: float = 20.0
    width: int = 1024
    height: int = 1024
    focal_length_mm: float = 40.0
    f_number: float = 2.2
    exposure_ms: float = 400.0
    qe_tlens: float = 0.49
    defocus_sigma_px: float = 0.9

    @property
    def focal_px(self) -> float:
        return self.width / (2.0 * math.tan(math.radians(self.fov_deg) / 2.0))

    @property
    def principal_point(self) -> tuple[float, float]:
        return (self.width / 2.0, self.height / 2.0)

    @property
    def intrinsic(self) -> np.ndarray:
        """3x3 intrinsic matrix [[f, 0, cx], [0, f, cy], [0, 0, 1]] in pixels."""
        f = self.focal_px
        cx, cy = self.principal_point
        return np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])

    def in_frame(self, x: float, y: float) -> bool:
        """True when (x, y) lies on the pixel-center grid of the detector."""
        return 0.0 <= x <= self.width - 1 and 0.0 <= y <= self.height - 1


@dataclass(frozen=True)
class PointingAngles:
    """Axis-azimuth camera pointing: right ascension, declination, twist."""

    alpha: float
    delta: float
    phi: float

    def __post_init__(self):
        if not -math.pi / 2 <= self.delta <= math.pi / 2:
            raise ValueError(f"declination {self.delta} outside [-pi/2, pi/2]")
        # twice: a tiny negative angle % TWO_PI rounds to TWO_PI itself
        object.__setattr__(self, "alpha", self.alpha % TWO_PI % TWO_PI)
        object.__setattr__(self, "phi", self.phi % TWO_PI % TWO_PI)


@dataclass(frozen=True)
class Attitude:
    """Unit quaternion, scalar first, canonicalized to q0 >= 0."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4,):
            raise ValueError("quaternion must have 4 components (q0, qv)")
        q = canonical_quaternions(q[None])[0]
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def canonical_quaternions(q: np.ndarray) -> np.ndarray:
    """Rows of ``q`` scaled to unit norm and flipped to q0 >= 0.

    A row is negated when its first nonzero entry is negative, which also
    settles q0 == 0 by the first nonzero vector component.  Each norm is
    the square root of a row dot through stacked ``matmul``, the dot
    kernel ``np.linalg.norm`` takes for one vector, so a row comes out as
    it would alone.
    """
    q = np.asarray(q, dtype=float)
    n = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    if not ((n > 0.0) & (n < math.inf)).all():
        raise ValueError("quaternion has zero or non-finite norm")
    q = q / n
    first = q[np.arange(len(q)), np.argmax(q != 0, axis=1)]
    return np.negative(q, out=q, where=(first < 0)[:, None])


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]^ such that skew(v) @ w == cross(v, w).

    ``v`` may be a stack of (..., 3) vectors; the result is (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def rot2(theta: float) -> np.ndarray:
    """Passive elementary rotation about axis 2."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot3(theta: float) -> np.ndarray:
    """Passive elementary rotation about axis 3."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def attitude_from_axis_azimuth(angles: PointingAngles) -> np.ndarray:
    """Attitude matrix from N to C for axis-azimuth pointing angles.

    Composition is rot3(alpha) @ rot2(pi/2 - delta) @ rot3(phi); the
    boresight declination equals delta and the identity is recovered at
    (0, pi/2, 0).
    """
    return rot3(angles.alpha) @ rot2(math.pi / 2.0 - angles.delta) @ rot3(angles.phi)


def matrix_from_quaternion(q: Attitude | np.ndarray) -> np.ndarray:
    """Passive rotation matrix of a unit quaternion.

    A = (q0^2 - qv.qv) I + 2 qv qv^T - 2 q0 [qv]^
    """
    arr = q.q if isinstance(q, Attitude) else np.asarray(q, dtype=float)
    n = np.linalg.norm(arr)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"quaternion norm {n} is not 1")
    q0, qv = arr[0], arr[1:]
    return (q0 * q0 - qv @ qv) * np.eye(3) + 2.0 * np.outer(qv, qv) - 2.0 * q0 * skew(qv)


def quaternion_from_matrix(m: np.ndarray) -> Attitude:
    """Inverse of matrix_from_quaternion, stable for all rotation angles.

    Raises ValueError for a non-orthonormal input.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("attitude matrix must be 3x3")
    return Attitude(branch_quaternions(m[None])[0])


# Flat indices into the 18 entries of (m - m^T, m + m^T) of one matrix:
# row b lists the numerators of the four quaternion components in branch
# b (trace, m00, m11, m22); the pivot slot b points at a zero.
_BRANCH_NUMERATORS = np.array([[0, 5, 6, 1], [5, 0, 10, 11], [6, 10, 0, 14], [1, 11, 14, 0]])


def branch_quaternions(m: np.ndarray) -> np.ndarray:
    """Unnormalised quaternions of a stack of (n, 3, 3) rotation matrices.

    Row k uses the largest of (trace, m00, m11, m22) of matrix k to pick
    the division branch, so no catastrophic cancellation occurs near 0
    or pi.  Raises ValueError when any matrix is not a proper rotation.
    """
    m = np.asarray(m, dtype=float)
    mt = np.swapaxes(m, 1, 2)
    if (
        np.abs(m @ mt - np.eye(3)).max(initial=0.0) > 1e-8
        or np.abs(np.linalg.det(m) - 1.0).max(initial=0.0) > 1e-8
    ):
        raise ValueError("matrix is not a proper rotation")
    rows = np.arange(len(m))
    diag = np.diagonal(m, axis1=1, axis2=2)
    tr = diag[:, 0] + diag[:, 1] + diag[:, 2]
    choices = np.column_stack((tr, diag))
    best = np.argmax(choices, axis=1)
    pivot = 0.5 * np.sqrt(np.where(best == 0, 1.0 + tr, 1.0 + 2.0 * choices[rows, best] - tr))
    parts = np.concatenate(((m - mt).reshape(-1, 9), (m + mt).reshape(-1, 9)), axis=1)
    q = parts[rows[:, None], _BRANCH_NUMERATORS[best]] / (4.0 * pivot)[:, None]
    q[rows, best] = pivot
    return q


def radec_to_unit(ra, dec) -> np.ndarray:
    """Unit vectors in N, shape (..., 3), for right ascension / declination
    in radians (scalars or broadcast arrays).  ``math`` takes each sine and
    cosine, so a vector does not depend on numpy's vectorised trigonometry.
    """
    ra, dec = np.broadcast_arrays(np.asarray(ra, dtype=float), np.asarray(dec, dtype=float))
    cos_ra, sin_ra, cos_dec, sin_dec = (
        np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)
        for f, x in ((math.cos, ra), (math.sin, ra), (math.cos, dec), (math.sin, dec))
    )
    return np.stack((cos_dec * cos_ra, cos_dec * sin_ra, sin_dec), axis=-1)


def angular_separation(u, v) -> float:
    """Angle in radians between two vectors, stable for tiny angles."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cross = np.linalg.norm(np.cross(u, v))
    dot = float(u @ v)
    return math.atan2(cross, dot)


def angular_separations(u, v) -> np.ndarray:
    """``angular_separation`` over broadcast (..., 3) arrays, bit for bit.

    The cross product is written out as the separate multiplies and
    subtracts that ``np.cross`` performs, so it holds the same bits.  The
    row dot products go through stacked ``matmul``, which takes the same
    dot kernel as the scalar form, and the final step is the same
    ``math.atan2``, so a threshold test on the result decides exactly as
    the scalar form would.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(v)
    cross = np.empty_like(u)
    for k, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(u[..., a] * v[..., b], u[..., b] * v[..., a], out=cross[..., k])
    sin = np.sqrt((cross[..., None, :] @ cross[..., :, None])[..., 0, 0])
    cos = (u[..., None, :] @ v[..., :, None])[..., 0, 0]
    angles = map(math.atan2, sin.ravel().tolist(), cos.ravel().tolist())
    return np.fromiter(angles, dtype=float, count=sin.size).reshape(sin.shape)


# The relative margin of the tangent test in ``separations_within``: far
# above the few ulps by which its sine, cosine and tangent, and math.atan2,
# can err, and far below any difference of two real angles.
_TAN_MARGIN = 2.0**-30
# Below this threshold the tangent test could meet subnormal products.
_TAN_TEST_MIN = 2.0**-400


def separations_within(u, v, threshold_rad: float) -> np.ndarray:
    """``angular_separations(u, v) <= threshold_rad`` over broadcast (..., 3)
    arrays, bit for bit, with ``math.atan2`` taken only near the threshold.

    With ``sin`` the norm of the cross product and ``cos`` the dot product,
    a separation is within a threshold t in [2^-400, pi/4) when
    ``sin <= tan(t) (1 - m) cos`` and beyond it when ``sin >= tan(t) (1 + m)
    cos``, for vectors whose squared norms lie in [1/4, 4].  The margin m =
    2^-30 is far above the rounding of these few operations and of
    ``math.atan2``, so it can only leave a pair undecided, never decide it
    wrongly.  The undecided pairs, the pairs of any other vector (NaN
    included) and every pair at any other threshold go through
    ``angular_separations``.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if not _TAN_TEST_MIN <= threshold_rad < math.pi / 4:
        return angular_separations(u, v) <= threshold_rad
    ux, uy, uz = u[..., 0], u[..., 1], u[..., 2]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    sin = np.square(uy * vz - uz * vy)
    sin += np.square(uz * vx - ux * vz)
    sin += np.square(ux * vy - uy * vx)
    np.sqrt(sin, out=sin)
    cos = ux * vx
    cos += uy * vy
    cos += uz * vz
    tan = math.tan(threshold_rad)
    within = sin <= cos * (tan * (1.0 - _TAN_MARGIN))
    unsure = ~within & (sin < cos * (tan * (1.0 + _TAN_MARGIN)))
    for w in (u, v):
        norm2 = np.einsum("...k,...k->...", w, w)
        unsure |= ~((0.25 <= norm2) & (norm2 <= 4.0))
    if unsure.any():
        u, v = np.broadcast_arrays(u, v)
        within[unsure] = angular_separations(u[unsure], v[unsure]) <= threshold_rad
    return within


def project_point(
    camera: CameraModel,
    attitude_matrix: np.ndarray,
    sc_position: np.ndarray,
    target_position: np.ndarray,
) -> np.ndarray | None:
    """Project an inertial-frame point onto the image.

    Returns the (x, y) pixel coordinates, or None when the point lies
    behind the camera (third camera-frame component <= 0).  No bounds
    clipping is applied; callers decide what off-image means.  The
    one-target call of ``project_points``.
    """
    px = project_points(camera, attitude_matrix, sc_position, [target_position])[2][0]
    return None if math.isnan(px[0]) else px


def project_star(
    camera: CameraModel, attitude_matrix: np.ndarray, ra: float, dec: float
) -> np.ndarray | None:
    """Project a star (a direction on the plane at infinity) onto the image."""
    return project_point(camera, attitude_matrix, np.zeros(3), radec_to_unit(ra, dec))


def project_points(
    camera: CameraModel,
    attitude_matrix: np.ndarray,
    sc_position: np.ndarray,
    target_positions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinhole projection of inertial-frame points, one row per target.

    Returns
    -------
    rho : (n, 3) spacecraft-to-target vectors in N.
    h : (n, 3) homogeneous pixels K A rho.
    px : (n, 2) pixels h[i, :2] / h[i, 2]; NaN where the third
        camera-frame component is <= 0 (behind the camera).

    Each row goes through stacked ``matmul``, so it comes out as the
    one-target products ``A @ rho`` and ``K @ rho_c`` would.  Raises
    ValueError when a target coincides with the spacecraft position.
    """
    rho = np.asarray(target_positions, dtype=float).reshape(-1, 3) - np.asarray(sc_position, dtype=float)
    if not rho.any(axis=1).all():
        raise ValueError("target coincides with the spacecraft position")
    rho_c = (attitude_matrix @ rho[:, :, None])[:, :, 0]
    h = (camera.intrinsic @ rho_c[:, :, None])[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return rho, h, np.where(rho_c[:, 2:] > 0.0, h[:, :2] / h[:, 2:], np.nan)


def los_from_pixel(camera: CameraModel, pixel) -> np.ndarray:
    """Unit line-of-sight direction in C for a pixel coordinate."""
    return los_from_pixels(camera, [pixel])[0]


def los_from_pixels(camera: CameraModel, pixels) -> np.ndarray:
    """Unit line-of-sight directions in C, one row per (x, y) pixel.

    Each norm is the square root of a row dot through stacked ``matmul``,
    the dot kernel ``np.linalg.norm`` takes for one vector.
    """
    xy = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if not np.isfinite(xy).all():
        raise ValueError("pixel coordinates must be finite")
    cx, cy = camera.principal_point
    f = camera.focal_px
    v = np.empty((len(xy), 3))
    v[:, 0] = (xy[:, 0] - cx) / f
    v[:, 1] = (xy[:, 1] - cy) / f
    v[:, 2] = 1.0
    return v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
