"""Wahba's problem by SVD, wrapped in a principal-axis RANSAC.

The RANSAC stage solves the three-star Wahba problem for ``n_samples``
random triples, represents each solution by its principal rotation
axis, and scores every axis by how many other sample axes fall within
the threshold angle.  Stars feeding any sample inside the best
consensus set are inliers; the final attitude refits the inliers.
Every centroid that is not an inlier, matched or not, is a spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ARCSEC_TO_RAD,
    Attitude,
    branch_quaternions,
    canonical_quaternions,
    quaternion_from_matrix,
    separations_within,
)

_DEGENERATE_AXIS_ANGLE = 1e-9  # rad; below this the rotation axis is noise


class DegenerateGeometryError(ValueError):
    pass


@dataclass(frozen=True)
class AxisAngle:
    axis: np.ndarray
    angle: float
    indeterminate: bool = False


@dataclass(frozen=True)
class RansacConfig:
    n_samples: int = 20
    threshold_arcsec: float = 15.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.threshold_arcsec <= 0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class AttitudeSolution:
    matrix: np.ndarray
    quaternion: Attitude
    inlier_centroids: tuple[int, ...]  # in match order; the other matches are outliers
    consensus_score: int


def wahba_svd(c_vectors: np.ndarray, n_vectors: np.ndarray) -> np.ndarray:
    """Rotation best mapping inertial directions onto camera directions.

    Rows of the inputs are paired unit vectors; the one-problem call of
    ``wahba_svds``.  Raises DegenerateGeometryError for collinear
    observations.
    """
    c = np.atleast_2d(np.asarray(c_vectors, dtype=float))
    v = np.atleast_2d(np.asarray(n_vectors, dtype=float))
    if c.shape != v.shape or c.shape[1] != 3 or len(c) < 2:
        raise ValueError("need matching (n, 3) arrays with n >= 2")
    rotations, degenerate = wahba_svds(c[None], v[None])
    if degenerate[0]:
        raise DegenerateGeometryError("degenerate geometry: observations are collinear")
    return rotations[0]


def wahba_svds(c_vectors: np.ndarray, n_vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wahba's problem for a stack of (k, n, 3) paired unit-vector sets.

    For each set, B = sum_i c_i n_i^T is decomposed as U S V^T and the
    attitude is U diag(1, 1, det U det V) V^T, which enforces a proper
    right-handed rotation.  Unit weights.  Returns the (k, 3, 3)
    attitudes and a (k,) mask of the sets whose observations are
    collinear (s1 <= 1e-9 s0); their attitudes are meaningless.
    """
    b = np.swapaxes(c_vectors, 1, 2) @ n_vectors
    u, s, vt = np.linalg.svd(b)
    degenerate = s[:, 1] <= 1e-9 * np.maximum(s[:, 0], 1e-300)
    m = np.zeros_like(b)
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    m[:, 2, 2] = np.linalg.det(u) * np.linalg.det(vt)
    return u @ m @ vt, degenerate


def principal_axis_angle(rotation: np.ndarray) -> AxisAngle:
    """Euler axis and angle of a rotation matrix, angle in [0, pi].

    The one-matrix call of ``principal_axes``.
    """
    axis, angle, indeterminate = principal_axes(np.asarray(rotation, dtype=float)[None])
    return AxisAngle(axis=axis[0], angle=float(angle[0]), indeterminate=bool(indeterminate[0]))


def principal_axes(rotations: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler axes (k, 3), angles (k,) in [0, pi] and indeterminate flags
    (k,) of a stack of rotation matrices.

    Extraction goes through the quaternion, which is stable at both ends
    of the angle range.  Near zero rotation the axis is meaningless: it
    is reported as (0, 0, 1) with the indeterminate flag set.
    """
    q = canonical_quaternions(branch_quaternions(rotations))
    qv = np.ascontiguousarray(q[:, 1:])
    qv_norm = np.sqrt(qv[:, None, :] @ qv[:, :, None])[:, 0]
    angle = 2.0 * np.fromiter(map(math.atan2, qv_norm[:, 0].tolist(), q[:, 0].tolist()), float, len(q))
    indeterminate = angle < _DEGENERATE_AXIS_ANGLE
    axis = np.tile((0.0, 0.0, 1.0), (len(q), 1))
    np.divide(qv, qv_norm, out=axis, where=~indeterminate[:, None])
    return axis, angle, indeterminate


def _agreement(axes, indeterminate, degenerate, threshold_rad: float) -> np.ndarray:
    """agree[k, j]: sample axes k and j agree.

    The test is angular_separation(a, b) <= threshold, taken bit for bit
    as the scalar form takes it (``separations_within``).  Degenerate
    samples agree with nothing.  Indeterminate axes carry no direction:
    they only agree with each other.  Axis sign is meaningful and *not*
    collapsed.
    """
    vec = np.asarray(axes, dtype=float).reshape(-1, 3)
    ind = np.asarray(indeterminate, dtype=bool)
    valid = ~np.asarray(degenerate, dtype=bool)
    within = separations_within(vec[:, None, :], vec[None, :, :], threshold_rad)
    either = ind[:, None] | ind[None, :]
    agree = np.where(either, ind[:, None] & ind[None, :], within)
    agree &= valid[:, None] & valid[None, :]
    return agree


def consensus_scores(axes, indeterminate, degenerate, threshold_rad: float, agreement=None) -> np.ndarray:
    """Score of each sample axis: how many *other* axes agree with it.

    ``axes`` is the (k, 3) stack of sample axes with their (k,)
    ``indeterminate`` flags; ``degenerate`` marks samples whose Wahba
    solve was degenerate (scored -1, never in any consensus set).  A (k, k)
    bool ``agreement`` array, when given, receives the agreement matrix
    with its diagonal cleared.
    """
    agree = _agreement(axes, indeterminate, degenerate, threshold_rad)
    np.fill_diagonal(agree, False)
    if agreement is not None:
        agreement[...] = agree
    return np.where(degenerate, -1, agree.sum(axis=1))


def ransac_attitude(matches, config: RansacConfig) -> AttitudeSolution | None:
    """Consensus attitude over identified stars; None when unsolvable.

    ``matches`` is the match sequence of a MatchResult; the solution
    names the centroid index of every inlier match.
    """
    m = len(matches)
    if m < 3:
        return None
    c_all = np.array([s.los_camera for s in matches])
    n_all = np.array([s.los_inertial for s in matches])
    rng = np.random.default_rng(config.seed)
    threshold_rad = config.threshold_arcsec * ARCSEC_TO_RAD

    # n_samples distinct-index triples in one draw: the first three of a random permutation per row
    subsets = rng.random((config.n_samples, m)).argsort(axis=1)[:, :3]
    rotations, degenerate = wahba_svds(c_all[subsets], n_all[subsets])
    # A degenerate sample still has a proper rotation, so it has an axis;
    # the consensus ignores it.
    axes, _, indeterminate = principal_axes(rotations)

    agreement = np.empty((config.n_samples, config.n_samples), dtype=bool)
    scores = consensus_scores(axes, indeterminate, degenerate, threshold_rad, agreement)
    if scores.max() < 0:
        return None
    best = int(np.argmax(scores))  # ties: lowest sample index wins

    # The consensus set: the samples that agree with ``best``, and ``best``.
    consensus = agreement[best]
    consensus[best] = True
    inlier = np.zeros(m, dtype=bool)
    inlier[subsets[consensus]] = True

    try:
        attitude = wahba_svd(c_all[inlier], n_all[inlier])
    except DegenerateGeometryError:
        return None

    # Data-fitting pass: matches never drawn into a consensus sample are
    # kept when they agree with the consensus attitude, so thin sampling
    # cannot demote a perfectly consistent star.
    predicted = (attitude @ n_all[:, :, None])[:, :, 0]
    residual_ok = ~inlier & separations_within(c_all, predicted, threshold_rad)
    if residual_ok.any():
        inlier |= residual_ok
        try:
            attitude = wahba_svd(c_all[inlier], n_all[inlier])
        except DegenerateGeometryError:
            return None

    return AttitudeSolution(
        matrix=attitude,
        quaternion=quaternion_from_matrix(attitude),
        inlier_centroids=tuple(matches[k].centroid_index for k in np.flatnonzero(inlier)),
        consensus_score=int(scores[best]),
    )
