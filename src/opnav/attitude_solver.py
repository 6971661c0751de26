"""Wahba's problem by SVD, wrapped in a principal-axis RANSAC.

The RANSAC stage solves the three-star Wahba problem for ``n_samples``
random triples, represents each solution by its principal rotation
axis, and scores every axis by how many other sample axes fall within
the threshold angle.  Stars feeding any sample inside the best
consensus set are inliers; stars that only appear in rejected samples
are relabeled spikes; the final attitude refits the inliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ARCSEC_TO_RAD, Attitude, angular_separations, quaternion_from_matrix

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
    inlier_centroids: tuple[int, ...]
    outlier_centroids: tuple[int, ...]  # relabeled spikes
    consensus_score: int


def wahba_svd(c_vectors: np.ndarray, n_vectors: np.ndarray) -> np.ndarray:
    """Rotation best mapping inertial directions onto camera directions.

    Rows of the inputs are paired unit vectors.  B = sum_i c_i n_i^T is
    decomposed as U S V^T and the attitude is U diag(1, 1, det U det V)
    V^T, which enforces a proper right-handed rotation.  Unit weights.
    """
    c = np.atleast_2d(np.asarray(c_vectors, dtype=float))
    v = np.atleast_2d(np.asarray(n_vectors, dtype=float))
    if c.shape != v.shape or c.shape[1] != 3 or len(c) < 2:
        raise ValueError("need matching (n, 3) arrays with n >= 2")
    b = c.T @ v
    u, s, vt = np.linalg.svd(b)
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        raise DegenerateGeometryError("degenerate geometry: observations are collinear")
    m = np.diag([1.0, 1.0, np.linalg.det(u) * np.linalg.det(vt)])
    return u @ m @ vt


def principal_axis_angle(rotation: np.ndarray) -> AxisAngle:
    """Euler axis and angle of a rotation matrix, angle in [0, pi].

    Extraction goes through the quaternion, which is stable at both ends
    of the angle range.  Near zero rotation the axis is meaningless: it
    is reported as (0, 0, 1) with the indeterminate flag set.
    """
    q = quaternion_from_matrix(rotation)
    qv_norm = float(np.linalg.norm(q.vector))
    angle = 2.0 * math.atan2(qv_norm, q.scalar)
    if angle < _DEGENERATE_AXIS_ANGLE:
        return AxisAngle(axis=np.array([0.0, 0.0, 1.0]), angle=angle, indeterminate=True)
    return AxisAngle(axis=q.vector / qv_norm, angle=angle)


def _agreement(axes, threshold_rad: float, row: int | None = None) -> np.ndarray:
    """agree[k, j]: sample axes k and j agree; only row ``row`` if given.

    The test is angular_separation(a, b) <= threshold, taken bit for bit
    as the scalar form takes it.  None (degenerate) samples agree with
    nothing.  Indeterminate axes carry no direction: they only agree with
    each other.  Axis sign is meaningful and *not* collapsed.
    """
    n = len(axes)
    valid = np.array([ax is not None for ax in axes], dtype=bool)
    ind = np.array([ax is not None and ax.indeterminate for ax in axes], dtype=bool)
    vec = np.array([(0.0, 0.0, 1.0) if ax is None else ax.axis for ax in axes], dtype=float)
    vec = vec.reshape(n, 3)
    rows = slice(None) if row is None else slice(row, row + 1)
    within = angular_separations(vec[rows, None, :], vec[None, :, :]) <= threshold_rad
    either = ind[rows, None] | ind[None, :]
    agree = np.where(either, ind[rows, None] & ind[None, :], within)
    agree &= valid[rows, None] & valid[None, :]
    return agree if row is None else agree[0]


def consensus_scores(axes, threshold_rad: float) -> np.ndarray:
    """Score of each sample axis: how many *other* axes agree with it.

    ``axes`` holds AxisAngle entries; None marks a sample whose Wahba
    solve was degenerate (scored -1, never in any consensus set).
    """
    agree = _agreement(axes, threshold_rad)
    np.fill_diagonal(agree, False)
    degenerate = np.array([ax is None for ax in axes], dtype=bool)
    return np.where(degenerate, -1, agree.sum(axis=1))


def ransac_attitude(matches, config: RansacConfig) -> AttitudeSolution | None:
    """Consensus attitude over identified stars; None when unsolvable.

    ``matches`` is the match list of a MatchResult (or the MatchResult
    itself).  Outliers keep their centroid indices so the caller can
    relabel them as spikes.
    """
    match_list = list(getattr(matches, "matches", matches))
    m = len(match_list)
    if m < 3:
        return None
    c_all = np.array([s.los_camera for s in match_list])
    n_all = np.array([s.los_inertial for s in match_list])
    rng = np.random.default_rng(config.seed)
    threshold_rad = config.threshold_arcsec * ARCSEC_TO_RAD

    subsets = np.empty((config.n_samples, 3), dtype=np.int64)
    axes: list[AxisAngle | None] = []
    for k in range(config.n_samples):
        idx = rng.choice(m, size=3, replace=False)
        subsets[k] = idx
        try:
            axes.append(principal_axis_angle(wahba_svd(c_all[idx], n_all[idx])))
        except DegenerateGeometryError:
            axes.append(None)

    scores = consensus_scores(axes, threshold_rad)
    if scores.max() < 0:
        return None
    best = int(np.argmax(scores))  # ties: lowest sample index wins

    # Row ``best`` of the agreement matrix again (n angles): consensus_scores
    # returns the scores alone.  ``best`` agrees with itself.
    consensus = _agreement(axes, threshold_rad, best)
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
    residual_ok = ~inlier & (angular_separations(c_all, predicted) <= threshold_rad)
    if residual_ok.any():
        inlier |= residual_ok
        try:
            attitude = wahba_svd(c_all[inlier], n_all[inlier])
        except DegenerateGeometryError:
            return None

    return AttitudeSolution(
        matrix=attitude,
        quaternion=quaternion_from_matrix(attitude),
        inlier_centroids=tuple(match_list[k].centroid_index for k in np.flatnonzero(inlier)),
        outlier_centroids=tuple(match_list[k].centroid_index for k in np.flatnonzero(~inlier)),
        consensus_score=int(scores[best]),
    )
