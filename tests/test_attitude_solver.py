import math

import numpy as np
import pytest

from opnav.attitude_solver import (
    AxisAngle,
    DegenerateGeometryError,
    RansacConfig,
    consensus_scores,
    principal_axis_angle,
    ransac_attitude,
    wahba_svd,
)
from opnav.geometry import ARCSEC_TO_RAD, RAD_TO_ARCSEC, Attitude, matrix_from_quaternion, rot3
from opnav.star_id import MATCH_DTYPE
from conftest import random_rotation, stack_axes


def _axis_angle_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    q = np.concatenate([[math.cos(angle / 2)], axis * math.sin(angle / 2)])
    return matrix_from_quaternion(Attitude(q))


def _random_directions(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestWahba:
    def test_identity_from_aligned_triad(self):
        triad = np.eye(3)
        np.testing.assert_allclose(wahba_svd(triad, triad), np.eye(3), atol=1e-12)

    def test_exact_recovery_noise_free(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            r_true = random_rotation(rng)
            n_vecs = _random_directions(rng, 5)
            c_vecs = n_vecs @ r_true.T
            r_est = wahba_svd(c_vecs, n_vecs)
            err = principal_axis_angle(r_est @ r_true.T).angle
            assert err < 1e-10

    def test_two_vector_minimum(self):
        rng = np.random.default_rng(21)
        r_true = random_rotation(rng)
        n_vecs = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        r_est = wahba_svd(n_vecs @ r_true.T, n_vecs)
        assert principal_axis_angle(r_est @ r_true.T).angle < 1e-10

    def test_noise_scale_matches_expectation(self):
        # 10 arcsec per-vector noise over 5 stars: attitude error should
        # land at the tens-of-arcsec scale, nowhere near degrees
        rng = np.random.default_rng(22)
        errs = []
        for _ in range(1000):
            r_true = random_rotation(rng)
            n_vecs = _random_directions(rng, 5)
            c_vecs = n_vecs @ r_true.T
            noise = rng.standard_normal(c_vecs.shape) * 10 * ARCSEC_TO_RAD
            c_noisy = c_vecs + noise
            c_noisy /= np.linalg.norm(c_noisy, axis=1, keepdims=True)
            errs.append(principal_axis_angle(wahba_svd(c_noisy, n_vecs) @ r_true.T).angle)
        mean_arcsec = np.mean(errs) * RAD_TO_ARCSEC
        assert 2.0 < mean_arcsec < 50.0

    def test_orthonormal_under_noise(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_vecs = _random_directions(rng, 4)
            c_vecs = _random_directions(rng, 4)  # totally inconsistent pairs
            r = wahba_svd(c_vecs, n_vecs)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_equivariance_under_frame_rotation(self):
        rng = np.random.default_rng(24)
        n_vecs = _random_directions(rng, 6)
        c_vecs = n_vecs @ random_rotation(rng).T
        q_rot = random_rotation(rng)
        a1 = wahba_svd(c_vecs, n_vecs)
        a2 = wahba_svd(c_vecs, n_vecs @ q_rot.T)
        np.testing.assert_allclose(a2, a1 @ q_rot.T, atol=1e-10)

    def test_collinear_rejected(self):
        v = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DegenerateGeometryError):
            wahba_svd(v, v)


class TestPrincipalAxisAngle:
    def test_identity_is_indeterminate(self):
        out = principal_axis_angle(np.eye(3))
        assert out.angle == 0.0
        assert out.indeterminate
        np.testing.assert_array_equal(out.axis, [0, 0, 1])

    def test_quarter_turn_about_z(self):
        out = principal_axis_angle(rot3(math.pi / 2))
        assert out.angle == pytest.approx(math.pi / 2, abs=1e-12)
        np.testing.assert_allclose(out.axis, [0, 0, 1], atol=1e-12)
        assert not out.indeterminate

    def test_roundtrip_random(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            r = random_rotation(rng)
            out = principal_axis_angle(r)
            rebuilt = _axis_angle_matrix(out.axis, out.angle)
            np.testing.assert_allclose(rebuilt, r, atol=1e-10)

    @pytest.mark.parametrize(
        "matrix",
        [2.0 * rot3(0.3), np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan)],
        ids=["scaled", "det_minus_one", "nan"],
    )
    def test_non_rotation_rejected(self, matrix):
        with pytest.raises(ValueError, match="not a proper rotation"):
            principal_axis_angle(matrix)

    def test_angle_in_closed_range(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            angle = principal_axis_angle(random_rotation(rng)).angle
            assert 0.0 <= angle <= math.pi


class TestConsensusScores:
    def test_fig_style_2110(self):
        # e2 close to e1 and e3; e4 off on its own: scores 1, 2, 1, 0
        t = 1e-3
        small = 7e-4  # e1-e3 separation 1.4e-3 falls outside the threshold
        e1 = AxisAngle(axis=np.array([1.0, 0, 0]), angle=1.0)
        e2 = AxisAngle(axis=_rotate_about_z(e1.axis, small), angle=1.0)
        e3 = AxisAngle(axis=_rotate_about_z(e1.axis, 2 * small), angle=1.0)
        e4 = AxisAngle(axis=np.array([0.0, 1.0, 0]), angle=1.0)
        scores = consensus_scores(*stack_axes([e1, e2, e3, e4]), t)[0]
        np.testing.assert_array_equal(scores, [1, 2, 1, 0])
        assert int(np.argmax(scores)) == 1

    def test_degenerate_sample_scored_negative(self):
        e1 = AxisAngle(axis=np.array([1.0, 0, 0]), angle=1.0)
        scores = consensus_scores(*stack_axes([e1, None, e1]), 1e-3)[0]
        np.testing.assert_array_equal(scores, [1, -1, 1])

    def test_axis_sign_not_collapsed(self):
        e1 = AxisAngle(axis=np.array([1.0, 0, 0]), angle=1.0)
        e2 = AxisAngle(axis=np.array([-1.0, 0, 0]), angle=1.0)
        np.testing.assert_array_equal(consensus_scores(*stack_axes([e1, e2]), 1e-3)[0], [0, 0])

    def test_indeterminate_axes_agree_only_with_each_other(self):
        ind = AxisAngle(axis=np.array([0.0, 0, 1.0]), angle=0.0, indeterminate=True)
        det = AxisAngle(axis=np.array([0.0, 0, 1.0]), angle=1.0)
        np.testing.assert_array_equal(consensus_scores(*stack_axes([ind, ind, det]), 1e-3)[0], [1, 1, 0])


def _rotate_about_z(v, angle):
    return rot3(angle).T @ v


def _make_matches(rng, n, r_true, corrupt=()):
    n_vecs = _random_directions(rng, n)
    # keep the asterism spread out so three-star subsets are well posed
    n_vecs = n_vecs * 0.25 + np.array([0.0, 0.0, 1.0])
    n_vecs /= np.linalg.norm(n_vecs, axis=1, keepdims=True)
    c_vecs = n_vecs @ r_true.T
    for i in corrupt:
        c_vecs[i] = _axis_angle_matrix(rng.standard_normal(3), math.radians(1.0)) @ c_vecs[i]
    return np.rec.fromarrays((np.arange(n), 100 + np.arange(n), c_vecs, n_vecs), dtype=MATCH_DTYPE)


class TestRansac:
    def test_zero_outliers_full_inlier_set(self):
        rng = np.random.default_rng(30)
        r_true = random_rotation(rng)
        matches = _make_matches(rng, 8, r_true)
        for seed in range(25):
            sol = ransac_attitude(matches, RansacConfig(n_samples=20, threshold_arcsec=15, seed=seed))
            assert sol is not None
            assert sol.inlier_centroids == tuple(range(8))
            assert set(range(8)).difference(sol.inlier_centroids) == set()
            assert principal_axis_angle(sol.matrix @ r_true.T).angle < 1e-9

    def test_corrupted_match_relabeled_spike(self):
        rng = np.random.default_rng(31)
        r_true = random_rotation(rng)
        matches = _make_matches(rng, 8, r_true, corrupt={5})
        rejected = 0
        for seed in range(40):
            sol = ransac_attitude(matches, RansacConfig(n_samples=20, threshold_arcsec=15, seed=seed))
            assert sol is not None
            if 5 not in sol.inlier_centroids:
                rejected += 1
                err = principal_axis_angle(sol.matrix @ r_true.T).angle
                assert err < 10 * ARCSEC_TO_RAD
        assert rejected >= 38  # 95 percent of seeds

    def test_fewer_than_three_matches(self):
        rng = np.random.default_rng(32)
        matches = _make_matches(rng, 2, random_rotation(rng))
        assert ransac_attitude(matches, RansacConfig(seed=0)) is None

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(33)
        matches = _make_matches(rng, 7, random_rotation(rng), corrupt={2})
        cfg = RansacConfig(n_samples=20, threshold_arcsec=15, seed=99)
        s1 = ransac_attitude(matches, cfg)
        s2 = ransac_attitude(matches, cfg)
        np.testing.assert_array_equal(s1.matrix, s2.matrix)
        assert s1.inlier_centroids == s2.inlier_centroids
        assert s1.consensus_score == s2.consensus_score

    def test_quaternion_consistent_with_matrix(self):
        rng = np.random.default_rng(34)
        matches = _make_matches(rng, 6, random_rotation(rng))
        sol = ransac_attitude(matches, RansacConfig(seed=3))
        np.testing.assert_allclose(
            matrix_from_quaternion(sol.quaternion), sol.matrix, atol=1e-12
        )
