import math

import numpy as np
import pytest

from opnav.beacon_detection import (
    CHI2_GATE_3SIGMA,
    Ellipse,
    UncertaintyBudget,
    covariance_ellipse,
    detect_beacon,
    floor_covariance,
    predict_projection,
    projection_covariance,
    projection_jacobian,
)
from opnav.geometry import Attitude, matrix_from_quaternion, project_point
from opnav.skysim import AU_KM


def _ellipse_points(ellipse: Ellipse, center, angles) -> np.ndarray:
    """Boundary points center + R(psi)^T (a cos t, b sin t): the (a, b, psi)
    convention of ``covariance_ellipse``, psi measured from the image x axis."""
    t = np.asarray(angles, dtype=float)
    c, s = math.cos(ellipse.psi), math.sin(ellipse.psi)
    rot = np.array([[c, s], [-s, c]])
    xy = np.column_stack([ellipse.a * np.cos(t), ellipse.b * np.sin(t)]) @ rot
    return xy + np.asarray(center, dtype=float)


def _random_config(rng):
    """Camera-facing beacon somewhere generic, 0.5-5 AU out."""
    q = Attitude(rng.standard_normal(4))
    sc = rng.standard_normal(3) * 2e8
    a = matrix_from_quaternion(q)
    los_c = np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15), 1.0])
    los_c /= np.linalg.norm(los_c)
    d = rng.uniform(0.5, 5.0) * AU_KM
    beacon = sc + d * (a.T @ los_c)
    return q, sc, beacon


class TestJacobian:
    def test_position_blocks_opposite(self, camera):
        rng = np.random.default_rng(40)
        for _ in range(20):
            q, sc, beacon = _random_config(rng)
            f = projection_jacobian(camera, q, sc, beacon)
            np.testing.assert_array_equal(f[:, 4:7], -f[:, 7:10])

    def test_boresight_translation_block_pattern(self, camera):
        q = Attitude(np.array([1.0, 0.0, 0.0, 0.0]))
        d = 2.3e8
        f = projection_jacobian(camera, q, np.zeros(3), np.array([0.0, 0.0, d]))
        expected = -(camera.focal_px / d) * np.array([[1.0, 0, 0], [0, 1.0, 0]])
        np.testing.assert_allclose(f[:, 4:7], expected, atol=1e-12)
        np.testing.assert_allclose(f[:, 7:10], -expected, atol=1e-12)

    def test_matches_central_differences(self, camera):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(50):
            q, sc, beacon = _random_config(rng)
            f = projection_jacobian(camera, q, sc, beacon)
            fd = _fd_jacobian(camera, q.q, sc, beacon)
            scale = np.abs(f).max()
            rel = np.abs(fd - f) / np.maximum(np.abs(f), 1e-9 * scale)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5

    def test_behind_camera_rejected(self, camera):
        q = Attitude(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            projection_jacobian(camera, q, np.zeros(3), np.array([0.0, 0.0, -1e8]))


def _fd_jacobian(camera, q, sc, beacon):
    x0 = np.concatenate([q, sc, beacon])
    span = float(np.linalg.norm(beacon - sc))

    def project(x):
        qq = x[:4] / np.linalg.norm(x[:4])
        return project_point(camera, matrix_from_quaternion(qq), x[4:7], x[7:10])

    fd = np.zeros((2, 10))
    for k in range(10):
        h = 1e-6 if k < 4 else 1e-6 * max(span, 1.0)
        dx = np.zeros(10)
        dx[k] = h
        fd[:, k] = (project(x0 + dx) - project(x0 - dx)) / (2 * h)
    return fd


class TestProjectionCovariance:
    def test_zero_budget_gives_zero(self, camera):
        rng = np.random.default_rng(42)
        q, sc, beacon = _random_config(rng)
        f = projection_jacobian(camera, q, sc, beacon)
        p = projection_covariance(f, UncertaintyBudget(0.0, 0.0, 0.0))
        np.testing.assert_array_equal(p, np.zeros((2, 2)))

    @pytest.mark.parametrize("field", ["sigma_qv", "sigma_r_km", "sigma_rbc_km"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_budget_rejects_negative_or_non_finite_sigma(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got {value}$"):
            UncertaintyBudget(**{field: value})

    def test_bilinear_scaling_in_sigma_r(self, camera):
        rng = np.random.default_rng(43)
        q, sc, beacon = _random_config(rng)
        f = projection_jacobian(camera, q, sc, beacon)
        p1 = projection_covariance(f, UncertaintyBudget(0.0, 1e5, 0.0))
        p2 = projection_covariance(f, UncertaintyBudget(0.0, 2e5, 0.0))
        np.testing.assert_allclose(p2, 4.0 * p1, rtol=1e-12)

    def test_symmetric_psd(self, camera):
        rng = np.random.default_rng(44)
        for _ in range(20):
            q, sc, beacon = _random_config(rng)
            f = projection_jacobian(camera, q, sc, beacon)
            p = projection_covariance(f, UncertaintyBudget(1e-4, 1e5, 1e3))
            np.testing.assert_array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() >= 0

    def test_matches_sampled_covariance(self, camera):
        rng = np.random.default_rng(45)
        q, sc, beacon = _random_config(rng)
        budget = UncertaintyBudget(sigma_qv=1e-4, sigma_r_km=1e5, sigma_rbc_km=0.0)
        f = projection_jacobian(camera, q, sc, beacon)
        p = projection_covariance(f, budget)
        nominal = project_point(camera, matrix_from_quaternion(q), sc, beacon)
        n = 100_000
        dq = rng.normal(0.0, budget.sigma_qv, (n, 3))
        dr = rng.normal(0.0, budget.sigma_r_km, (n, 3))
        errs = np.empty((n, 2))
        for i in range(n):
            qq = q.q + np.concatenate([[0.0], dq[i]])
            qq /= np.linalg.norm(qq)
            errs[i] = (
                project_point(camera, matrix_from_quaternion(qq), sc + dr[i], beacon) - nominal
            )
        sample = np.cov(errs.T)
        scale = np.sqrt(np.outer(np.diag(p), np.diag(p)))
        np.testing.assert_array_less(np.abs(sample - p) / scale, 0.1)


class TestCovarianceEllipse:
    def test_isotropic(self):
        e = covariance_ellipse(np.eye(2) * 4.0)
        assert e.a == e.b == pytest.approx(2.0 * math.sqrt(CHI2_GATE_3SIGMA))
        assert -math.pi < e.psi <= math.pi

    def test_axis_aligned(self):
        e = covariance_ellipse(np.diag([4.0, 1.0]))
        assert e.a == pytest.approx(2.0 * math.sqrt(CHI2_GATE_3SIGMA))
        assert e.b == pytest.approx(math.sqrt(CHI2_GATE_3SIGMA))
        assert e.psi == pytest.approx(0.0, abs=1e-12)

    def test_boundary_points_have_gate_mahalanobis(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            p = m @ m.T + 0.05 * np.eye(2)
            ellipse = covariance_ellipse(p)
            center = rng.standard_normal(2) * 100
            pts = _ellipse_points(ellipse, center, np.linspace(0, 2 * math.pi, 64))
            pinv = np.linalg.inv(p)
            d = pts - center
            mahal = np.einsum("ni,ij,nj->n", d, pinv, d)
            np.testing.assert_allclose(mahal, CHI2_GATE_3SIGMA, atol=1e-9)

    def test_degenerate_minor_axis_allowed(self):
        e = covariance_ellipse(np.diag([1.0, 0.0]))
        assert e.b == 0.0
        assert e.a > 0

    def test_mahalanobis_and_parametric_containment_agree(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            m = rng.standard_normal((2, 2))
            p = m @ m.T + 0.1 * np.eye(2)
            e = covariance_ellipse(p)
            point = rng.standard_normal(2) * 3
            mahal = point @ np.linalg.inv(p) @ point
            c, s = math.cos(e.psi), math.sin(e.psi)
            u = np.array([c, s]) @ point / e.a
            v = np.array([-s, c]) @ point / e.b
            geometric = u * u + v * v
            assert (mahal <= CHI2_GATE_3SIGMA) == (geometric <= 1.0 + 1e-12)


class TestFloor:
    def test_minor_axis_floored(self, camera):
        q = Attitude(np.array([1.0, 0.0, 0.0, 0.0]))
        pred = predict_projection(
            camera,
            q,
            np.zeros(3),
            np.array([0.0, 0.0, 3e8]),
            UncertaintyBudget(0.0, 0.0, 0.0),
            floor_px=0.5,
        )
        assert pred.ellipse.b == pytest.approx(0.5)
        assert pred.ellipse.a == pytest.approx(0.5)

    def test_large_covariance_untouched(self):
        p = np.diag([4.0, 1.0])
        np.testing.assert_allclose(floor_covariance(p, 0.5), p, atol=1e-12)


class TestPredictProjection:
    def test_expected_pixel_is_the_pinhole_projection(self, camera):
        rng = np.random.default_rng(48)
        for _ in range(20):
            q, sc, beacon = _random_config(rng)
            pred = predict_projection(camera, q, sc, beacon, UncertaintyBudget())
            expected = project_point(camera, matrix_from_quaternion(q), sc, beacon)
            np.testing.assert_array_equal(pred.expected_px, expected)

    def test_behind_camera_gives_none(self, camera):
        q = Attitude(np.array([1.0, 0.0, 0.0, 0.0]))
        assert predict_projection(camera, q, np.zeros(3), np.array([0.0, 0.0, -1e8]), UncertaintyBudget()) is None

    def test_beacon_at_spacecraft_rejected(self, camera):
        q = Attitude(np.array([1.0, 0.0, 0.0, 0.0]))
        sc = np.array([1e8, 2e8, 3e8])
        with pytest.raises(ValueError, match="coincides"):
            predict_projection(camera, q, sc, sc.copy(), UncertaintyBudget())


class TestDetectBeacon:
    def test_spike_at_expected_position(self, camera):
        pred = _make_prediction()
        assert detect_beacon([(512.0, 512.0)], pred) == 0

    def test_all_spikes_outside_gate(self):
        pred = _make_prediction()
        assert detect_beacon([(600.0, 600.0), (100.0, 100.0)], pred) is None

    def test_nearest_inside_wins(self):
        pred = _make_prediction(cov=np.eye(2) * 4.0)
        spikes = [(512.0 + 3.0, 512.0), (512.0 + 1.0, 512.0)]
        assert detect_beacon(spikes, pred) == 1

    def test_empty_spike_list(self):
        assert detect_beacon(np.empty((0, 2)), _make_prediction()) is None

    def test_tie_goes_to_lowest_index(self):
        pred = _make_prediction()
        spikes = [(513.0, 512.0), (511.0, 512.0)]
        assert detect_beacon(spikes, pred) == 0


def _make_prediction(expected=(512.0, 512.0), cov=None):
    from opnav.beacon_detection import ProjectionPrediction

    p = np.eye(2) if cov is None else np.asarray(cov, dtype=float)
    return ProjectionPrediction(
        expected_px=np.asarray(expected, dtype=float),
        covariance=p,
        ellipse=covariance_ellipse(p),
    )


class TestContainment:
    def test_three_sigma_containment_rate(self, camera):
        # the acceptance-scale check lives in test_acceptance; this is a
        # fast version at lower n
        rng = np.random.default_rng(48)
        q, sc, beacon = _random_config(rng)
        while np.linalg.norm(beacon - sc) < 0.5 * AU_KM:
            q, sc, beacon = _random_config(rng)
        budget = UncertaintyBudget(sigma_qv=1e-4, sigma_r_km=1e5, sigma_rbc_km=0.0)
        pred = predict_projection(camera, q, sc, beacon, budget)
        pinv = np.linalg.inv(pred.covariance)
        inside = 0
        n = 2000
        for _ in range(n):
            qq = q.q + np.concatenate([[0.0], rng.normal(0, budget.sigma_qv, 3)])
            qq /= np.linalg.norm(qq)
            true_px = project_point(
                camera, matrix_from_quaternion(qq), sc + rng.normal(0, budget.sigma_r_km, 3), beacon
            )
            d = true_px - pred.expected_px
            inside += (d @ pinv @ d) <= CHI2_GATE_3SIGMA
        assert inside / n >= 0.985
