import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav.geometry import (
    Attitude,
    CameraModel,
    PointingAngles,
    angular_separation,
    attitude_from_axis_azimuth,
    canonical_quaternions,
    los_from_pixel,
    los_from_pixels,
    matrix_from_quaternion,
    project_point,
    project_star,
    quaternion_from_matrix,
    radec_to_unit,
    rot3,
)

from conftest import random_rotation


def test_intrinsic_matrix_structure(camera):
    k = camera.intrinsic
    assert k[1, 0] == 0 and k[2, 0] == 0 and k[2, 1] == 0 and k[0, 1] == 0
    assert k[0, 0] == k[1, 1] > 0
    assert (k[0, 2], k[1, 2]) == (512.0, 512.0)
    assert k[0, 0] == pytest.approx(1024 / (2 * math.tan(math.radians(10))))


def test_axis_azimuth_identity():
    m = attitude_from_axis_azimuth(PointingAngles(alpha=0.0, delta=math.pi / 2, phi=0.0))
    np.testing.assert_allclose(m, np.eye(3), atol=1e-15)


def test_axis_azimuth_single_rotation():
    m = attitude_from_axis_azimuth(PointingAngles(alpha=0.0, delta=math.pi / 2, phi=math.pi))
    np.testing.assert_allclose(m, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_axis_azimuth_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ang = PointingAngles(
            alpha=rng.uniform(0, 2 * math.pi),
            delta=rng.uniform(-math.pi / 2, math.pi / 2),
            phi=rng.uniform(0, 2 * math.pi),
        )
        m = attitude_from_axis_azimuth(ang)
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_boresight_points_at_phi_delta(camera):
    # With the rot3(alpha) rot2(pi/2-delta) rot3(phi) composition the
    # boresight right ascension is phi; its declination is delta.
    ang = PointingAngles(alpha=2.2, delta=0.3, phi=1.1)
    m = attitude_from_axis_azimuth(ang)
    assert project_star(camera, m, 1.1, 0.3) == pytest.approx([512.0, 512.0])


def test_quaternion_identity():
    np.testing.assert_allclose(
        matrix_from_quaternion(Attitude(np.array([1.0, 0, 0, 0]))), np.eye(3), atol=1e-15
    )


def test_quaternion_z_rotation():
    half = math.pi / 4
    q = Attitude(np.array([math.cos(half), 0.0, 0.0, math.sin(half)]))
    np.testing.assert_allclose(matrix_from_quaternion(q), rot3(math.pi / 2), atol=1e-15)


def test_quaternion_matrix_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = Attitude(rng.standard_normal(4))
        back = quaternion_from_matrix(matrix_from_quaternion(q))
        np.testing.assert_allclose(back.q, q.q, atol=1e-12)


def test_quaternion_roundtrip_near_pi():
    # Half-turn rotations exercise the non-trace extraction branches.
    for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0.6, 0, 0.8])):
        q = Attitude(np.concatenate([[1e-9], axis]))
        back = quaternion_from_matrix(matrix_from_quaternion(q))
        np.testing.assert_allclose(back.q, q.q, atol=1e-9)


def test_quaternion_from_bad_matrix_raises():
    with pytest.raises(ValueError):
        quaternion_from_matrix(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        quaternion_from_matrix(np.diag([1.0, 1.0, -1.0]))  # det -1


def test_project_boresight_hits_principal_point(camera):
    m = attitude_from_axis_azimuth(PointingAngles(alpha=0.4, delta=0.1, phi=2.0))
    target = 3e8 * (m.T @ np.array([0.0, 0.0, 1.0]))
    px = project_point(camera, m, np.zeros(3), target)
    assert px == pytest.approx([512.0, 512.0], abs=1e-9)


def test_project_behind_camera(camera):
    px = project_point(camera, np.eye(3), np.zeros(3), np.array([0.0, 0.0, -1e8]))
    assert px is None


def test_project_zero_range_raises(camera):
    pos = np.array([1e5, 2e5, 3e5])
    with pytest.raises(ValueError):
        project_point(camera, np.eye(3), pos, pos.copy())


@pytest.mark.parametrize("theta_deg", [1.0, 5.0])
def test_project_off_axis_tan_mapping(camera, theta_deg):
    theta = math.radians(theta_deg)
    target = 2e8 * np.array([math.sin(theta), 0.0, math.cos(theta)])
    px = project_point(camera, np.eye(3), np.zeros(3), target)
    assert px[0] == pytest.approx(512.0 + camera.focal_px * math.tan(theta), rel=1e-12)
    assert px[1] == pytest.approx(512.0)


def test_projection_scale_invariance(camera):
    rng = np.random.default_rng(3)
    m = random_rotation(rng)
    sc = rng.standard_normal(3) * 1e7
    los = m.T @ np.array([0.05, -0.08, 1.0])
    p1 = project_point(camera, m, sc, sc + 1e6 * los)
    p2 = project_point(camera, m, sc, sc + 4.2e9 * los)
    np.testing.assert_allclose(p1, p2, atol=1e-6)


def test_star_projection_translation_invariant(camera):
    # a source far enough away projects to the same pixel from spacecraft
    # positions 10 AU apart, and both agree with the infinity projection
    m = attitude_from_axis_azimuth(PointingAngles(alpha=0.0, delta=0.2, phi=1.0))
    star = project_star(camera, m, 1.02, 0.21)
    u = radec_to_unit(1.02, 0.21)
    far = 1e17  # km, effectively at infinity
    sc1 = np.zeros(3)
    sc2 = np.array([1.5e9, -0.3e9, 0.2e9])  # ~10 AU displacement
    p1 = project_point(camera, m, sc1, sc1 + far * u)
    p2 = project_point(camera, m, sc2, sc2 + far * u)
    np.testing.assert_allclose(p1, p2, atol=1e-6)
    np.testing.assert_allclose(p1, star, atol=1e-6)


def test_star_ten_degrees_off_boresight_inside_frame(camera):
    m = attitude_from_axis_azimuth(PointingAngles(alpha=0.0, delta=0.0, phi=0.0))
    # 10 deg off boresight along the frame diagonal of a 20 deg camera
    off = math.radians(10.0)
    direction = np.array(
        [math.sin(off) / math.sqrt(2), math.sin(off) / math.sqrt(2), math.cos(off)]
    )
    direction = m.T @ direction
    dec = math.asin(direction[2])
    ra = math.atan2(direction[1], direction[0])
    px = project_star(camera, m, ra, dec)
    assert camera.in_frame(px[0], px[1])


def test_los_from_principal_point(camera):
    np.testing.assert_allclose(los_from_pixel(camera, (512.0, 512.0)), [0, 0, 1], atol=1e-15)


def test_los_projection_roundtrip(camera):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        px = rng.uniform(0, 1023, 2)
        los = los_from_pixel(camera, px)
        h = camera.intrinsic @ los
        back = np.array([h[0] / h[2], h[1] / h[2]])
        worst = max(worst, float(np.abs(back - px).max()))
    assert worst < 1e-9


def test_los_symmetric_pixel_pair_angle(camera):
    delta = 173.2
    a = los_from_pixel(camera, (512 - delta, 512.0))
    b = los_from_pixel(camera, (512 + delta, 512.0))
    expected = 2 * math.atan(delta / camera.focal_px)
    assert angular_separation(a, b) == pytest.approx(expected, abs=1e-12)


def test_projected_interstar_angle_matches_catalog(camera):
    # noise-free, quantization-free: angles measured from projected
    # pixels must reproduce the catalog separation almost exactly
    rng = np.random.default_rng(5)
    for _ in range(20):
        pointing = PointingAngles(
            alpha=rng.uniform(0, 2 * math.pi), delta=rng.uniform(-0.6, 0.6), phi=rng.uniform(0, 2 * math.pi)
        )
        m = attitude_from_axis_azimuth(pointing)
        boresight = m[2]
        dec0 = math.asin(boresight[2])
        ra0 = math.atan2(boresight[1], boresight[0])
        stars = [
            (ra0 + rng.uniform(-0.1, 0.1) / max(math.cos(dec0), 0.3), dec0 + rng.uniform(-0.1, 0.1))
            for _ in range(2)
        ]
        vs = [radec_to_unit(ra, dec) for ra, dec in stars]
        gamma_catalog = angular_separation(vs[0], vs[1])
        pxs = [project_star(camera, m, ra, dec) for ra, dec in stars]
        assert all(p is not None for p in pxs)
        los = [los_from_pixel(camera, p) for p in pxs]
        gamma_measured = angular_separation(los[0], los[1])
        assert abs(gamma_measured - gamma_catalog) < 1e-8


def test_pointing_angles_wrap_into_half_open_range():
    # -1e-300 % 2 pi rounds to 2 pi itself; the stored angle must be 0
    ang = PointingAngles(alpha=-1e-300, delta=0.0, phi=-2.0 * math.pi)
    assert (ang.alpha, ang.phi) == (0.0, 0.0)
    assert PointingAngles(alpha=-1.0, delta=0.0, phi=7.0).alpha == -1.0 % (2.0 * math.pi)


def test_pointing_angles_validate_ranges():
    with pytest.raises(ValueError):
        PointingAngles(alpha=0.0, delta=2.0, phi=0.0)
    for alpha, phi in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            PointingAngles(alpha=alpha, delta=0.0, phi=phi)
    wrapped = PointingAngles(alpha=2 * math.pi + 0.5, delta=0.0, phi=-0.5)
    assert wrapped.alpha == pytest.approx(0.5)
    assert wrapped.phi == pytest.approx(2 * math.pi - 0.5)


def test_attitude_canonical_hemisphere():
    a = Attitude(np.array([-0.5, 0.5, -0.5, 0.5]))
    assert a.q[0] >= 0
    np.testing.assert_allclose(np.linalg.norm(a.q), 1.0, atol=1e-15)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(
    fov_deg=st.sampled_from([10.0, 20.0, 40.0]),
    pixels=st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=1, max_size=20),
)
def test_los_rows_equal_one_pixel_norm(fov_deg, pixels):
    """Each row of the batched line of sight is the pixel's vector built
    alone over its ``np.linalg.norm``, bit for bit."""
    camera = CameraModel(fov_deg=fov_deg)
    cx, cy = camera.principal_point
    f = camera.focal_px
    got = los_from_pixels(camera, pixels)
    for k, (x, y) in enumerate(pixels):
        v = np.array([(x - cx) / f, (y - cy) / f, 1.0])
        np.testing.assert_array_equal(_bits(got[k]), _bits(v / np.linalg.norm(v)))
        np.testing.assert_array_equal(_bits(los_from_pixel(camera, (x, y))), _bits(got[k]))


component = st.just(0.0) | st.floats(-1e3, 1e3).filter(lambda x: abs(x) >= 1e-3)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(*[component] * 4).filter(any), min_size=1, max_size=20))
def test_canonical_quaternion_rows_equal_one_quaternion_norm(rows):
    """Row k of the batched canonical quaternions equals the one-row call,
    ``Attitude`` and the sign-fixed ``q / np.linalg.norm(q)``, bit for bit;
    zero components exercise the sign rule at q0 == 0."""
    q = np.array(rows)
    got = canonical_quaternions(q)
    for k in range(len(q)):
        u = q[k] / np.linalg.norm(q[k])
        want = -u if u[np.flatnonzero(u)[0]] < 0 else u
        np.testing.assert_array_equal(_bits(got[k]), _bits(want))
        np.testing.assert_array_equal(_bits(canonical_quaternions(q[k : k + 1])[0]), _bits(want))
        np.testing.assert_array_equal(_bits(Attitude(q[k]).q), _bits(want))
