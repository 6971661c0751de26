import hashlib
import math

import numpy as np
import pytest

from opnav.centroiding import find_centroids
from opnav.ephemeris import Planet
from opnav.geometry import PointingAngles, attitude_from_axis_azimuth
from opnav.renderer import (
    DETECTABILITY_DN,
    PSF_TRUNCATION_SIGMAS,
    SceneSpec,
    central_pixel_fraction,
    magnitude_to_flux,
    read_pgm,
    read_truth,
    render,
    render_field,
    write_pgm,
    write_truth,
)
from opnav.star_catalog import catalog_from_records
from conftest import DESK_POINTING


def _field(camera, scene):
    """The dense float signal frame of ``render_field``'s lit pixels."""
    lit, signal, _ = render_field(scene)
    field = np.zeros((camera.height, camera.width))
    field.flat[lit] = signal
    return field


def _empty_scene(camera, **kw):
    defaults = dict(
        camera=camera,
        true_attitude=PointingAngles(0.0, 0.0, 0.0),
        sc_position_km=np.zeros(3),
        star_catalog=catalog_from_records([]),
        background_mean_dn=0.0,
        background_sigma_dn=0.0,
        photon_noise=False,
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


class TestMagnitudeToFlux:
    def test_pogson_ratio(self, camera):
        assert magnitude_to_flux(1.0, camera) / magnitude_to_flux(3.5, camera) == pytest.approx(10.0)
        assert magnitude_to_flux(2.0, camera) / magnitude_to_flux(3.0, camera) == pytest.approx(
            10**0.4
        )

    def test_anchor_total_flux(self, camera):
        # at the anchor magnitude, flux * central fraction = anchor peak
        flux = magnitude_to_flux(0.0, camera, anchor_mag=0.0, anchor_peak_dn=2000.0)
        assert flux * central_pixel_fraction(camera.defocus_sigma_px) == pytest.approx(2000.0)

    def test_exposure_linearity(self, camera):
        import dataclasses

        doubled = dataclasses.replace(camera, exposure_ms=camera.exposure_ms * 2)
        assert magnitude_to_flux(3.0, doubled) == pytest.approx(2 * magnitude_to_flux(3.0, camera))

    def test_monotone_decreasing(self, camera):
        mags = np.linspace(-2, 8, 30)
        flux = [magnitude_to_flux(m, camera) for m in mags]
        assert all(a > b for a, b in zip(flux, flux[1:]))


class TestRender:
    def test_empty_scene_all_zero(self, camera):
        image, truth = render(_empty_scene(camera))
        assert image.data.sum() == 0
        assert truth.objects == ()

    def test_anchor_peak_at_pixel_center(self, camera):
        flux = magnitude_to_flux(0.0, camera)
        field = _field(camera, _empty_scene(camera, extra_sources=((512.0, 512.0, flux),)))
        assert field.max() == pytest.approx(2000.0, rel=1e-6)

    def test_rotational_symmetry_at_pixel_center(self, camera):
        image, _ = render(_empty_scene(camera, extra_sources=((200.0, 300.0, 1000.0),)))
        r = math.ceil(PSF_TRUNCATION_SIGMAS * camera.defocus_sigma_px)
        patch = image.data[300 - r : 300 + r + 1, 200 - r : 200 + r + 1].astype(int)
        np.testing.assert_array_equal(patch, np.rot90(patch))
        np.testing.assert_array_equal(patch, patch.T)

    def test_psf_truncated_at_four_sigma(self, camera):
        field = _field(camera, _empty_scene(camera, extra_sources=((200.0, 300.0, 1e6),)))
        r = PSF_TRUNCATION_SIGMAS * camera.defocus_sigma_px
        assert field[300, 200 + math.ceil(r) + 1] == 0.0
        assert field[300, 200] > 0.0

    def test_superposition_before_quantization(self, camera):
        s1 = ((100.2, 100.8, 900.0),)
        s2 = ((103.4, 101.1, 700.0),)
        f1 = _field(camera, _empty_scene(camera, extra_sources=s1))
        f2 = _field(camera, _empty_scene(camera, extra_sources=s2))
        f12 = _field(camera, _empty_scene(camera, extra_sources=s1 + s2))
        np.testing.assert_allclose(f12, f1 + f2, atol=1e-9)

    def test_same_seed_bit_identical(self, camera, sky):
        catalog, _, _ = sky
        def make():
            scene = SceneSpec(
                camera=camera,
                true_attitude=DESK_POINTING,
                sc_position_km=np.zeros(3),
                star_catalog=catalog,
                seed=99,
            )
            return render(scene)
        img1, t1 = make()
        img2, t2 = make()
        np.testing.assert_array_equal(img1.data, img2.data)
        assert t1 == t2

    # SHA-256 of the uint8 frame, default sky at DESK_POINTING, seed 99;
    # default and no_photon_noise recorded with the table-sampled
    # background, no_background (no random background) before that.
    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({}, "061f771db177c7c4bf1a158de9664013eecf5420a1f1a5aaed541d2ede40a2d0"),
            (
                {"photon_noise": False},
                "b19f6cf9a6cf5388355e9c9ad37b6333f27076837358526a32bd7dc7e2ff61ef",
            ),
            (
                {"background_mean_dn": 0.0, "background_sigma_dn": 0.0},
                "7bbdfe4b3569e63ff407a60aac8f342d682c42d1d7ea72db10256e11669664a8",
            ),
        ],
        ids=["default", "no_photon_noise", "no_background"],
    )
    def test_frozen_frame_digest(self, camera, sky, overrides, digest):
        catalog, _, _ = sky
        scene = SceneSpec(
            camera=camera,
            true_attitude=DESK_POINTING,
            sc_position_km=np.zeros(3),
            star_catalog=catalog,
            seed=99,
            **overrides,
        )
        image, _ = render(scene)
        assert hashlib.sha256(image.data.tobytes()).hexdigest() == digest

    def test_negative_flux_rejected_by_shot_noise(self, camera):
        scene = _empty_scene(camera, photon_noise=True, extra_sources=((200.0, 300.0, -50.0),))
        with pytest.raises(ValueError, match="lam < 0"):
            render(scene)

    def test_negative_background_sigma_rejected(self, camera):
        scene = _empty_scene(camera, background_mean_dn=5.0, background_sigma_dn=-1.0)
        with pytest.raises(ValueError, match="scale < 0"):
            render(scene)

    def test_different_seed_differs(self, camera, sky):
        catalog, _, _ = sky
        imgs = []
        for seed in (1, 2):
            scene = SceneSpec(
                camera=camera,
                true_attitude=DESK_POINTING,
                sc_position_km=np.zeros(3),
                star_catalog=catalog,
                seed=seed,
            )
            imgs.append(render(scene)[0].data)
        assert (imgs[0] != imgs[1]).any()

    def test_noiseless_spot_centroid_accuracy(self, camera):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(100, 900)
            y = rng.uniform(100, 900)
            image, _ = render(_empty_scene(camera, extra_sources=((x, y, 1200.0),)))
            cents, _, _, _ = find_centroids(image.data, 5.0)
            assert len(cents) == 1
            worst = max(worst, abs(cents[0, 0] - x), abs(cents[0, 1] - y))
        assert worst < 0.02

    def test_visible_flag_matches_peak_recount(self, camera, sky):
        catalog, _, _ = sky
        scene = SceneSpec(
            camera=camera,
            true_attitude=DESK_POINTING,
            sc_position_km=np.zeros(3),
            star_catalog=catalog,
            seed=5,
        )
        image, truth = render(scene)
        r = math.ceil(PSF_TRUNCATION_SIGMAS * camera.defocus_sigma_px)
        for o in truth.objects:
            if math.isnan(o.x):
                assert not o.visible
                continue
            x0, x1 = max(int(o.x) - r, 0), min(int(o.x) + r + 1, camera.width)
            y0, y1 = max(int(o.y) - r, 0), min(int(o.y) + r + 1, camera.height)
            peak = image.data[y0:y1, x0:x1].max() if (x1 > x0 and y1 > y0) else 0
            in_frame = camera.in_frame(o.x, o.y)
            assert o.visible == (in_frame and peak >= DETECTABILITY_DN)

    def test_render_field_objects_are_unscored(self, camera):
        boresight = attitude_from_axis_azimuth(PointingAngles(0.0, 0.0, 0.0))[2]
        scene = _empty_scene(
            camera,
            planets=(Planet("ahead", 1e8 * boresight, -3.0), Planet("behind", -1e8 * boresight, -3.0)),
        )
        _, _, objects = render_field(scene)
        assert [(o.ident, o.peak_dn, o.visible) for o in objects] == [("ahead", 0.0, False), ("behind", 0.0, False)]
        assert (objects[0].x, objects[0].y) == pytest.approx(camera.principal_point)
        assert math.isnan(objects[1].x) and math.isnan(objects[1].y)
        _, truth = render(scene)
        ahead, behind = truth.objects
        assert ahead.visible and ahead.peak_dn == 255.0
        assert math.isnan(behind.x) and (behind.peak_dn, behind.visible) == (0.0, False)

    @pytest.mark.parametrize(
        "source, reason",
        [
            ((float("nan"), 300.0, 50.0), "extra_sources[1]: x nan is not finite"),
            ((200.0, float("nan"), 50.0), "extra_sources[1]: y nan is not finite"),
            ((float("inf"), 300.0, 50.0), "extra_sources[1]: x inf is not finite"),
            ((200.0, -float("inf"), 50.0), "extra_sources[1]: y -inf is not finite"),
            ((200.0, 300.0, float("inf")), "extra_sources[1]: flux inf is not finite"),
            ((200.0, 300.0, float("nan")), "extra_sources[1]: flux nan is not finite"),
            ((200.0, 300.0), "extra_sources[1]: expected (x, y, flux), got 2 values"),
        ],
        ids=["nan_x", "nan_y", "inf_x", "inf_y", "inf_flux", "nan_flux", "short"],
    )
    def test_non_finite_extra_source_rejected(self, camera, source, reason):
        with pytest.raises(ValueError) as info:
            _empty_scene(camera, extra_sources=((10.0, 10.0, 50.0), source))
        assert str(info.value) == reason

    def test_clamped_to_eight_bit(self, camera):
        image, truth = render(_empty_scene(camera, extra_sources=((300.0, 300.0, 1e9),)))
        assert image.data.max() == 255
        assert truth.objects[0].peak_dn == 255.0


class TestIO:
    def test_pgm_roundtrip(self, camera, tmp_path):
        image, _ = render(_empty_scene(camera, extra_sources=((77.3, 48.9, 5000.0),)))
        path = tmp_path / "frame.pgm"
        write_pgm(image, path)
        back = read_pgm(path)
        assert back.data.shape == image.data.shape
        np.testing.assert_array_equal(back.data, image.data)
        header = path.read_bytes()[:15]
        assert header.startswith(b"P5\n1024 1024\n")

    def test_truth_roundtrip(self, camera, tmp_path):
        scene = _empty_scene(
            camera,
            extra_sources=((10.5, 20.25, 3000.0),),
            true_attitude=PointingAngles(0.1, -0.2, 5.0),
        )
        _, truth = render(scene)
        path = tmp_path / "truth.csv"
        write_truth(truth, path)
        back = read_truth(path)
        assert back == truth

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("star,1,2.5,3.5", "expected 6 fields, got 4"),
            ("star,1,2.5,y,40.0,1", "could not convert string to float: 'y'"),
            ("star,1,2.5,3.5,40.0,yes", "invalid literal for int() with base 10: 'yes'"),
            ("# attitude 0.1 0.2", "expected 3 attitude angles, got 2"),
        ],
        ids=["short", "bad_float", "bad_visible", "short_attitude"],
    )
    def test_truth_line_error_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "truth.csv"
        path.write_text(f"# attitude 0.1 0.2 0.3\nstar,0,1.0,2.0,50.0,1\n{line}\n")
        with pytest.raises(ValueError) as info:
            read_truth(path)
        assert str(info.value) == f"{path} line 3: {reason}"

    def test_bad_pgm_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_truncated_pgm_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n1024 1024\n255\n" + bytes(1000))
        with pytest.raises(ValueError, match="short.pgm: expected 1048576 data bytes, got 1000"):
            read_pgm(path)
        path.write_bytes(b"P5\n1024")
        with pytest.raises(ValueError, match="truncated PGM header"):
            read_pgm(path)
