import tracemalloc

import numpy as np
import pytest

from opnav.centroiding import compute_centroid, compute_threshold, extract_rois, find_centroids
from opnav.renderer import SceneSpec, render, render_field
from opnav.geometry import PointingAngles
from opnav.star_catalog import catalog_from_records


def _spots(shape, spots, sigma=0.9):
    """A uint8 frame of Gaussian spots ``(x, y, peak)``, rounded."""
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    image = sum(peak * np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2 * sigma**2)) for x, y, peak in spots)
    return np.rint(np.clip(image, 0, 255)).astype(np.uint8)


class TestThreshold:
    def test_constant_image(self):
        img = np.full((32, 32), 17, dtype=np.uint8)
        thr = compute_threshold(img, 20.0)
        assert thr == 17.0
        assert not (img > thr).any()

    def test_single_bright_pixel_t_zero(self):
        img = np.zeros((16, 16), dtype=np.uint8)
        img[3, 4] = 255
        thr = compute_threshold(img, 0.0)
        assert thr == pytest.approx(img.mean())
        assert np.count_nonzero(img > thr) == 1

    def test_population_std_used(self):
        img = np.array([[0, 2]], dtype=np.uint8)
        # population std of {0, 2} is 1, not sqrt(2)
        assert compute_threshold(img, 1.0) == 2.0

    @pytest.mark.parametrize("view", [np.s_[:, :], np.s_[::2, 1::3]], ids=["4096x4096", "strided_2048x1365"])
    def test_peak_memory_is_one_block(self, view):
        """The float32 buffer holds one block of rows (512 KiB); a float copy
        of the whole frame, or a copy of the strided view, would not fit."""
        image = np.random.default_rng(9).integers(0, 256, (4096, 4096), dtype=np.uint8)[view]
        tracemalloc.start()
        try:
            compute_threshold(image, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError, match="^empty image$"):
            compute_threshold(np.zeros((0, 0), dtype=np.uint8), 1.0)

    @pytest.mark.parametrize(
        "image, kind",
        [
            (np.zeros((16, 16)), "2-D float64"),
            (np.zeros(256, dtype=np.uint8), "1-D uint8"),
            (np.zeros((2, 16, 16), dtype=np.uint8), "3-D uint8"),
        ],
        ids=["float64", "1-D", "3-D"],
    )
    def test_non_frame_rejected(self, image, kind):
        with pytest.raises(ValueError, match=f"^expected a 2-D uint8 frame, got a {kind} array$"):
            compute_threshold(image, 1.0)
        with pytest.raises(ValueError, match=f"^expected a 2-D uint8 frame, got a {kind} array$"):
            find_centroids(image, 1.0)


class TestExtractRois:
    def test_two_separated_sources(self):
        img = _spots((64, 64), [(15.0, 20.0, 200.0), (25.0, 20.0, 200.0)])
        boxes, span = extract_rois(img, 10.0)
        assert boxes.shape == (2, 4) and span.shape == (2,)

    def test_overlapping_sources_merge(self):
        img = _spots((64, 64), [(20.0, 20.0, 200.0), (22.5, 20.0, 200.0)])
        boxes, _ = extract_rois(img, 10.0)
        assert len(boxes) == 1

    def test_diagonal_adjacency_is_connected(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[2, 2] = 100
        img[3, 3] = 100
        assert len(extract_rois(img, 50.0)[0]) == 1

    def test_margin_grown_and_clipped(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[0, 0] = 100
        boxes, span = extract_rois(img, 50.0)
        assert boxes.tolist() == [[0, 0, 1, 1]] and span.tolist() == [0]

    def test_row_major_ordering(self):
        img = np.zeros((32, 32), dtype=np.uint8)
        for x, y in [(25, 3), (4, 10), (15, 20)]:
            img[y, x] = 100
        boxes, _ = extract_rois(img, 50.0)
        assert (boxes[:, [1, 0]] + 1).tolist() == [[3, 25], [10, 4], [20, 15]]

    def test_no_component_gives_empty_arrays(self):
        for img in (np.zeros((8, 8), dtype=np.uint8), np.zeros((0, 8), dtype=np.uint8)):
            boxes, span = extract_rois(img, 50.0)
            assert boxes.shape == (0, 4) and span.shape == (0,)
            assert boxes.dtype == span.dtype == np.int64


class TestComputeCentroid:
    def test_single_pixel(self):
        img = np.zeros((40, 40), dtype=np.uint8)
        img[20, 10] = 150
        boxes, span = extract_rois(img, 50.0)
        xy, peak = compute_centroid(boxes, img)
        assert xy.tolist() == [[10.0, 20.0]] and peak.tolist() == [150]
        assert span[0] == 0
        assert xy.dtype == np.float64 and peak.dtype == np.int64

    def test_symmetric_plateau(self):
        img = np.zeros((40, 40), dtype=np.uint8)
        img[9:12, 19:22] = 80
        assert compute_centroid(extract_rois(img, 50.0)[0], img)[0].tolist() == [[20.0, 10.0]]

    def test_no_boxes(self):
        xy, peak = compute_centroid(np.empty((0, 4), dtype=np.int64), np.zeros((8, 8), dtype=np.uint8))
        assert xy.shape == (0, 2) and peak.shape == (0,)

    def test_rendered_spot_subpixel(self, camera):
        cat = catalog_from_records([])
        scene = SceneSpec(
            camera=camera,
            true_attitude=PointingAngles(0.0, 0.0, 0.0),
            sc_position_km=np.zeros(3),
            star_catalog=cat,
            background_mean_dn=0.0,
            background_sigma_dn=0.0,
            photon_noise=False,
            extra_sources=((100.3, 200.7, 1200.0),),
        )
        image, _ = render(scene)
        cents, span, peak, _ = find_centroids(image.data, 5.0)
        assert cents.shape == (1, 2) and span.shape == (1,)
        assert cents[0, 0] == pytest.approx(100.3, abs=0.02)
        assert cents[0, 1] == pytest.approx(200.7, abs=0.02)
        assert peak.tolist() == [image.data.max()]

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        block = rng.integers(60, 200, (3, 4), dtype=np.uint8)
        img = np.zeros((64, 64), dtype=np.uint8)
        img[10:13, 20:24] = block
        (x1, y1), = compute_centroid(extract_rois(img, 50.0)[0], img)[0]
        img2 = np.zeros((64, 64), dtype=np.uint8)
        img2[23:26, 31:35] = block
        (x2, y2), = compute_centroid(extract_rois(img2, 50.0)[0], img2)[0]
        assert x2 - x1 == pytest.approx(11.0, abs=1e-12)
        assert y2 - y1 == pytest.approx(13.0, abs=1e-12)

    def test_intensity_scaling_invariance(self):
        # an integer gain scales every moment alike: the same exact quotients
        img = np.zeros((64, 64), dtype=np.uint8)
        rng = np.random.default_rng(8)
        img[30:34, 40:43] = rng.integers(60, 128, (4, 3), dtype=np.uint8)
        boxes = extract_rois(img, 50.0)[0]
        xy, peak = compute_centroid(boxes, img * np.uint8(2))
        assert xy.tolist() == compute_centroid(boxes, img)[0].tolist()
        assert peak.tolist() == [2 * img.max()]

    def test_blank_box_rejected(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[0, 0] = 9
        with pytest.raises(ValueError, match="no signal"):
            compute_centroid(np.array([[0, 0, 1, 1], [1, 1, 3, 3]]), img)


def test_roi_count_monotone_in_t(camera, sky):
    catalog, _, _ = sky
    scene = SceneSpec(
        camera=camera,
        true_attitude=PointingAngles(1.0, 0.2, 2.0),
        sc_position_km=np.zeros(3),
        star_catalog=catalog,
        seed=3,
    )
    image, _ = render(scene)
    counts = []
    for t in (5.0, 10.0, 20.0, 40.0):
        counts.append(len(extract_rois(image.data, compute_threshold(image.data, t))[0]))
    assert counts == sorted(counts, reverse=True)


def test_threshold_separates_background_from_sources(camera, sky):
    catalog, _, _ = sky
    scene = SceneSpec(
        camera=camera,
        true_attitude=PointingAngles(1.0, 0.2, 2.0),
        sc_position_km=np.zeros(3),
        star_catalog=catalog,
        seed=4,
    )
    image, truth = render(scene)
    thr = compute_threshold(image.data, 20.0)
    ys, xs = np.nonzero(image.data > thr)
    bright_truth = np.array([(o.x, o.y) for o in truth.objects if o.peak_dn > thr])
    assert len(xs) > 0 and len(bright_truth) > 0
    # every above-threshold pixel lies within the footprint of some source
    d2 = (xs[:, None] - bright_truth[None, :, 0]) ** 2 + (ys[:, None] - bright_truth[None, :, 1]) ** 2
    assert np.sqrt(d2.min(axis=1)).max() < 5.0
