import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import opnav
from opnav import star_id
from opnav.centroiding import find_centroids
from opnav.geometry import ARCSEC_TO_RAD, PointingAngles, attitude_from_axis_azimuth, project_star
from opnav.renderer import SceneSpec, magnitude_to_flux, render
from opnav.star_id import MAX_STAR_ID_CENTROIDS, IdentifyConfig, identify_stars, identify_with_retry
from conftest import DESK_POINTING, unmatched

EPS7 = 7.0 * ARCSEC_TO_RAD


def desk_scene(camera, catalog, **kw):
    defaults = dict(
        camera=camera,
        true_attitude=DESK_POINTING,
        sc_position_km=np.zeros(3),
        star_catalog=catalog,
        render_mag_cutoff=6.5,
        background_mean_dn=5.0,
        background_sigma_dn=2.0,
        photon_noise=False,
        seed=11,
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


@pytest.fixture(scope="module")
def desk_centroids(camera, desk_catalog):
    image, truth = render(desk_scene(camera, desk_catalog))
    cents, _, _, _ = find_centroids(image.data, 20.0)
    return cents, truth


def _truth_id_by_position(truth, x, y, radius=2.0):
    best, best_d = None, radius
    for o in truth.objects:
        d = math.hypot(o.x - x, o.y - y)
        if d < best_d:
            best, best_d = o, d
    return best.ident if best else None


class TestIdentifyStars:
    def test_clean_scene_all_matched(self, camera, desk_catalog, desk_db, desk_centroids):
        db, index = desk_db
        cents, truth = desk_centroids
        assert len(cents) == 6
        result = identify_stars(cents, camera, desk_catalog, db, index, EPS7)
        assert result is not None
        assert len(result.matches) == 6
        assert unmatched(result, len(cents)) == ()
        for m in result.matches:
            x, y = cents[m.centroid_index]
            assert str(m.star_id) == _truth_id_by_position(truth, x, y)

    def test_injected_planet_becomes_spike(self, camera, desk_catalog, desk_db):
        db, index = desk_db
        flux = magnitude_to_flux(1.5, camera)
        image, truth = render(
            desk_scene(camera, desk_catalog, extra_sources=((650.0, 250.0, flux),), seed=12)
        )
        cents, _, _, _ = find_centroids(image.data, 20.0)
        assert len(cents) == 7
        result = identify_stars(cents, camera, desk_catalog, db, index, EPS7)
        assert result is not None
        assert len(result.matches) == 6
        spikes = unmatched(result, len(cents))
        assert len(spikes) == 1
        x, y = cents[spikes[0]]
        assert math.hypot(x - 650.0, y - 250.0) < 0.5

    def test_fewer_than_three_centroids(self, camera, desk_catalog, desk_db, desk_centroids):
        db, index = desk_db
        cents, _ = desk_centroids
        assert identify_stars(cents[:2], camera, desk_catalog, db, index, EPS7) is None

    def test_matches_and_spikes_partition(self, camera, desk_catalog, desk_db):
        db, index = desk_db
        flux = magnitude_to_flux(2.0, camera)
        image, _ = render(
            desk_scene(
                camera,
                desk_catalog,
                extra_sources=((650.0, 250.0, flux), (380.0, 600.0, flux)),
                seed=13,
            )
        )
        cents, _, _, _ = find_centroids(image.data, 20.0)
        result = identify_stars(cents, camera, desk_catalog, db, index, EPS7)
        claimed = sorted([m.centroid_index for m in result.matches] + list(unmatched(result, len(cents))))
        assert claimed == list(range(len(cents)))
        ids = [m.star_id for m in result.matches]
        assert len(ids) == len(set(ids))

    def test_deterministic(self, camera, desk_catalog, desk_db, desk_centroids):
        db, index = desk_db
        cents, _ = desk_centroids
        r1 = identify_stars(cents, camera, desk_catalog, db, index, EPS7)
        r2 = identify_stars(cents, camera, desk_catalog, db, index, EPS7)
        assert [(m.centroid_index, m.star_id) for m in r1.matches] == [
            (m.centroid_index, m.star_id) for m in r2.matches
        ]
        assert unmatched(r1, len(cents)) == unmatched(r2, len(cents))


class TestSoundnessOnCleanSky(object):
    def test_hundred_random_attitudes(self, camera, sky):
        catalog, db, index = sky
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(100):
            pointing = PointingAngles(
                alpha=rng.uniform(0, 2 * math.pi),
                delta=rng.uniform(-0.6, 0.6),
                phi=rng.uniform(0, 2 * math.pi),
            )
            scene = SceneSpec(
                camera=camera,
                true_attitude=pointing,
                sc_position_km=np.zeros(3),
                star_catalog=catalog,
                background_mean_dn=0.0,
                background_sigma_dn=0.0,
                photon_noise=False,
                seed=0,
            )
            image, truth = render(scene)
            cents, _, _, _ = find_centroids(image.data, 20.0)
            if len(cents) < 3:
                continue
            result = identify_stars(cents, camera, catalog, db, index, EPS7)
            if result is None:
                continue
            att = attitude_from_axis_azimuth(pointing)
            for m in result.matches:
                row = catalog.rows_of([m.star_id])[0]
                px = project_star(camera, att, catalog.right_ascension[row], catalog.declination[row])
                x, y = cents[m.centroid_index]
                assert math.hypot(px[0] - x, px[1] - y) < 1.0
                checked += 1
        assert checked > 300  # plenty of matches actually exercised


class TestRetry:
    def test_clean_scene_first_iteration(self, camera, desk_catalog, desk_db):
        db, index = desk_db
        image, _ = render(desk_scene(camera, desk_catalog))
        out = identify_with_retry(
            image.data, camera, desk_catalog, db, index, IdentifyConfig(epsilon_rad=EPS7)
        )
        assert out is not None
        assert out.iterations == 1
        assert len(out.result.matches) == 6

    def test_black_image_no_solution(self, camera, desk_catalog, desk_db):
        db, index = desk_db
        image = np.zeros((camera.height, camera.width), dtype=np.uint8)
        out = identify_with_retry(
            image, camera, desk_catalog, db, index, IdentifyConfig(epsilon_rad=EPS7)
        )
        assert out is None

    def test_spike_swamped_scene_recovers_on_second_iteration(
        self, camera, desk_catalog, desk_db
    ):
        # Companions next to four of the six stars bridge into their
        # components at the first threshold (two thirds of the bright
        # objects corrupted), dragging those centroids a pixel off and
        # killing the match.  The higher threshold of the retry cuts the
        # bridges, the star centroids come back clean, and the asterism
        # is recognized with the companions relabeled spikes.
        db, index = desk_db
        att = attitude_from_axis_azimuth(DESK_POINTING)
        star_px = [
            project_star(camera, att, ra, dec)
            for ra, dec in zip(desk_catalog.right_ascension, desk_catalog.declination)
        ]
        offsets = [(3.5, 0.0), (-3.5, 0.0), (0.0, 3.5), (0.0, -3.5)]
        flux = 160.0 / 0.1776  # peak ~160 DN: above thr(T=20), below thr(T=60)
        companions = tuple(
            (float(px[0] + dx), float(px[1] + dy), flux)
            for px, (dx, dy) in zip(star_px[:4], offsets)
        )
        image, _ = render(desk_scene(camera, desk_catalog, extra_sources=companions, seed=14))
        config = IdentifyConfig(
            epsilon_rad=EPS7, threshold_t=20.0, threshold_t_step=40.0, max_iterations=5
        )
        out = identify_with_retry(image.data, camera, desk_catalog, db, index, config)
        assert out is not None
        assert out.iterations == 2
        assert len(out.result.matches) == 6


class TestBrightestCentroids:
    def test_star_id_sees_the_brightest_in_roi_order(self, camera, desk_catalog, desk_db, monkeypatch):
        # 81 spots of one peak (105 DN) around the six brighter desk stars:
        # star ID gets the stars and the first 34 spots in ROI order, and its
        # matches index the full centroid list
        db, index = desk_db
        att = attitude_from_axis_azimuth(DESK_POINTING)
        stars = [project_star(camera, att, ra, dec) for ra, dec in zip(desk_catalog.right_ascension, desk_catalog.declination)]
        spots = tuple(
            (float(x), float(y), 100.0 / 0.1776)
            for y in range(60, 1000, 110)
            for x in range(60, 1000, 110)
            if min(math.hypot(x - sx, y - sy) for sx, sy in stars) > 30
        )
        image, _ = render(desk_scene(camera, desk_catalog, background_sigma_dn=0.0, extra_sources=spots))
        xy, span, peak, _ = find_centroids(image.data, 20.0)
        is_spot = peak == 105
        assert len(xy) == 87 and is_spot.sum() == 81
        seen = []
        monkeypatch.setattr(star_id, "identify_stars", lambda pixels, *a: seen.append(pixels) or identify_stars(pixels, *a))
        out = identify_with_retry(image.data, camera, desk_catalog, db, index, IdentifyConfig(epsilon_rad=EPS7))
        brightest = np.sort(np.concatenate((np.flatnonzero(~is_spot), np.flatnonzero(is_spot)[:34])))
        assert len(seen) == out.iterations == 1
        assert MAX_STAR_ID_CENTROIDS == 40 and seen[0].tolist() == xy[brightest].tolist()
        assert out.centroids.tolist() == xy.tolist()
        assert out.span.tolist() == span.tolist() and out.peak.tolist() == peak.tolist()
        assert len(out.result.matches) == 6 and not is_spot[out.result.matches.centroid_index].any()
        for m in out.result.matches:
            row = desk_catalog.rows_of([m.star_id])[0]
            px = project_star(camera, att, desk_catalog.right_ascension[row], desk_catalog.declination[row])
            assert math.hypot(*(px - xy[m.centroid_index])) < 1.0


def _run_limited(code: str, seconds: float) -> dict:
    """Run ``code`` in a child Python under a 1 GiB address-space limit with
    one BLAS thread, and return the JSON object it prints last."""
    src = os.path.dirname(os.path.dirname(opnav.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join((src, os.environ.get("PYTHONPATH", ""))))
    limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
    r = subprocess.run(
        [sys.executable, "-c", limit + textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=seconds
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


# One default frame, rendered in the child, whose threshold_t=0 gives about
# 16,400 centroids.
T0_FRAME = """
    import json, time, tracemalloc
    from opnav.centroiding import compute_centroid, compute_threshold, extract_rois
    from opnav.config import PipelineConfig
    from opnav.harness import render, sample_scenarios, solve_attitude
    from opnav.skysim import solar_system
    from opnav.star_catalog import build_kvector, build_pair_database
    cfg = PipelineConfig(threshold_t=0.0)
    camera, catalog = cfg.camera(), cfg.sky()
    spec = sample_scenarios(1, 1, cfg, camera, solar_system())[0]
    image = render(cfg.scene(spec.pointing, spec.sc_position_km, catalog, spec.planets, spec.index))[0].data
"""


def test_threshold_t_zero_frame_solves_or_gives_att_none():
    out = _run_limited(
        T0_FRAME
        + """
    db = build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
    index = build_kvector(db)
    n = len(extract_rois(image, compute_threshold(image, 0.0))[0])
    start = time.perf_counter()
    att = solve_attitude(image, camera, catalog, db, index, cfg.identify_config(), cfg.ransac_config())
    print(json.dumps({"centroids": n, "seconds": time.perf_counter() - start, "solved": att.solution is not None}))
    """,
        seconds=120,
    )
    # a solution or ATT_NONE (no solution) within 20 s, where every pair of
    # 16,000 centroids would ask star ID for tens of GB
    assert out["centroids"] > 10_000
    assert out["seconds"] < 20


def test_threshold_t_zero_extract_rois_memory():
    out = _run_limited(
        T0_FRAME
        + """
    threshold = compute_threshold(image, 0.0)
    tracemalloc.start()
    boxes = extract_rois(image, threshold)[0]
    print(json.dumps({"boxes": len(boxes), "peak_mib": tracemalloc.get_traced_memory()[1] / 2**20}))
    """,
        seconds=120,
    )
    # about 252,000 runs: int32 keys, and the run keys and first touching
    # runs dropped once the joins are found, give about 14 MiB (24.5 MiB
    # with int64 keys held to the end)
    assert out["boxes"] > 10_000
    assert out["peak_mib"] <= 17


def test_threshold_t_zero_centroid_pass_memory():
    out = _run_limited(
        T0_FRAME
        + """
    boxes = extract_rois(image, compute_threshold(image, 0.0))[0]
    tracemalloc.start()
    compute_centroid(boxes, image)
    print(json.dumps({"boxes": len(boxes), "peak_mib": tracemalloc.get_traced_memory()[1] / 2**20}))
    """,
        seconds=120,
    )
    # blocks of 2^16 cells: about 8 MiB for the 2.5 M cells of 16,400 boxes,
    # where one grid of the largest height and width (789 x 496) for every
    # box would take 6.4e9 cells
    assert out["boxes"] > 10_000
    assert out["peak_mib"] < 16
