import dataclasses
import hashlib
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from opnav.attitude_solver import AttitudeSolution
from opnav.beacon_detection import covariance_ellipse, ProjectionPrediction
from opnav.config import (
    MAX_FRAME_PIXELS,
    MAX_RANSAC_SAMPLES,
    MAX_SKY_STARS,
    PipelineConfig,
    load_config,
    save_config,
)
from opnav.geometry import (
    ARCSEC_TO_RAD,
    PointingAngles,
    attitude_from_axis_azimuth,
    quaternion_from_matrix,
    rot2,
)
from opnav.ephemeris import save_ephemeris
from opnav.harness import (
    CSV_HEADER,
    AttitudeOutput,
    BeaconObservation,
    ScenarioRecord,
    aggregate,
    classify_outcome,
    run_campaign,
    sample_scenarios,
    write_pdf_errors_csv,
    write_scenarios_csv,
)
from opnav.renderer import GroundTruth, Image, TruthObject, read_truth, write_pgm
from opnav.skysim import AU_KM, seen_from, solar_system
from opnav.star_catalog import (
    build_kvector,
    build_pair_database,
    catalog_from_records,
    save_catalog,
    save_pair_database,
)
from opnav.star_id import MATCH_DTYPE, MatchResult, RetryResult
from conftest import DESK_POINTING, DESK_STARS


# --- fixture builders -------------------------------------------------------

TRUE_POINTING = PointingAngles(alpha=0.7, delta=0.21, phi=1.01)


def _centroid(x, y, span=0):
    """One detection as the ``(xy, span)`` arrays of ``find_centroids``."""
    return np.array([[x, y]]), np.array([span], dtype=np.int64)


NO_CENTROIDS = np.empty((0, 2)), np.empty(0, dtype=np.int64)


def _attitude_output(pointing_err_arcsec=0.0, centroids=NO_CENTROIDS, spikes=(), matched=()):
    """AttitudeOutput with a solution whose boresight is off by the given
    angle; `centroids` are ``(xy, span)`` arrays and `spikes` index them."""
    xy, span = centroids
    a_true = attitude_from_axis_azimuth(TRUE_POINTING)
    a_est = rot2(pointing_err_arcsec * ARCSEC_TO_RAD) @ a_true
    solution = AttitudeSolution(
        matrix=a_est,
        quaternion=quaternion_from_matrix(a_est),
        inlier_centroids=tuple(matched),
        consensus_score=5,
    )
    retry = RetryResult(
        result=MatchResult(matches=np.recarray(0, MATCH_DTYPE)),
        threshold=45.0,
        iterations=1,
        centroids=xy,
        span=span,
        peak=np.zeros(len(span), dtype=np.int64),
    )
    return AttitudeOutput(retry, solution, tuple(spikes))


def _truth(planet_xy=(400.0, 300.0), peak=200.0, visible=True):
    objects = (TruthObject("planet", "mars", planet_xy[0], planet_xy[1], peak, visible),)
    return GroundTruth(objects=objects, attitude=TRUE_POINTING)


def _obs(expected=(400.0, 300.0), attempted=True, spike_index=None, selected=None):
    p = np.eye(2)
    pred = ProjectionPrediction(
        expected_px=np.asarray(expected, dtype=float),
        covariance=p,
        ellipse=covariance_ellipse(p),
    )
    return {
        "mars": BeaconObservation(
            prediction=pred,
            attempted=attempted,
            spike_index=spike_index,
            selected_px=None if selected is None else np.asarray(selected, dtype=float),
        )
    }


# --- classification decision tree -------------------------------------------


class TestClassifyOutcome:
    def test_no_attitude(self, camera, cfg):
        out = AttitudeOutput(None, None, ())
        label = classify_outcome(_truth(), out, {}, camera, cfg)
        assert label.label == "ATT_NONE"
        assert label.attitude_status == "none"

    def test_correct_detection(self, camera, cfg):
        c = _centroid(400.05, 300.08)
        att = _attitude_output(centroids=c, spikes=(0,))
        label = classify_outcome(
            _truth(), att, _obs(spike_index=0, selected=(400.05, 300.08)), camera, cfg
        )
        assert label.label == "1.I"
        assert label.attitude_status == "ok"
        assert label.projection_error_px == pytest.approx(math.hypot(0.05, 0.08))

    def test_wrong_spike_beyond_five_px(self, camera, cfg):
        c = _centroid(407.0, 300.0)
        att = _attitude_output(centroids=c, spikes=(0,))
        label = classify_outcome(
            _truth(), att, _obs(spike_index=0, selected=(407.0, 300.0)), camera, cfg
        )
        assert label.label == "1.II"

    def test_exactly_five_px_is_correct(self, camera, cfg):
        c = _centroid(405.0, 300.0)
        att = _attitude_output(centroids=c, spikes=(0,))
        label = classify_outcome(
            _truth(), att, _obs(spike_index=0, selected=(405.0, 300.0)), camera, cfg
        )
        assert label.label == "1.I"

    def test_faint_planet_nothing_detected(self, camera, cfg):
        truth = _truth(peak=119.0, visible=False)
        att = _attitude_output()
        label = classify_outcome(truth, att, _obs(), camera, cfg)
        assert label.label == "2.II"

    def test_invisible_planet_expected_offframe(self, camera, cfg):
        truth = _truth(peak=50.0, visible=False)
        att = _attitude_output()
        label = classify_outcome(truth, att, _obs(attempted=False), camera, cfg)
        assert label.label == "2.I"

    def test_false_positive_detection(self, camera, cfg):
        truth = _truth(peak=50.0, visible=False)
        c = _centroid(401.0, 300.0)
        att = _attitude_output(centroids=c, spikes=(0,))
        label = classify_outcome(
            truth, att, _obs(spike_index=0, selected=(401.0, 300.0)), camera, cfg
        )
        assert label.label == "2.III"

    def test_wrong_attitude_invisible_planet(self, camera, cfg):
        truth = _truth(peak=50.0, visible=False)
        att = _attitude_output(pointing_err_arcsec=800.0)
        label = classify_outcome(truth, att, _obs(attempted=False), camera, cfg)
        assert label.label == "ATT_WRONG"
        assert label.attitude_status == "wrong"

    def test_forensics_expected_offframe(self, camera, cfg):
        att = _attitude_output()
        label = classify_outcome(_truth(), att, _obs(attempted=False), camera, cfg)
        assert label.label == "1.III.D"

    def test_forensics_wrong_attitude(self, camera, cfg):
        att = _attitude_output(pointing_err_arcsec=800.0)
        label = classify_outcome(_truth(), att, _obs(), camera, cfg)
        assert label.label == "1.III.C"
        assert label.attitude_status == "wrong"

    def test_forensics_planet_matched_as_star(self, camera, cfg):
        c = _centroid(400.1, 300.1)
        att = _attitude_output(centroids=c, spikes=(), matched=(0,))
        label = classify_outcome(_truth(), att, _obs(), camera, cfg)
        assert label.label == "1.III.A"

    def test_forensics_gate_miss(self, camera, cfg):
        c = _centroid(402.0, 300.0)  # a one-pixel spike near the planet
        att = _attitude_output(centroids=c, spikes=(0,))
        label = classify_outcome(_truth(), att, _obs(), camera, cfg)
        assert label.label == "1.III.B"

    @pytest.mark.parametrize(
        "dx, span, expected",
        [
            (1.5, 2, "1.III.E"),  # a wide blob off the planet: merged with a neighbour
            (4.9, 2, "1.III.E"),
            (1.5, 1, "1.III.B"),  # a compact blob off the planet: the gate missed it
            (1.0, 2, "1.III.B"),  # on the planet: the gate missed it, whatever the span
            (0.5, 3, "1.III.B"),
        ],
    )
    def test_forensics_merged_with_neighbour(self, camera, cfg, dx, span, expected):
        c = _centroid(400.0 + dx, 300.0, span=span)
        att = _attitude_output(centroids=c, spikes=(0,))
        label = classify_outcome(_truth(), att, _obs(), camera, cfg)
        assert label.label == expected

    def test_forensics_no_centroid(self, camera, cfg):
        att = _attitude_output()
        label = classify_outcome(_truth(), att, _obs(), camera, cfg)
        assert label.label == "1.III.F"

    def test_no_planet_at_all(self, camera, cfg):
        truth = GroundTruth(objects=(), attitude=TRUE_POINTING)
        att = _attitude_output()
        label = classify_outcome(truth, att, {}, camera, cfg)
        assert label.label == "2.I"

    def test_rotation_error_reported(self, camera, cfg):
        att = _attitude_output(pointing_err_arcsec=100.0)
        label = classify_outcome(_truth(peak=50.0, visible=False), att, _obs(), camera, cfg)
        assert label.attitude_status == "ok"
        assert label.pointing_error_arcsec == pytest.approx(100.0, rel=1e-6)
        assert label.rotation_error_arcsec == pytest.approx(100.0, rel=1e-6)


# --- scenario sampling -------------------------------------------------------


class TestSampleScenarios:
    def test_deterministic(self, cfg, camera):
        planets = solar_system()
        a = sample_scenarios(20, 7, cfg, camera, planets)
        b = sample_scenarios(20, 7, cfg, camera, planets)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.sc_position_km, s2.sc_position_km)
            assert s1.pointing == s2.pointing
            assert s1.planet_in_frame == s2.planet_in_frame

    def test_declination_within_truncation(self, cfg, camera):
        specs = sample_scenarios(300, 11, cfg, camera, solar_system())
        deltas = np.array([s.pointing.delta for s in specs])
        assert np.abs(deltas).max() <= cfg.delta_max_rad
        assert np.abs(deltas).max() > 0.3  # the tail is actually exercised

    def test_planet_in_frame_fraction_recorded(self, cfg, camera):
        specs = sample_scenarios(300, 5, cfg, camera, solar_system())
        frac = sum(s.planet_in_frame for s in specs) / len(specs)
        assert 0.02 < frac < 0.9

    def test_position_spread_matches_config(self, cfg, camera):
        specs = sample_scenarios(400, 13, cfg, camera, solar_system())
        pos = np.array([s.sc_position_km for s in specs])
        std = pos.std(axis=0) / AU_KM
        assert std[0] == pytest.approx(3.0, rel=0.25)
        assert std[1] == pytest.approx(3.0, rel=0.25)
        assert std[2] == pytest.approx(0.07, rel=0.25)

    def test_planet_magnitudes_seen_from_scenario_position(self, cfg, camera):
        planets = solar_system()
        for spec in sample_scenarios(5, 3, cfg, camera, planets):
            for seen, p in zip(spec.planets, planets, strict=True):
                assert seen.name == p.name
                assert seen.magnitude == seen_from(p, spec.sc_position_km).magnitude
                np.testing.assert_array_equal(seen.position_km, p.position_km)

    def test_seen_from_inverse_square(self):
        mars = solar_system()[3]
        unit = mars.position_km / np.linalg.norm(mars.position_km)
        assert seen_from(mars, mars.position_km - AU_KM * unit).magnitude == pytest.approx(mars.magnitude)
        far = seen_from(mars, mars.position_km - 10.0 * AU_KM * unit)
        assert far.magnitude == pytest.approx(mars.magnitude + 5.0)
        np.testing.assert_array_equal(far.position_km, mars.position_km)

    @pytest.mark.parametrize(
        "bound, reason",
        [
            (0.0, "delta_max_rad must be > 0"),
            (-0.1, "delta_max_rad must be > 0"),
            (math.nan, "delta_max_rad must be > 0"),
            # the rejection sampler would take ~1/p draws per scenario
            (1e-6, "delta_max_rad 1e-06 keeps only a fraction 3.99e-06 of the declination draws"),
            (1e-12, "delta_max_rad 1e-12 keeps only a fraction 3.99e-12 of the declination draws"),
            (2.5e-5, "delta_max_rad 2.5e-05 keeps only a fraction 9.97e-05 of the declination draws"),
        ],
    )
    def test_nonpositive_delta_max_rejected(self, cfg, camera, bound, reason):
        bad = dataclasses.replace(cfg, delta_max_rad=bound)
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}"):
            sample_scenarios(3, 1, bad, camera, solar_system())

    def test_tight_delta_max_accepted_when_draws_pass(self, cfg, camera):
        # p = 2.0e-4 at sigma 0.2 (about 5000 draws a scenario); sigma 0 always passes
        for bound, sigma in ((5e-5, 0.2), (1e-12, 0.0)):
            tight = dataclasses.replace(cfg, delta_max_rad=bound, delta_sigma_rad=sigma)
            deltas = [s.pointing.delta for s in sample_scenarios(3, 1, tight, camera, solar_system())]
            assert max(abs(d) for d in deltas) <= bound


# --- campaign ----------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_campaign(cfg, sky):
    catalog, db, index = sky
    report = run_campaign(40, [1e4, 1e7], 424242, cfg, catalog, db, index, solar_system())
    return report


class TestCampaign:
    def test_outcome_labels_partition_scenarios(self, mini_campaign):
        for sigma in (1e4, 1e7):
            recs = [r for r in mini_campaign.records if r.sigma_r_km == sigma]
            assert len(recs) == 40
            assert all(r.outcome.label for r in recs)

    def test_failure_rate_monotone_in_sigma_r(self, mini_campaign):
        rows = {row.sigma_r_km: row for row in mini_campaign.rows}
        assert rows[1e7].pct_beacon_fail >= rows[1e4].pct_beacon_fail

    def test_attitude_stage_independent_of_sigma_r(self, mini_campaign):
        by_sigma = {}
        for r in mini_campaign.records:
            by_sigma.setdefault(r.sigma_r_km, []).append(
                (r.scenario, r.outcome.attitude_status, r.outcome.rotation_error_arcsec)
            )
        assert by_sigma[1e4] == by_sigma[1e7]

    def test_reproducible_and_csv_byte_identical(self, cfg, sky, tmp_path, mini_campaign):
        catalog, db, index = sky
        report2 = run_campaign(40, [1e4, 1e7], 424242, cfg, catalog, db, index, solar_system())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scenarios_csv(mini_campaign.records, p1)
        write_scenarios_csv(report2.records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_aggregate_counts_consistent(self, mini_campaign):
        row = aggregate(mini_campaign.records, 1e4)
        assert row.n_scenarios == 40
        assert 0 <= row.n_converged <= row.n_planet_present
        assert row.n_correct_detection <= row.n_converged


def test_clean_scene_pointing_error_subarcsecond(camera, cfg, sky):
    # noise-free rendering of catalog stars only: the final attitude's
    # boresight must agree with truth to better than an arcsecond
    from opnav.geometry import RAD_TO_ARCSEC
    from opnav.harness import pointing_error_rad, solve_attitude
    from opnav.renderer import SceneSpec, render

    catalog, db, index = sky
    rng = np.random.default_rng(55)
    checked = 0
    for k in range(10):
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
            seed=k,
        )
        image, _ = render(scene)
        out = solve_attitude(
            image.data, camera, catalog, db, index, cfg.identify_config(), cfg.ransac_config(k)
        )
        if out.solution is None:
            continue
        err = pointing_error_rad(
            out.solution.matrix, attitude_from_axis_azimuth(pointing)
        )
        assert err * RAD_TO_ARCSEC < 1.0
        checked += 1
    assert checked >= 8


def test_spikes_and_inliers_partition_the_centroids(camera, cfg, sky):
    # the README scene: RANSAC rejects matched centroid 8; injected
    # artifacts and stars fainter than the onboard catalog are unmatched
    from opnav.harness import solve_attitude
    from opnav.renderer import render

    catalog, db, index = sky
    rng = np.random.default_rng(56)
    poses = [(PointingAngles(0.7, 0.21, 1.01), ())]
    for _ in range(5):
        pointing = PointingAngles(rng.uniform(0, 2 * math.pi), rng.uniform(-0.6, 0.6), rng.uniform(0, 2 * math.pi))
        poses.append((pointing, ((300.5, 400.2, 3000.0), (700.1, 200.7, 3000.0))))
    rejected = unmatched = 0
    for k, (pointing, artifacts) in enumerate(poses):
        scene = dataclasses.replace(cfg.scene(pointing, np.zeros(3), catalog, (), 5 + k), extra_sources=artifacts)
        image, _ = render(scene)
        out = solve_attitude(image.data, camera, catalog, db, index, cfg.identify_config(), cfg.ransac_config(k))
        inliers, spikes = out.solution.inlier_centroids, out.spike_centroids
        assert sorted(inliers + spikes) == list(range(len(out.retry.centroids)))
        assert list(spikes) == sorted(spikes) and all(type(i) is int for i in spikes)
        matched = {m.centroid_index for m in out.retry.result.matches}
        assert set(inliers) <= matched
        rejected += bool(matched - set(inliers))
        unmatched += len(out.retry.centroids) > len(matched)
    assert rejected >= 1 and unmatched >= 5


def test_render_cutoff_must_cover_catalog_limit(sky):
    catalog, db, index = sky
    cfg = PipelineConfig()
    cfg.render_mag_cutoff = 5.0  # below the 5.5 catalog limit
    with pytest.raises(ValueError, match="render_mag_cutoff"):
        run_campaign(2, [1e4], 1, cfg, catalog, db, index, solar_system())


def test_repeated_sigma_r_rejected_before_sampling(sky, monkeypatch):
    """aggregate() selects records by sigma_r value, so a repeated value
    would count every one of its scenarios twice."""
    from opnav import harness

    def no_sampling(*args):
        raise AssertionError("scenarios sampled")

    monkeypatch.setattr(harness, "sample_scenarios", no_sampling)
    catalog, db, index = sky
    with pytest.raises(ValueError, match=r"^sigma_r 100000\.0 km is listed more than once$"):
        run_campaign(2, [1e4, 1e5, 1e6, 100000], 3, PipelineConfig(), catalog, db, index, solar_system())


def test_frozen_campaign_digest(sky, tmp_path):
    """The campaign CSVs of a fixed seed, byte for byte; any change to
    them must be a deliberate, announced one."""
    catalog, db, index = sky
    report = run_campaign(10, [1e4, 1e5, 1e6, 1e7], 20220209, PipelineConfig(), catalog, db, index, solar_system())
    write_scenarios_csv(report.records, tmp_path / "scenarios.csv")
    write_pdf_errors_csv(report.records, tmp_path / "pdf_errors.csv")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("scenarios.csv", "pdf_errors.csv")
    }
    assert digests == {
        "scenarios.csv": "66b1a3019b5871d513286925a1a5912b838136ce5b59dc19aeea2c6ca2b8c726",
        "pdf_errors.csv": "6c441de9fd81f914334b119f145526aad41eea9ba5018011418d855ebe2456c6",
    }


def test_attitude_scored_once_per_scenario(sky, monkeypatch):
    """Only the beacon gate and label depend on sigma_r: the rotation and
    pointing errors and the primary planet are computed once per scenario,
    and the whole sweep is one stacked beacon pass per scenario."""
    from opnav import harness

    catalog, db, index = sky
    calls = {
        "rotation_error_rad": 0, "pointing_error_rad": 0, "primary_planet": 0,
        "detect_beacons": 0, "predict_projections": 0,
    }
    for name in calls:
        def counted(*args, _name=name, _real=getattr(harness, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(harness, name, counted)
    report = run_campaign(3, [1e4, 1e5, 1e6, 1e7], 20220209, PipelineConfig(), catalog, db, index, solar_system())
    assert len(report.records) == 12
    assert all(r.outcome.attitude_status != "none" for r in report.records)
    # every scenario has a solution, so each makes one predict_projections call
    assert calls == {
        "rotation_error_rad": 3, "pointing_error_rad": 3, "primary_planet": 3,
        "detect_beacons": 3, "predict_projections": 3,
    }


def _fields_by_bits(record: ScenarioRecord) -> list:
    """Every field of a record, its outcome's fields in its place, with
    each float as its 64 bits."""
    values = []
    for value in dataclasses.astuple(record):
        values += value if isinstance(value, tuple) else [value]
    return [np.float64(v).view(np.int64).item() if isinstance(v, float) else v for v in values]


def test_sweep_rows_independent_of_the_other_sigma_r(sky):
    """The stacked beacon pass mixes no rows: each sigma_r's records of a
    four-value sweep, and of the reversed sweep, equal those of a campaign
    at that sigma_r alone, every field, floats by their bits."""
    catalog, db, index = sky
    sweep = [1e4, 1e5, 1e6, 1e7]

    def by_sigma_r(sigma_r_list):
        # seed 26 has an unsolved scenario, detections, and a planet whose
        # expected projection leaves the frame at 1e7 km (1.I -> 1.III.D)
        report = run_campaign(6, sigma_r_list, 26, PipelineConfig(), catalog, db, index, solar_system())
        out = {}
        for r in report.records:
            out.setdefault(r.sigma_r_km, []).append(_fields_by_bits(r))
        return out

    alone = {}
    for s in sweep:
        alone.update(by_sigma_r([s]))
    assert by_sigma_r(sweep) == alone
    assert by_sigma_r(sweep[::-1]) == alone
    label = CSV_HEADER.split(",").index("label")
    assert len({tuple(row[label] for row in alone[s]) for s in sweep}) > 1


def test_zero_uncertainty_noiseless_campaign_has_no_failures(sky):
    # with exact knowledge and no noise the floored gate always contains
    # the planet spike
    catalog, db, index = sky
    cfg = PipelineConfig()
    cfg.sigma_qv = 0.0
    cfg.background_mean_dn = 0.0
    cfg.background_sigma_dn = 0.0
    cfg.photon_noise = False
    report = run_campaign(30, [0.0], 777, cfg, catalog, db, index, solar_system())
    row = report.rows[0]
    if row.n_converged:
        assert row.pct_beacon_fail_right_att == 0.0


# --- config file -------------------------------------------------------------


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = PipelineConfig()
        cfg.threshold_t = 25.0
        cfg.photon_noise = False
        cfg.ransac_samples = 33
        path = tmp_path / "pipeline.cfg"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key=1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_bad_value_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# comment\nthreshold_t=25\nthreshold_max_iterations=1e3\n")
        expected = f"{path} line 3: threshold_max_iterations expects int, got '1e3'"
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == expected

    @pytest.mark.parametrize("text, value", [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                                             ("0", False), ("false", False), ("NO", False), ("Off", False)])
    def test_bool_spellings(self, tmp_path, text, value):
        path = tmp_path / "pipeline.cfg"
        path.write_text(f"photon_noise={text}\n")
        assert load_config(path).photon_noise is value

    @pytest.mark.parametrize("value", ["0", "0.0", "-0.5"])
    def test_nonpositive_defocus_rejected(self, tmp_path, value):
        # a zero-width PSF has no central-pixel fraction to anchor the photometry on
        path = tmp_path / "pipeline.cfg"
        path.write_text(f"defocus_sigma_px={value}\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == "defocus_sigma_px must be > 0"

    @pytest.mark.parametrize(
        "lines, reason",
        [
            ("image_width=64\ndefocus_sigma_px=7.75\n", None),  # 2 * 31 + 1 = 63 px fits
            ("image_width=64\ndefocus_sigma_px=7.76\n", "7.76 gives a 65 px PSF box, wider than the 64 px frame"),
            # the smaller side bounds the box
            ("image_height=64\ndefocus_sigma_px=8\n", "8.0 gives a 65 px PSF box, wider than the 64 px frame"),
            ("defocus_sigma_px=127.5\n", None),  # 1021 px on the default 1024 x 1024 frame
            ("defocus_sigma_px=128\n", "128.0 gives a 1025 px PSF box, wider than the 1024 px frame"),
            ("defocus_sigma_px=1.7e308\n", "1.7e+308 gives a inf px PSF box, wider than the 1024 px frame"),
        ],
        ids=["fits_64", "wide_64", "tall_64", "fits_1024", "wide_1024", "box_overflows"],
    )
    def test_psf_wider_than_frame_rejected(self, tmp_path, lines, reason):
        path = tmp_path / "pipeline.cfg"
        path.write_text(lines)
        if reason is None:
            load_config(path)
            return
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"defocus_sigma_px {reason}"

    @pytest.mark.parametrize("samples, ok", [(1, True), (33, True), (MAX_RANSAC_SAMPLES, True),
                                             (MAX_RANSAC_SAMPLES + 1, False)])
    def test_ransac_samples_cap(self, samples, ok):
        # the extreme values are only validated, never run
        cfg = PipelineConfig(ransac_samples=samples)
        if ok:
            cfg.validate()
            return
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert str(info.value) == (
            f"ransac_samples must be <= {MAX_RANSAC_SAMPLES}: consensus scoring compares every pair of samples"
        )

    @pytest.mark.parametrize("stars, ok", [(1, True), (9000, True), (MAX_SKY_STARS, True),
                                           (MAX_SKY_STARS + 1, False), (10**7, False)])
    def test_sky_star_count_cap(self, stars, ok):
        # validated only: no sky of that size is drawn
        cfg = PipelineConfig(sky_star_count=stars)
        if ok:
            cfg.validate()
            return
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert str(info.value) == (
            f"sky_star_count must be <= {MAX_SKY_STARS}: the pair table may hold "
            f"up to {stars} * {stars - 1} / 2 = {stars * (stars - 1) // 2:,} pairs"
        )

    @pytest.mark.parametrize(
        "width, height, ok",
        [
            (1024, 1024, True),
            (8192, 8192, True),
            (2**23, 8, True),
            (8, 2**23, True),
            (8193, 8192, False),
            (2**23 + 1, 8, False),
            (10**6, 10**6, False),
        ],
    )
    def test_frame_pixel_cap(self, width, height, ok):
        # validated only: no frame of that size is allocated
        assert MAX_FRAME_PIXELS == 2**26
        cfg = PipelineConfig(image_width=width, image_height=height, defocus_sigma_px=0.1)
        if ok:
            cfg.validate()
            return
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert str(info.value) == (
            f"image_width * image_height must be <= {MAX_FRAME_PIXELS}: {width} x {height} = {width * height:,} pixels"
        )

    @pytest.mark.parametrize("text", ["ture", "", "2", "y"])
    def test_unknown_bool_rejected(self, tmp_path, text):
        path = tmp_path / "pipeline.cfg"
        path.write_text(f"threshold_t=25\nphoton_noise={text}\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path} line 2: photon_noise expects bool, got '{text}'"

    def test_defaults_match_reference_setup(self):
        cfg = PipelineConfig()
        assert cfg.fov_deg == 20.0
        assert (cfg.image_width, cfg.image_height) == (1024, 1024)
        assert cfg.focal_length_mm == 40.0
        assert cfg.f_number == 2.2
        assert cfg.exposure_ms == 400.0
        assert cfg.qe_tlens == 0.49
        assert cfg.defocus_sigma_px == 0.9
        assert cfg.threshold_t == 20.0
        assert cfg.kvector_epsilon_arcsec == 7.0
        assert cfg.mag_limit == 5.5
        assert cfg.max_pair_angle_deg == 35.0
        assert cfg.ransac_samples == 20
        assert cfg.ransac_threshold_arcsec == 15.0
        assert cfg.sigma_qv == 1e-4
        assert cfg.sigma_rbc_km == 0.0


# --- CLI ---------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "opnav.cli", *args], capture_output=True, text=True
    )


# The README commands at the default config; the .npz entries carry a
# fixed 1980 date, so every output is reproducible byte for byte.
README_SCENE_SHA256 = {
    "catalog.csv": "f0bb2c129f9557de2421499ef93bfc987b1b6dcc2910f4854c3a9d400d1c118b",
    "planets.csv": "a278447ce32b00cf4397a7cb31095505ecfb350e1a285ee821b3e61a73f6e592",
    "onboard.npz": "05cb69de868cbca5d38a3be1dc4c96b3ee42331d8f63032dfcfb2ab96e84fad3",
    "frame.pgm": "b839a90ee006e84083e3927a53cbcafa5df6b84197bcc9edbe91b0313c0f037a",
    "frame_truth.csv": "1a0f87909a6ff9a375fb1b681025a2ad122405d89b9961379c8e6aca39446bfa",
    "process stdout": "2a652f9c6a8a4c3ede575f66856c3d396e0aecc1596d26672c2ae482c4eea1b0",
}


class TestCli:
    @pytest.mark.parametrize(
        "sky, sha256",
        [(dict(sky_star_count=1100, sky_mag_faint=4.0, sky_mag_bright=0.0), None), (None, README_SCENE_SHA256)],
        ids=["small_sky", "readme_scene"],
    )
    def test_full_flow(self, tmp_path, sky, sha256):
        cfgfile = tmp_path / "pipeline.cfg"
        if sky is None:  # default config: no --config, no scene config line, an empty pipeline.cfg
            cfgfile.write_text("")
            config_args, config_line = [], ""
        else:
            save_config(dataclasses.replace(PipelineConfig(), **sky), cfgfile)
            config_args, config_line = ["--config", str(cfgfile)], f"config={cfgfile}\n"
        path_catalog = tmp_path / "catalog.csv"
        path_eph = tmp_path / "planets.csv"

        r = _cli("synth-sky", "--catalog-out", str(path_catalog), "--ephemeris-out", str(path_eph), *config_args)
        assert r.returncode == 0, r.stderr

        db = tmp_path / "onboard.npz"
        r = _cli("build-catalog", "--in", str(path_catalog), "--out", str(db), "--mlim", "5.5", "--gamma-max-deg", "35")
        assert r.returncode == 0, r.stderr

        scene = tmp_path / "scene.cfg"
        scene.write_text(
            f"{config_line}catalog={path_catalog}\nephemeris={path_eph}\n"
            "alpha_rad=0.7\ndelta_rad=0.21\nphi_rad=1.01\n"
            "sc_x_km=0\nsc_y_km=0\nsc_z_km=0\nseed=5\n"
        )
        pgm = tmp_path / "frame.pgm"
        truth = tmp_path / "frame_truth.csv"
        r = _cli("render", "--scene", str(scene), "--out", str(pgm), "--truth", str(truth))
        assert r.returncode == 0, r.stderr
        assert pgm.exists() and truth.exists()

        r = _cli(
            "process", "--image", str(pgm), "--db", str(db), "--config", str(cfgfile),
            "--catalog", str(path_catalog), "--ephemeris", str(path_eph),
            "--sc-pos", "0,0,0", "--sigma-r", "1e5",
        )
        assert r.returncode == 0, r.stderr
        assert "attitude quaternion" in r.stdout
        assert "beacon" in r.stdout
        if sha256 is not None:
            outputs = {name: (tmp_path / name).read_bytes() for name in sha256 if name != "process stdout"}
            outputs["process stdout"] = r.stdout.encode()
            assert {name: hashlib.sha256(b).hexdigest() for name, b in outputs.items()} == sha256

    def test_render_rejects_unknown_scene_key(self, tmp_path):
        scene = tmp_path / "scene.cfg"
        scene.write_text(
            f"catalog={tmp_path / 'catalog.csv'}\nalpha_rad=0.7\ndelta_rad=0.21\n"
            "phi_rad=1.01\n# a typo must not render at the default cutoff\nmag_cuttoff=5.0\n"
        )
        r = _cli("render", "--scene", str(scene), "--out", str(tmp_path / "f.pgm"), "--truth", str(tmp_path / "t.csv"))
        assert r.returncode == 1
        assert r.stderr == f"error: {scene} line 6: unknown scene key 'mag_cuttoff'\n"
        assert not (tmp_path / "f.pgm").exists()

    def test_render_rejects_missing_scene_key(self, tmp_path):
        scene = tmp_path / "scene.cfg"
        scene.write_text(f"catalog={tmp_path / 'catalog.csv'}\nalpha_rad=0.7\ndelta_rad=0.21\n")
        r = _cli("render", "--scene", str(scene), "--out", str(tmp_path / "f.pgm"), "--truth", str(tmp_path / "t.csv"))
        assert r.returncode == 1
        assert r.stderr == f"error: {scene}: missing scene key(s) phi_rad\n"

    @pytest.mark.parametrize(
        "line, expected",
        [("alpha_rad=0.7rad", "alpha_rad expects float, got '0.7rad'"), ("seed=5.0", "seed expects int, got '5.0'")],
    )
    def test_render_rejects_bad_scene_value_before_loading_catalog(self, tmp_path, line, expected):
        scene = tmp_path / "scene.cfg"
        # the catalog does not exist: the value must be rejected before it is read
        scene.write_text(f"catalog={tmp_path / 'missing.csv'}\ndelta_rad=0.21\nphi_rad=1.01\n{line}\nalpha_rad=0.7\n")
        r = _cli("render", "--scene", str(scene), "--out", str(tmp_path / "f.pgm"), "--truth", str(tmp_path / "t.csv"))
        assert r.returncode == 1
        assert r.stderr == f"error: {scene} line 4: {expected}\n"

    @pytest.mark.parametrize("key", ["alpha_rad", "phi_rad", "sc_x_km", "mag_cutoff"])
    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_render_rejects_non_finite_scene_value(self, tmp_path, key, text):
        # a NaN pose rendered an empty frame and a NaN cutoff or position
        # dropped every star or planet, each with exit 0
        catalog = tmp_path / "catalog.csv"
        save_catalog(catalog_from_records(DESK_STARS), catalog)
        values = {"catalog": catalog, "alpha_rad": 0.7, "delta_rad": 0.21, "phi_rad": 1.01, key: text}
        scene = tmp_path / "scene.cfg"
        scene.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        r = _cli("render", "--scene", str(scene), "--out", str(tmp_path / "f.pgm"), "--truth", str(tmp_path / "t.csv"))
        assert r.returncode == 1
        lineno = list(values).index(key) + 1
        assert r.stderr == f"error: {scene} line {lineno}: {key} must be finite, got '{text}'\n"
        assert not (tmp_path / "f.pgm").exists()

    @pytest.mark.parametrize("kind", ["scene", "config", "catalog", "ephemeris"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, kind):
        catalog, eph, cfg = tmp_path / "catalog.csv", tmp_path / "planets.csv", tmp_path / "pipeline.cfg"
        save_catalog(catalog_from_records(DESK_STARS), catalog)
        save_ephemeris({"t0": solar_system()}, eph)
        cfg.write_text("# defaults\n")
        scene = tmp_path / "scene.cfg"
        scene.write_text(f"catalog={catalog}\nephemeris={eph}\nconfig={cfg}\nalpha_rad=0.7\ndelta_rad=0.21\nphi_rad=1.01\n")
        bad = {"scene": scene, "config": cfg, "catalog": catalog, "ephemeris": eph}[kind]
        lines = bad.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:1]) + b"# caf\xe9\n" + b"".join(lines[1:]))  # Latin-1, not UTF-8
        r = _cli("render", "--scene", str(scene), "--out", str(tmp_path / "f.pgm"), "--truth", str(tmp_path / "t.csv"))
        assert r.returncode == 1
        assert r.stderr == f"error: {bad} line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"

    @pytest.mark.parametrize("cutoff_line, stars", [("", {1, 2, 3, 4, 5, 6}), ("mag_cutoff=2.2\n", {1, 2, 4})])
    def test_render_scene_mag_cutoff(self, tmp_path, cutoff_line, stars):
        catalog = tmp_path / "catalog.csv"
        save_catalog(catalog_from_records(DESK_STARS), catalog)
        scene = tmp_path / "scene.cfg"
        scene.write_text(f"catalog={catalog}\nalpha_rad=0.7\ndelta_rad=0.21\nphi_rad=1.01\n{cutoff_line}")
        truth = tmp_path / "t.csv"
        r = _cli("render", "--scene", str(scene), "--out", str(tmp_path / "f.pgm"), "--truth", str(truth))
        assert r.returncode == 0, r.stderr
        assert {int(o.ident) for o in read_truth(truth).objects if o.kind == "star"} == stars

    def test_render_rejects_non_finite_planet_magnitude(self, tmp_path):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("1,0,0,1.0\n")
        eph = tmp_path / "planets.csv"
        eph.write_text("# name,epoch,x_km,y_km,z_km,app_mag\nmars,t0,2.2e8,0,0,nan\n")
        scene = tmp_path / "scene.cfg"
        scene.write_text(f"catalog={catalog}\nephemeris={eph}\nalpha_rad=0\ndelta_rad=0\nphi_rad=0\n")
        r = _cli("render", "--scene", str(scene), "--out", str(tmp_path / "f.pgm"), "--truth", str(tmp_path / "t.csv"))
        assert r.returncode == 1
        assert r.stderr == f"error: {eph} line 2: magnitude nan of mars is not finite\n"
        assert not (tmp_path / "f.pgm").exists()

    def test_montecarlo_outputs(self, tmp_path):
        out = tmp_path / "mc"
        cfgfile = tmp_path / "small.cfg"
        cfg = PipelineConfig()
        cfg.sky_star_count = 1200
        cfg.sky_mag_faint = 5.2
        cfg.sky_mag_bright = 0.0
        save_config(cfg, cfgfile)
        r = _cli(
            "montecarlo", "--n", "6", "--sigma-r", "1e4,1e7", "--seed", "3",
            "--out", str(out), "--config", str(cfgfile),
        )
        assert r.returncode == 0, r.stderr
        for name in ("scenarios.csv", "pdf_errors.csv", "report.txt", "config.used"):
            assert (out / name).exists()
        lines = (out / "scenarios.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 2

    def test_montecarlo_catalog_file_is_the_in_memory_sky(self, tmp_path):
        # the sky montecarlo builds from the config is the sky synth-sky writes
        catalog = tmp_path / "catalog.csv"
        r = _cli("synth-sky", "--catalog-out", str(catalog))
        assert r.returncode == 0, r.stderr
        common = ("montecarlo", "--n", "40", "--sigma-r", "1e4,1e7", "--seed", "7")
        r = _cli(*common, "--out", str(tmp_path / "memory"))
        assert r.returncode == 0, r.stderr
        r = _cli(*common, "--out", str(tmp_path / "file"), "--catalog", str(catalog))
        assert r.returncode == 0, r.stderr
        for name in ("scenarios.csv", "pdf_errors.csv"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "memory" / name).read_bytes()

    def test_ephemeris_file_matches_builtin_snapshot(self, tmp_path):
        # synth-sky writes 1 AU magnitudes; montecarlo rescales them per
        # scenario exactly as it does the built-in planets
        eph = tmp_path / "planets.csv"
        r = _cli("synth-sky", "--catalog-out", str(tmp_path / "catalog.csv"), "--ephemeris-out", str(eph))
        assert r.returncode == 0, r.stderr
        common = ("montecarlo", "--n", "4", "--sigma-r", "1e4,1e7", "--seed", "1")
        r = _cli(*common, "--out", str(tmp_path / "builtin"))
        assert r.returncode == 0, r.stderr
        r = _cli(*common, "--out", str(tmp_path / "file"), "--ephemeris", str(eph))
        assert r.returncode == 0, r.stderr
        builtin = (tmp_path / "builtin" / "scenarios.csv").read_bytes()
        assert (tmp_path / "file" / "scenarios.csv").read_bytes() == builtin

    def test_montecarlo_zero_delta_max_fails_fast(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("delta_max_rad=0\nsky_star_count=200\n")
        r = subprocess.run(
            [sys.executable, "-m", "opnav.cli", "montecarlo", "--n", "2", "--sigma-r", "1e4",
             "--seed", "1", "--out", str(tmp_path / "mc"), "--config", str(cfgfile)],
            capture_output=True, text=True, timeout=60,
        )
        assert r.returncode == 1
        assert r.stderr == "error: delta_max_rad must be > 0\n"

    @pytest.mark.parametrize(
        "line, reason",
        [
            # a non-positive size, FOV, exposure or sample count
            ("fov_deg=0", "fov_deg must be > 0"),
            ("exposure_ms=-5", "exposure_ms must be > 0"),
            ("defocus_sigma_px=0", "defocus_sigma_px must be > 0"),  # no PSF to anchor the photometry on
            ("fov_deg=180", "fov_deg must be < 180"),
            ("background_sigma_dn=-1", "background_sigma_dn must be >= 0"),  # a negative sigma
            ("threshold_max_iterations=0", "threshold_max_iterations must be >= 1"),
            ("render_mag_cutoff=5.0", "render_mag_cutoff must be >= mag_limit"),
            # an infinite value in POSITIVE_FIELDS or NON_NEGATIVE_FIELDS
            ("exposure_ms=inf", "exposure_ms must be finite"),
            ("fov_deg=inf", "fov_deg must be finite"),
            ("delta_max_rad=inf", "delta_max_rad must be finite"),
            ("background_sigma_dn=inf", "background_sigma_dn must be finite"),
            ("sigma_x_au=inf", "sigma_x_au must be finite"),
            ("defocus_sigma_px=inf", "defocus_sigma_px must be finite"),
            # a NaN or infinite value in any other float field
            ("wrong_beacon_px=nan", "wrong_beacon_px must be finite"),
            ("threshold_t=nan", "threshold_t must be finite"),
            ("anchor_mag=inf", "anchor_mag must be finite"),
            ("render_mag_cutoff=nan", "render_mag_cutoff must be finite"),
            # a bool that is not 1/0, true/false, yes/no or on/off
            ("photon_noise=ture", "{cfg} line 2: photon_noise expects bool, got 'ture'"),
            # more RANSAC samples than their pairwise agreement matrix may hold
            (
                "ransac_samples=1025",
                "ransac_samples must be <= 1024: consensus scoring compares every pair of samples",
            ),
            # a sky whose pair table could hold 5e13 pairs; never drawn
            (
                "sky_star_count=10000000",
                "sky_star_count must be <= 10000: the pair table may hold "
                "up to 10000000 * 9999999 / 2 = 49,999,995,000,000 pairs",
            ),
            # a 1 TB frame; never rendered
            (
                "image_width=1000000\nimage_height=1000000",
                "image_width * image_height must be <= 67108864: 1000000 x 1000000 = 1,000,000,000,000 pixels",
            ),
            # a 4-sigma PSF box wider than the frame; at 1e17 px the photometry divided by zero
            ("defocus_sigma_px=300", "defocus_sigma_px 300.0 gives a 2401 px PSF box, wider than the 1024 px frame"),
            (
                "defocus_sigma_px=1e17",
                "defocus_sigma_px 1e+17 gives a 800000000000000001 px PSF box, wider than the 1024 px frame",
            ),
            # no floor under a zero budget: at sigma_r 0 the gate would invert a zero covariance
            ("sigma_qv=0\nellipse_floor_px=0", "ellipse_floor_px must be > 0"),
        ],
        ids=[
            "fov", "exposure", "zero_defocus", "fov_wide", "sigma", "iterations", "cutoff",
            "inf_exposure", "inf_fov", "inf_delta_max", "inf_background_sigma", "inf_sigma_x", "inf_defocus",
            "nan_wrong_beacon", "nan_threshold_t", "inf_anchor_mag", "nan_cutoff", "bool_typo",
            "ransac_samples_cap", "sky_star_count_cap", "frame_pixel_cap", "wide_defocus", "huge_defocus",
            "zero_floor",
        ],
    )
    def test_montecarlo_rejects_out_of_range_config(self, tmp_path, line, reason):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"sky_star_count=200\n{line}\n")
        r = _cli(
            "montecarlo", "--n", "2", "--sigma-r", "1e4", "--seed", "1",
            "--out", str(tmp_path / "mc"), "--config", str(cfgfile),
        )
        assert r.returncode == 1
        assert r.stderr.startswith(f"error: {reason.format(cfg=cfgfile)}") and r.stderr.count("\n") == 1
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("command", ["montecarlo", "process"])
    def test_non_finite_catalog_value_fails_fast(self, tmp_path, command):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("1,0,0,1.0\n2,nan,10,2.0\n")
        if command == "montecarlo":
            args = ("montecarlo", "--n", "2", "--sigma-r", "1e4", "--seed", "1", "--out", str(tmp_path / "mc"))
        else:
            cfgfile = tmp_path / "camera.cfg"
            save_config(PipelineConfig(), cfgfile)
            pgm = tmp_path / "frame.pgm"
            write_pgm(Image(np.zeros((1024, 1024), dtype=np.uint8)), pgm)
            db = tmp_path / "onboard.npz"  # never read: the catalog fails first
            args = ("process", "--image", str(pgm), "--db", str(db), "--config", str(cfgfile))
        r = _cli(*args, "--catalog", str(catalog))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"error: {catalog} line 2: right ascension nan is not finite\n"

    def test_process_rejects_mis_sized_image(self, tmp_path, desk_catalog, desk_db):
        cfgfile = tmp_path / "camera.cfg"
        save_config(PipelineConfig(), cfgfile)  # 1024 x 1024 camera
        catalog = tmp_path / "catalog.csv"
        save_catalog(desk_catalog, catalog)
        db = tmp_path / "onboard.npz"
        save_pair_database(desk_db[0], db)
        pgm = tmp_path / "small.pgm"
        write_pgm(Image(np.zeros((480, 640), dtype=np.uint8)), pgm)
        r = _cli(
            "process", "--image", str(pgm), "--db", str(db), "--config", str(cfgfile),
            "--catalog", str(catalog),
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"error: {pgm}: image is 640x480 px, the camera config expects 1024x1024\n"

    def test_process_rejects_malformed_pgm(self, tmp_path):
        cfgfile = tmp_path / "camera.cfg"
        save_config(PipelineConfig(), cfgfile)
        pgm = tmp_path / "bad.pgm"
        pgm.write_bytes(b"P5\nab 3\n255\n" + bytes(6))
        # the image is read before the catalog and the database, which do not exist
        r = _cli(
            "process", "--image", str(pgm), "--db", str(tmp_path / "onboard.npz"), "--config", str(cfgfile),
            "--catalog", str(tmp_path / "catalog.csv"),
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith(f"error: {pgm}: malformed or truncated PGM header")
        assert r.stderr.count("\n") == 1

    def test_process_rejects_db_from_another_catalog(self, tmp_path, desk_catalog, desk_db):
        cfgfile = tmp_path / "camera.cfg"
        save_config(PipelineConfig(), cfgfile)
        db = tmp_path / "onboard.npz"
        save_pair_database(desk_db[0], db)
        # the same stars renumbered: star 2 is now star 20
        catalog = tmp_path / "renumbered.csv"
        save_catalog(
            catalog_from_records((20 if row[0] == 2 else row[0], *row[1:]) for row in DESK_STARS),
            catalog,
        )
        pgm = tmp_path / "frame.pgm"
        write_pgm(Image(np.zeros((1024, 1024), dtype=np.uint8)), pgm)
        r = _cli(
            "process", "--image", str(pgm), "--db", str(db), "--config", str(cfgfile),
            "--catalog", str(catalog),
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"error: {db} does not match {catalog}: star id 2 is not in the catalog\n"

    def test_process_rejects_db_with_a_moved_star(self, tmp_path, desk_db):
        cfgfile = tmp_path / "camera.cfg"
        save_config(PipelineConfig(), cfgfile)
        db_path = tmp_path / "onboard.npz"
        save_pair_database(desk_db[0], db_path)
        # the same ids, but star 3 is 1 arcsec further east than the database has it
        catalog = tmp_path / "moved.csv"
        arcsec = math.radians(1.0 / 3600.0)
        save_catalog(
            catalog_from_records((i, ra + arcsec if i == 3 else ra, dec, m) for i, ra, dec, m in DESK_STARS),
            catalog,
        )
        pgm = tmp_path / "frame.pgm"
        write_pgm(Image(np.zeros((1024, 1024), dtype=np.uint8)), pgm)
        r = _cli(
            "process", "--image", str(pgm), "--db", str(db_path), "--config", str(cfgfile),
            "--catalog", str(catalog),
        )
        db = desk_db[0]
        k = int(np.flatnonzero((db.star_i == 3) | (db.star_j == 3))[0])
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith(
            f"error: {db_path} does not match {catalog}: pair {k} (stars {db.star_i[k]}, {db.star_j[k]}): "
            f"stored cosine {float(db.cos_angles[k])!r}, the catalog gives "
        )
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("sigma_r", ["nan,1e5", "inf"], ids=["nan", "inf"])
    def test_montecarlo_rejects_non_finite_sigma_r(self, tmp_path, sigma_r):
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text("sky_star_count=300\n")
        r = _cli(
            "montecarlo", "--n", "2", "--sigma-r", sigma_r, "--seed", "1",
            "--out", str(tmp_path / "mc"), "--config", str(cfgfile),
        )
        assert r.returncode == 1
        assert r.stderr == f"error: sigma_r_km must be finite and >= 0, got {sigma_r.split(',')[0]}\n"
        assert not (tmp_path / "mc").exists()

    def test_montecarlo_names_sigma_r_that_does_not_parse(self, tmp_path):
        r = _cli("montecarlo", "--n", "2", "--sigma-r", "1e4,abc", "--seed", "1", "--out", str(tmp_path / "mc"))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: --sigma-r expects comma-separated numbers in km, got '1e4,abc'\n"
        assert not (tmp_path / "mc").exists()

    def test_montecarlo_rejects_repeated_sigma_r(self, tmp_path):
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text("sky_star_count=300\n")
        r = _cli(
            "montecarlo", "--n", "2", "--sigma-r", "1e5,1e5", "--seed", "3",
            "--out", str(tmp_path / "mc"), "--config", str(cfgfile),
        )
        assert r.returncode == 1
        assert r.stderr == "error: sigma_r 100000.0 km is listed more than once\n"
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["--sc-pos", "0,0,0", "--sigma-r", "nan"], "sigma_r_km must be finite and >= 0, got nan"),
            (["--sc-pos", "0,0"], "--sc-pos expects three finite numbers 'x,y,z' in km, got '0,0'"),
            (["--sc-pos", "nan,0,0"], "--sc-pos expects three finite numbers 'x,y,z' in km, got 'nan,0,0'"),
            (["--sc-pos", "0,0,0"], "[Errno 2] No such file or directory: '{tmp}/planets.csv'"),
        ],
        ids=["sigma_r_nan", "sc_pos_two_numbers", "sc_pos_nan", "ephemeris_missing"],
    )
    def test_process_rejects_bad_beacon_input_before_reading_the_image(self, tmp_path, args, reason):
        cfgfile = tmp_path / "pipeline.cfg"
        cfgfile.write_text("")
        # none of the input files exist: the arguments are checked first
        r = _cli(
            "process", "--image", str(tmp_path / "frame.pgm"), "--db", str(tmp_path / "onboard.npz"),
            "--config", str(cfgfile), "--catalog", str(tmp_path / "catalog.csv"),
            "--ephemeris", str(tmp_path / "planets.csv"), *args,
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"error: {reason.format(tmp=tmp_path)}\n"

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["process", "--sigma-r", "abc"], "--sigma-r expects a number, got 'abc'"),
            (["montecarlo", "--n", "abc", "--seed", "1", "--sigma-r", "1e4"], "--n expects an integer, got 'abc'"),
            (["montecarlo", "--n", "2", "--seed", "1.5", "--sigma-r", "1e4"], "--seed expects an integer, got '1.5'"),
            (["montecarlo", "--n", "2", "--seed", "-1", "--sigma-r", "1e4"],
             "--seed expects a non-negative integer, got '-1'"),
            (["build-catalog", "--mlim", "5.5x"], "--mlim expects a number, got '5.5x'"),
            (["build-catalog", "--gamma-max-deg", ""], "--gamma-max-deg expects a number, got ''"),
        ],
        ids=["process_sigma_r", "montecarlo_n", "montecarlo_seed", "montecarlo_negative_seed", "build_catalog_mlim",
             "build_catalog_gamma_max_deg"],
    )
    def test_numeric_flag_that_does_not_parse_is_one_line(self, tmp_path, args, reason):
        """A numeric flag is checked before any file is read: none of these
        inputs exist."""
        files = {
            "process": ["--image", "frame.pgm", "--db", "onboard.npz", "--config", "pipeline.cfg", "--catalog", "catalog.csv"],
            "montecarlo": ["--out", "mc"],
            "build-catalog": ["--in", "catalog.csv", "--out", "onboard.npz"],
        }[args[0]]
        paths = [str(tmp_path / a) if k % 2 else a for k, a in enumerate(files)]
        r = _cli(*args, *paths)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"error: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["process", "--image", "x.pgm"], "opnav process: the following arguments are required: --db, --config, --catalog"),
            (["synth-sky", "--catalog-out", "c.csv", "--bogus"], "opnav: unrecognized arguments: --bogus"),
            (["bogus"], "opnav: argument {build-catalog,synth-sky,render,process,montecarlo}: invalid choice: 'bogus'"),
        ],
        ids=["missing_required_flag", "unknown_flag", "unknown_subcommand"],
    )
    def test_usage_error_is_one_line(self, args, reason):
        r = _cli(*args)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith(f"error: {reason}") and r.stderr.count("\n") == 1

    def test_help_exits_zero(self):
        r = _cli("process", "--help")
        assert r.returncode == 0 and r.stderr == ""
        assert r.stdout.startswith("usage: opnav process")

    def test_error_exit_nonzero(self, tmp_path):
        r = _cli("build-catalog", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x.npz"))
        assert r.returncode != 0
        assert "error:" in r.stderr
