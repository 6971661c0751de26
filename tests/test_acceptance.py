"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  The Monte Carlo campaign (criteria 6 and 7) runs once
per session at n=300 scenarios per sigma_r with the default master
seed, exactly as the `montecarlo` CLI would.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from opnav.attitude_solver import principal_axis_angle, wahba_svd
from opnav.beacon_detection import (
    CHI2_GATE_3SIGMA,
    UncertaintyBudget,
    predict_projection,
    projection_jacobian,
)
from opnav.centroiding import find_centroids
from opnav.config import PipelineConfig
from opnav.geometry import Attitude, CameraModel, PointingAngles, matrix_from_quaternion, project_point
from opnav.harness import run_campaign
from opnav.renderer import SceneSpec, render
from opnav.skysim import AU_KM, solar_system
from opnav.star_catalog import PairDatabase, build_kvector, build_pair_database, kvector_range_query
from conftest import random_rotation

CAMPAIGN_SEED = 20220209
SIGMA_R_SWEEP = [1e4, 1e5, 1e6, 1e7]


def _report(num, name, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def campaign(cfg, sky):
    catalog, db, index = sky
    return run_campaign(
        300, SIGMA_R_SWEEP, CAMPAIGN_SEED, cfg, catalog, db, index, solar_system()
    )


def test_criterion_1_wahba_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        r_true = random_rotation(rng)
        n_vecs = rng.standard_normal((3, 3))
        n_vecs /= np.linalg.norm(n_vecs, axis=1, keepdims=True)
        r_est = wahba_svd(n_vecs @ r_true.T, n_vecs)
        worst = max(worst, principal_axis_angle(r_est @ r_true.T).angle)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "Wahba exactness",
        worst < 1e-10 and elapsed < 1.0,
        f"worst principal-angle error {worst:.3e} rad over 1000 noise-free solves, {elapsed:.2f} s",
    )


def test_criterion_2_kvector_oracle_equivalence():
    rng = np.random.default_rng(1002)
    cosines = np.sort(rng.uniform(math.cos(math.radians(40.0)), 1.0, 500))
    db = PairDatabase.from_ids(
        cos_angles=cosines,
        star_i=np.arange(500),
        star_j=np.arange(500) + 1000,
        mag_limit=5.5,
        max_angle_rad=math.radians(40.0),
    )
    index = build_kvector(db)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        gamma = rng.uniform(0.0, math.radians(45.0))
        eps = rng.choice([0.0, 1e-6, 3.4e-5, rng.uniform(0.0, 0.02)])
        got = kvector_range_query(index, db, gamma, eps)
        lo, hi = math.cos(gamma + eps), math.cos(gamma - eps)
        want = np.nonzero((cosines >= lo) & (cosines <= hi))[0]
        if not np.array_equal(got, want):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "k-vector oracle equivalence",
        mismatches == 0 and elapsed < 1.0,
        f"{mismatches} mismatches over 1000 queries on a 500-pair database, {elapsed:.2f} s",
    )


def test_criterion_3_jacobian_fidelity(camera):
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        q = Attitude(rng.standard_normal(4))
        sc = rng.standard_normal(3) * 2e8
        a = matrix_from_quaternion(q)
        los_c = np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15), 1.0])
        los_c /= np.linalg.norm(los_c)
        span = rng.uniform(0.3, 6.0) * AU_KM
        beacon = sc + span * (a.T @ los_c)
        f = projection_jacobian(camera, q, sc, beacon)

        x0 = np.concatenate([q.q, sc, beacon])

        def project(x):
            qq = x[:4] / np.linalg.norm(x[:4])
            return project_point(camera, matrix_from_quaternion(qq), x[4:7], x[7:10])

        fd = np.zeros((2, 10))
        for k in range(10):
            h = 1e-6 if k < 4 else 1e-6 * span
            dx = np.zeros(10)
            dx[k] = h
            fd[:, k] = (project(x0 + dx) - project(x0 - dx)) / (2 * h)
        scale = np.abs(f).max()
        rel = np.abs(fd - f) / np.maximum(np.abs(f), 1e-9 * scale)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "Jacobian fidelity",
        worst < 1e-5 and elapsed < 5.0,
        f"worst relative error {worst:.3e} over 200 configurations (2x10 entries each), {elapsed:.2f} s",
    )


def test_criterion_4_three_sigma_containment(camera):
    rng = np.random.default_rng(1004)
    budget = UncertaintyBudget(sigma_qv=1e-4, sigma_r_km=1e5, sigma_rbc_km=0.0)
    q = Attitude(np.array([0.8, -0.3, 0.4, 0.33]))
    sc = np.array([2e7, -8e7, 5e6])
    a = matrix_from_quaternion(q)
    beacon = sc + 0.9 * AU_KM * (a.T @ np.array([0.04, -0.06, 1.0]) / math.sqrt(1 + 0.04**2 + 0.06**2))
    assert np.linalg.norm(beacon - sc) >= 0.5 * AU_KM
    pred = predict_projection(camera, q, sc, beacon, budget)
    pinv = np.linalg.inv(pred.covariance)

    t0 = time.perf_counter()
    n = 10_000
    dqv = rng.normal(0.0, budget.sigma_qv, (n, 3))
    dr = rng.normal(0.0, budget.sigma_r_km, (n, 3))
    inside = 0
    for i in range(n):
        qq = q.q + np.concatenate([[0.0], dqv[i]])
        qq /= np.linalg.norm(qq)
        true_px = project_point(camera, matrix_from_quaternion(qq), sc + dr[i], beacon)
        d = true_px - pred.expected_px
        inside += (d @ pinv @ d) <= CHI2_GATE_3SIGMA
    elapsed = time.perf_counter() - t0
    rate = inside / n
    _report(
        4,
        "3-sigma containment",
        rate >= 0.985 and elapsed < 30.0,
        f"true pixel inside predicted ellipse in {rate * 100:.2f}% of {n} samples "
        f"(nominal 99.73%), {elapsed:.1f} s",
    )


def test_criterion_5_centroiding_accuracy(camera):
    from opnav.star_catalog import catalog_from_records

    rng = np.random.default_rng(1005)
    empty = catalog_from_records([])
    t0 = time.perf_counter()
    se = 0.0
    n = 100
    for _ in range(n):
        x = rng.uniform(50.0, 970.0)
        y = rng.uniform(50.0, 970.0)
        scene = SceneSpec(
            camera=camera,
            true_attitude=PointingAngles(0.0, 0.0, 0.0),
            sc_position_km=np.zeros(3),
            star_catalog=empty,
            background_mean_dn=0.0,
            background_sigma_dn=0.0,
            photon_noise=False,
            extra_sources=((x, y, 1200.0),),
        )
        image, _ = render(scene)
        cents, _, _ = find_centroids(image.data, 5.0)
        assert len(cents) == 1
        se += (cents[0, 0] - x) ** 2 + (cents[0, 1] - y) ** 2
    elapsed = time.perf_counter() - t0
    rms = math.sqrt(se / n)
    _report(
        5,
        "centroiding accuracy",
        rms < 0.02 and elapsed < 5.0,
        f"RMS position error {rms:.4f} px over {n} noiseless sub-pixel spots, {elapsed:.1f} s",
    )


def test_criterion_6_failure_rate_trend(campaign):
    rows = {row.sigma_r_km: row for row in campaign.rows}
    success = {
        s: 100.0 - rows[s].pct_wrong_attitude - rows[s].pct_no_attitude for s in SIGMA_R_SWEEP
    }
    att_ok = all(v >= 85.0 for v in success.values())
    att_independent = len({round(v, 9) for v in success.values()}) == 1
    low = max(rows[1e4].pct_beacon_fail_right_att, rows[1e5].pct_beacon_fail_right_att)
    high = rows[1e7].pct_beacon_fail_right_att
    beacon_ok = low < 2.0 and high > low
    detail = (
        f"attitude success {success[1e4]:.2f}% of {rows[1e4].n_planet_present} planet-present "
        f"scenarios (identical across sigma_r: {att_independent}); "
        f"wrong-beacon-given-right-attitude {rows[1e4].pct_beacon_fail_right_att:.2f}/"
        f"{rows[1e5].pct_beacon_fail_right_att:.2f}/{rows[1e6].pct_beacon_fail_right_att:.2f}/"
        f"{high:.2f}% for sigma_r 1e4/1e5/1e6/1e7 km; campaign {campaign.elapsed_s:.0f} s"
    )
    _report(
        6,
        "failure-rate trend vs position uncertainty",
        att_ok and att_independent and beacon_ok and campaign.elapsed_s < 600.0,
        detail,
    )


def test_criterion_7_projection_error_statistics(campaign):
    rows = {row.sigma_r_km: row for row in campaign.rows}
    rot_ok = all(5.0 <= rows[s].sigma_err_rot_arcsec <= 60.0 for s in SIGMA_R_SWEEP)
    mu_ok = all(np.abs(rows[s].mu_err_px).max() < 0.05 for s in SIGMA_R_SWEEP)
    diag_ok = all(rows[s].p_err_px2.diagonal().max() < 0.05 for s in SIGMA_R_SWEEP)
    with np.errstate(divide="ignore"):
        ratio = np.abs(rows[1e4].p_err_px2 / rows[1e6].p_err_px2)
    ratio_ok = bool(np.all((ratio < 3.0) & (ratio > 1.0 / 3.0)))
    detail = (
        f"sigma_ErrRot {rows[1e4].sigma_err_rot_arcsec:.2f} arcsec (window [5, 60]); "
        f"|mu_err| max {max(np.abs(rows[s].mu_err_px).max() for s in SIGMA_R_SWEEP):.4f} px; "
        f"P_err diag max {max(rows[s].p_err_px2.diagonal().max() for s in SIGMA_R_SWEEP):.5f} px^2; "
        f"element ratio 1e4 vs 1e6 in [{ratio.min():.2f}, {ratio.max():.2f}]; "
        f"det P_err {rows[1e4].det_p_err:.2e} px^4"
    )
    _report(7, "projection-error statistics", rot_ok and mu_ok and diag_ok and ratio_ok, detail)


def test_criterion_8_montecarlo_determinism(tmp_path):
    def run(out):
        r = subprocess.run(
            [
                sys.executable, "-m", "opnav.cli", "montecarlo",
                "--n", "20", "--sigma-r", "1e4,1e7", "--seed", "11", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        return out

    t0 = time.perf_counter()
    a = run(tmp_path / "runA")
    b = run(tmp_path / "runB")
    same_scen = (a / "scenarios.csv").read_bytes() == (b / "scenarios.csv").read_bytes()
    same_pdf = (a / "pdf_errors.csv").read_bytes() == (b / "pdf_errors.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "Monte Carlo determinism",
        same_scen and same_pdf,
        f"two identical-seed runs produced byte-identical CSVs "
        f"(scenarios: {same_scen}, pdf_errors: {same_pdf}), {elapsed:.1f} s for both",
    )
