"""Monte Carlo campaign driver and outcome classification.

Each scenario samples a spacecraft position (Gaussian, wide in x/y and
narrow in z) and a camera pointing (uniform right ascension and twist,
truncated-normal declination), renders the sky field, and runs the
pipeline.  An external scoring step, with access to the ground truth the
flight code never sees, labels every scenario:

====================  =================================================
label                 meaning
====================  =================================================
1.I                   planet visible, detected within 5 px
1.II                  planet visible, detected more than 5 px away
1.III.A               not detected: planet was matched as a star
1.III.B               not detected: planet spike fell outside the gate
1.III.C               not detected: attitude was wrong upstream
1.III.D               not detected: expected projection off-frame
1.III.E               not detected: merged with a neighboring object
1.III.F               not detected: no centroid at the planet
2.I                   planet not visible, expected projection off-frame
2.II                  planet not visible, nothing in the gate
2.III                 planet not visible but something was detected
ATT_WRONG             pointing error above 500 arcsec, no planet case
ATT_NONE              star identification did not converge
====================  =================================================

The attitude stage is independent of the position-uncertainty sweep, so
each scenario is rendered, solved and scored once (the attitude half of
the outcome, the primary planet, the scenario-level columns) and only
the beacon gate and the beacon half of the label are swept per sigma_r,
with the position-error direction shared across the sweep (this is also
what makes failure rates monotone in sigma_r).  The sweep is one stacked
beacon pass per scenario: one ``detect_beacons`` call predicts the
projection at every sigma_r's position estimate and budget, and each row
equals the one-sigma_r call bit for bit.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .attitude_solver import AttitudeSolution, RansacConfig, principal_axis_angle, ransac_attitude
from .beacon_detection import Ellipse, ProjectionPrediction, UncertaintyBudget, detect_beacon, predict_projections
from .config import PipelineConfig
from .ephemeris import Planet
from .geometry import (
    RAD_TO_ARCSEC,
    CameraModel,
    PointingAngles,
    angular_separation,
    attitude_from_axis_azimuth,
    project_points,
)
from .renderer import GroundTruth, TruthObject, render
from .skysim import AU_KM, seen_from
from .star_catalog import KVectorIndex, PairDatabase, StarCatalog
from .star_id import IdentifyConfig, RetryResult, identify_with_retry

PLANET_ASSOC_RADIUS_PX = 5.0
# Smallest share of declination draws that may fall inside +-delta_max_rad:
# the rejection sampler takes 1/share draws per scenario on average.
MIN_DECLINATION_ACCEPT = 1e-4


@dataclass(frozen=True)
class ScenarioSpec:
    index: int
    sc_position_km: np.ndarray
    pointing: PointingAngles
    planets: tuple[Planet, ...]  # magnitudes as seen from sc_position_km
    planet_in_frame: bool


@dataclass(frozen=True)
class OutcomeLabel:
    label: str
    attitude_status: str  # "ok" | "wrong" | "none"
    rotation_error_arcsec: float = math.nan
    pointing_error_arcsec: float = math.nan
    projection_error_px: float = math.nan


@dataclass(frozen=True)
class AttitudeOutput:
    """Result of the flight pipeline's attitude stage for one image."""

    retry: RetryResult | None
    solution: AttitudeSolution | None
    spike_centroids: tuple[int, ...]  # every centroid that is not a RANSAC inlier, ascending


@dataclass(frozen=True)
class BeaconObservation:
    prediction: ProjectionPrediction | None
    attempted: bool  # False when the expected projection is off-frame
    spike_index: int | None  # index into spike_centroids
    selected_px: np.ndarray | None


def solve_attitude(
    image_data: np.ndarray,
    camera: CameraModel,
    catalog: StarCatalog,
    db: PairDatabase,
    index: KVectorIndex,
    identify_cfg: IdentifyConfig,
    ransac_cfg: RansacConfig,
) -> AttitudeOutput:
    retry = identify_with_retry(image_data, camera, catalog, db, index, identify_cfg)
    if retry is None:
        return AttitudeOutput(None, None, ())
    solution = ransac_attitude(retry.result.matches, ransac_cfg)
    if solution is None:
        return AttitudeOutput(retry, None, ())
    spike_centroids = tuple(sorted(set(range(len(retry.centroids))).difference(solution.inlier_centroids)))
    return AttitudeOutput(retry, solution, spike_centroids)


def detect_beacons(
    attitude_out: AttitudeOutput,
    camera: CameraModel,
    est_position_km: np.ndarray,
    planets,
    budget: UncertaintyBudget | Sequence[UncertaintyBudget],
    floor_px: float,
) -> dict[str, BeaconObservation] | list[dict[str, BeaconObservation]]:
    """Gate the spikes against each planet's predicted projection.

    A (3,) estimate with one ``UncertaintyBudget`` returns one dict.  The
    stacked form takes a (k, 3) stack of estimates with a sequence of k
    budgets and returns one dict per estimate, each equal bit for bit to
    the one-estimate call with that row and budget: one
    ``predict_projections`` call predicts every (estimate, planet) row,
    and ``detect_beacon`` gates them one at a time.
    """
    est = np.asarray(est_position_km, dtype=float)
    stacked = est.ndim == 2
    k = len(est) if stacked else 1
    if stacked and len(budget) != k:
        raise ValueError(f"{len(budget)} budgets for {k} position estimates")
    solution = attitude_out.solution
    if solution is None:
        out = [{planet.name: BeaconObservation(None, False, None, None) for planet in planets} for _ in range(k)]
    else:
        positions = [p.position_km for p in planets]
        if stacked:
            est = np.repeat(est, len(planets), axis=0)
            budget = [b for b in budget for _ in planets]
            positions = positions * k
        rows = iter(predict_projections(camera, solution.quaternion, est, positions, budget, floor_px))
        spikes = attitude_out.retry.centroids[list(attitude_out.spike_centroids)]
        out = [{planet.name: _gate(camera, spikes, next(rows)) for planet in planets} for _ in range(k)]
    return out if stacked else out[0]


def _gate(camera: CameraModel, spikes: np.ndarray, prediction: ProjectionPrediction | None) -> BeaconObservation:
    """One planet's observation: its gate runs when the expected
    projection is in frame and there are spikes."""
    attempted = prediction is not None and camera.in_frame(*prediction.expected_px)
    spike_index = detect_beacon(spikes, prediction) if attempted and len(spikes) else None
    return BeaconObservation(prediction, attempted, spike_index, None if spike_index is None else spikes[spike_index])


def rotation_error_rad(estimated: np.ndarray, true: np.ndarray) -> float:
    """Principal angle of the error rotation between two attitudes."""
    return principal_axis_angle(estimated @ true.T).angle


def pointing_error_rad(estimated: np.ndarray, true: np.ndarray) -> float:
    """Angle between the estimated and true boresight directions."""
    return angular_separation(estimated[2], true[2])


def primary_planet(truth: GroundTruth) -> TruthObject | None:
    """The planet the scenario is scored on: brightest visible first,
    then brightest in-frame, then brightest projected."""
    planets = truth.planets()
    if not planets:
        return None
    for subset in (
        [p for p in planets if p.visible],
        [p for p in planets if not math.isnan(p.x)],
    ):
        if subset:
            return max(subset, key=lambda p: p.peak_dn)
    return planets[0]


def classify_outcome(
    truth: GroundTruth,
    attitude_out: AttitudeOutput,
    beacons: dict[str, BeaconObservation],
    camera: CameraModel,
    cfg: PipelineConfig,
) -> OutcomeLabel:
    """Score one frame against ground truth (decision tree above): the
    attitude half, then the beacon half on the primary planet."""
    attitude = _attitude_outcome(truth, attitude_out, cfg)
    return _beacon_outcome(attitude, primary_planet(truth), beacons, attitude_out, cfg)


def _attitude_outcome(truth: GroundTruth, attitude_out: AttitudeOutput, cfg: PipelineConfig) -> OutcomeLabel:
    """``ATT_NONE``, or the attitude status with the rotation and pointing
    errors, labelled as a scenario without a planet: ``ATT_WRONG`` or 2.I."""
    if attitude_out.solution is None:
        return OutcomeLabel("ATT_NONE", "none")
    true_matrix = attitude_from_axis_azimuth(truth.attitude)
    rot_err = rotation_error_rad(attitude_out.solution.matrix, true_matrix) * RAD_TO_ARCSEC
    point_err = pointing_error_rad(attitude_out.solution.matrix, true_matrix) * RAD_TO_ARCSEC
    if point_err > cfg.wrong_attitude_arcsec:
        return OutcomeLabel("ATT_WRONG", "wrong", rot_err, point_err)
    # Nothing to detect and nothing expected: the no-planet analogue of 2.I.
    return OutcomeLabel("2.I", "ok", rot_err, point_err)


def _beacon_outcome(
    attitude: OutcomeLabel, planet: TruthObject | None, beacons: dict[str, BeaconObservation],
    attitude_out: AttitudeOutput, cfg: PipelineConfig,
) -> OutcomeLabel:
    """``attitude`` with the label and projection error of the primary
    planet's beacon observation; unchanged without a solution or a planet."""
    if attitude.attitude_status == "none" or planet is None:
        return attitude
    att_wrong = attitude.attitude_status == "wrong"
    obs = beacons[planet.ident]
    detected = obs.spike_index is not None
    err_px = math.nan
    if detected and not math.isnan(planet.x):
        err_px = float(np.hypot(obs.selected_px[0] - planet.x, obs.selected_px[1] - planet.y))

    if planet.visible:
        if detected:
            label = "1.I" if err_px <= cfg.wrong_beacon_px else "1.II"
        else:
            label = _failure_forensics(planet, obs, attitude_out, att_wrong)
    elif not obs.attempted:
        label = "ATT_WRONG" if att_wrong else "2.I"
    elif detected:
        label = "2.III"
    else:
        label = "ATT_WRONG" if att_wrong else "2.II"
    return replace(attitude, label=label, projection_error_px=err_px)


def _failure_forensics(
    planet: TruthObject,
    obs: BeaconObservation,
    attitude_out: AttitudeOutput,
    att_wrong: bool,
) -> str:
    """Assign the 1.III sub-case for a visible but undetected planet."""
    if not obs.attempted:
        return "1.III.D"
    if att_wrong:
        return "1.III.C"
    retry = attitude_out.retry
    nearest_dist, nearest = min(
        ((math.hypot(x - planet.x, y - planet.y), i) for i, (x, y) in enumerate(retry.centroids.tolist())),
        default=(math.inf, None),
    )
    if nearest_dist > PLANET_ASSOC_RADIUS_PX:
        return "1.III.F"
    if nearest not in attitude_out.spike_centroids:
        return "1.III.A"  # the planet's centroid survived as a star match
    if retry.span[nearest] > 1 and nearest_dist > 1.0:
        return "1.III.E"
    return "1.III.B"


@dataclass(frozen=True)
class ScenarioRecord:
    """One classified scenario at one sigma_r: one ``scenarios.csv`` row,
    its fields in column order with the outcome's fields in its place."""

    scenario: int
    sigma_r_km: float
    planet_present: bool
    planet_name: str
    planet_visible: bool
    truth_x: float
    truth_y: float
    n_centroids: int
    n_matches: int
    n_spikes: int
    iterations: int
    outcome: OutcomeLabel
    ellipse_a: float = math.nan
    ellipse_b: float = math.nan
    ellipse_psi: float = math.nan
    expected_x: float = math.nan
    expected_y: float = math.nan
    detected_x: float = math.nan
    detected_y: float = math.nan


@dataclass(frozen=True)
class CampaignRow:
    """Aggregate statistics for one sigma_r value."""

    sigma_r_km: float
    n_scenarios: int
    n_planet_present: int
    n_converged: int
    sigma_err_rot_arcsec: float
    pct_wrong_attitude: float
    pct_no_attitude: float
    pct_beacon_fail: float
    pct_beacon_fail_right_att: float
    n_correct_detection: int
    mu_err_px: np.ndarray
    p_err_px2: np.ndarray
    det_p_err: float


@dataclass
class CampaignReport:
    rows: list[CampaignRow]
    records: list[ScenarioRecord]
    n_scenarios: int
    planet_present_fraction: float
    elapsed_s: float = 0.0


def sample_scenarios(
    n: int,
    master_seed: int,
    cfg: PipelineConfig,
    camera: CameraModel,
    planets: tuple[Planet, ...],
) -> list[ScenarioSpec]:
    """Deterministic scenario draws; flags whether a planet is in frame.

    ``planets`` carry their magnitudes at 1 AU; each spec carries them as
    seen from its own spacecraft position.
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    if not cfg.delta_max_rad > 0:
        raise ValueError("delta_max_rad must be > 0")
    accept = math.erf(cfg.delta_max_rad / (cfg.delta_sigma_rad * math.sqrt(2.0))) if cfg.delta_sigma_rad else 1.0
    if accept < MIN_DECLINATION_ACCEPT:
        raise ValueError(
            f"delta_max_rad {cfg.delta_max_rad!r} keeps only a fraction {accept:.3g} of the declination "
            f"draws of delta_sigma_rad {cfg.delta_sigma_rad!r} (need >= {MIN_DECLINATION_ACCEPT:g})"
        )
    specs = []
    for idx in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, idx, 0)))
        pos = rng.normal(0.0, 1.0, 3) * np.array(
            [cfg.sigma_x_au, cfg.sigma_y_au, cfg.sigma_z_au]
        ) * AU_KM
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        delta = _truncated_normal(rng, cfg.delta_sigma_rad, cfg.delta_max_rad)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        pointing = PointingAngles(alpha=alpha, delta=delta, phi=phi)
        attitude = attitude_from_axis_azimuth(pointing)
        pixels = project_points(camera, attitude, pos, [p.position_km for p in planets])[2]
        specs.append(
            ScenarioSpec(
                index=idx,
                sc_position_km=pos,
                pointing=pointing,
                planets=tuple(seen_from(p, pos) for p in planets),
                planet_in_frame=any(camera.in_frame(*px) for px in pixels),
            )
        )
    return specs


def _truncated_normal(rng: np.random.Generator, sigma: float, bound: float) -> float:
    while True:
        x = rng.normal(0.0, sigma)
        if abs(x) <= bound:
            return x


def run_campaign(
    n: int,
    sigma_r_list,
    master_seed: int,
    cfg: PipelineConfig,
    catalog: StarCatalog,
    db: PairDatabase,
    index: KVectorIndex,
    planets: tuple[Planet, ...],
) -> CampaignReport:
    """Render, solve and score the attitude of each scenario once, sweep
    sigma_r on the beacon gate and label, and aggregate per-sigma_r
    statistics."""
    t_start = time.perf_counter()
    cfg.validate()
    camera = cfg.camera()
    identify_cfg = cfg.identify_config()
    sigma_r_list = [float(s) for s in sigma_r_list]
    budgets = [cfg.budget(s) for s in sigma_r_list]
    repeated = next((s for i, s in enumerate(sigma_r_list) if s in sigma_r_list[:i]), None)
    if repeated is not None:  # aggregate() selects a sigma_r's records by value
        raise ValueError(f"sigma_r {repeated!r} km is listed more than once")
    specs = sample_scenarios(n, master_seed, cfg, camera, planets)
    records = [
        r for spec in specs
        for r in _run_scenario(spec, master_seed, sigma_r_list, budgets, cfg, camera, identify_cfg, catalog, db, index)
    ]
    rows = [aggregate(records, s) for s in sigma_r_list]
    n_present = sum(1 for s in specs if s.planet_in_frame)
    return CampaignReport(
        rows=rows,
        records=records,
        n_scenarios=n,
        planet_present_fraction=n_present / n,
        elapsed_s=time.perf_counter() - t_start,
    )


def _run_scenario(
    spec: ScenarioSpec,
    master_seed: int,
    sigma_r_list: list[float],
    budgets: list[UncertaintyBudget],
    cfg: PipelineConfig,
    camera: CameraModel,
    identify_cfg: IdentifyConfig,
    catalog: StarCatalog,
    db: PairDatabase,
    index: KVectorIndex,
) -> list[ScenarioRecord]:
    """Render, solve and score the attitude of one scenario, then gate its
    beacon at every sigma_r in one stacked pass: one record per sigma_r,
    in list order."""
    render_seed = np.random.SeedSequence((master_seed, spec.index, 1))
    ransac_seed = int(np.random.SeedSequence((master_seed, spec.index, 2)).generate_state(1)[0])
    eta = np.random.default_rng(np.random.SeedSequence((master_seed, spec.index, 3))).standard_normal(3)

    image, truth = render(cfg.scene(spec.pointing, spec.sc_position_km, catalog, spec.planets, render_seed))
    attitude_out = solve_attitude(image.data, camera, catalog, db, index, identify_cfg, cfg.ransac_config(ransac_seed))
    retry, solution = attitude_out.retry, attitude_out.solution
    planet = primary_planet(truth)
    scored = tuple(p for p in spec.planets if planet is not None and p.name == planet.ident)
    attitude = _attitude_outcome(truth, attitude_out, cfg)
    scenario = ScenarioRecord(
        scenario=spec.index,
        sigma_r_km=math.nan,
        planet_present=spec.planet_in_frame,
        planet_name=planet.ident if planet else "",
        planet_visible=bool(planet.visible) if planet else False,
        truth_x=planet.x if planet else math.nan,
        truth_y=planet.y if planet else math.nan,
        n_centroids=len(retry.centroids) if retry else 0,
        n_matches=len(solution.inlier_centroids) if solution else 0,
        n_spikes=len(attitude_out.spike_centroids),
        iterations=retry.iterations if retry else 0,
        outcome=attitude,
    )

    # The position-error direction eta is shared across the sweep.
    est_pos = spec.sc_position_km + np.array(sigma_r_list)[:, None] * eta
    sweep = detect_beacons(attitude_out, camera, est_pos, scored, budgets, cfg.ellipse_floor_px)
    records = []
    for sigma_r, beacons in zip(sigma_r_list, sweep):
        obs = beacons[planet.ident] if planet else BeaconObservation(None, False, None, None)
        ellipse = obs.prediction.ellipse if obs.prediction else Ellipse(math.nan, math.nan, math.nan)
        expected = obs.prediction.expected_px if obs.prediction else (math.nan, math.nan)
        selected = obs.selected_px if obs.selected_px is not None else (math.nan, math.nan)
        records.append(replace(
            scenario, sigma_r_km=sigma_r, outcome=_beacon_outcome(attitude, planet, beacons, attitude_out, cfg),
            ellipse_a=ellipse.a, ellipse_b=ellipse.b, ellipse_psi=ellipse.psi,
            expected_x=float(expected[0]), expected_y=float(expected[1]),
            detected_x=float(selected[0]), detected_y=float(selected[1]),
        ))
    return records


def is_beacon_failure(rec: ScenarioRecord) -> bool:
    """Beacon-stage failure for an attitude-converged scenario."""
    if rec.planet_visible:
        return rec.outcome.label != "1.I"
    return rec.outcome.label == "2.III"


def aggregate(records: list[ScenarioRecord], sigma_r: float) -> CampaignRow:
    recs = [r for r in records if r.sigma_r_km == sigma_r]
    present = [r for r in recs if r.planet_present]
    n_present = len(present)
    converged = [r for r in present if r.outcome.attitude_status != "none"]
    right = [r for r in converged if r.outcome.attitude_status == "ok"]
    rot_errs = np.array([r.outcome.rotation_error_arcsec for r in right], dtype=float)
    sigma_rot = float(np.sqrt(np.mean(rot_errs**2))) if len(rot_errs) else math.nan

    n_conv = len(converged)
    fails = sum(1 for r in converged if is_beacon_failure(r))
    fails_right = sum(1 for r in right if is_beacon_failure(r))

    ok = [r for r in converged if r.outcome.label == "1.I"]
    if ok:
        errs = np.array(
            [[r.detected_x - r.truth_x, r.detected_y - r.truth_y] for r in ok]
        )
        mu = errs.mean(axis=0)
        centered = errs - mu
        p_err = centered.T @ centered / len(errs)
    else:
        mu = np.full(2, math.nan)
        p_err = np.full((2, 2), math.nan)

    def pct(k: int, d: int) -> float:
        return 100.0 * k / d if d else math.nan

    return CampaignRow(
        sigma_r_km=sigma_r,
        n_scenarios=len(recs),
        n_planet_present=n_present,
        n_converged=n_conv,
        sigma_err_rot_arcsec=sigma_rot,
        pct_wrong_attitude=pct(
            sum(1 for r in present if r.outcome.attitude_status == "wrong"), n_present
        ),
        pct_no_attitude=pct(
            sum(1 for r in present if r.outcome.attitude_status == "none"), n_present
        ),
        pct_beacon_fail=pct(fails, n_conv),
        pct_beacon_fail_right_att=pct(fails_right, n_conv),
        n_correct_detection=len(ok),
        mu_err_px=mu,
        p_err_px2=p_err,
        det_p_err=float(np.linalg.det(p_err)) if ok else math.nan,
    )


# ---------------------------------------------------------------------------
# Output files


def _fmt(x) -> str:
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.9g}"
    if isinstance(x, bool):
        return str(int(x))
    return str(x)


CSV_HEADER = (
    "scenario,sigma_r_km,planet_present,planet_name,planet_visible,"
    "truth_x,truth_y,n_centroids,n_matches,n_spikes,iterations,"
    "label,att_status,rot_err_arcsec,pointing_err_arcsec,err_px,"
    "a_px,b_px,psi_rad,expected_x,expected_y,detected_x,detected_y"
)


def write_scenarios_csv(records: list[ScenarioRecord], path) -> None:
    columns, outcome_columns = fields(ScenarioRecord), fields(OutcomeLabel)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            row = []
            for f in columns:
                value = getattr(r, f.name)
                row += [getattr(value, g.name) for g in outcome_columns] if f.name == "outcome" else [value]
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_pdf_errors_csv(records: list[ScenarioRecord], path) -> None:
    """Projection-error samples of correct detections, for histograms."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sigma_r_km,err_x_px,err_y_px\n")
        for r in records:
            if r.outcome.label == "1.I":
                fh.write(
                    f"{_fmt(r.sigma_r_km)},{_fmt(r.detected_x - r.truth_x)},"
                    f"{_fmt(r.detected_y - r.truth_y)}\n"
                )


def write_report(report: CampaignReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("Monte Carlo campaign report\n")
        fh.write(f"scenarios per sigma_r: {report.n_scenarios}\n")
        fh.write(
            f"planet in frame: {report.planet_present_fraction * 100:.2f}% of scenarios\n"
        )
        fh.write(f"elapsed: {report.elapsed_s:.1f} s\n\n")
        header = (
            f"{'sigma_r[km]':>12} {'sigErrRot[as]':>14} {'wrongAtt%':>10} "
            f"{'noAtt%':>8} {'beaconFail%':>12} {'failRightAtt%':>14} {'n1.I':>6}"
        )
        fh.write(header + "\n")
        for row in report.rows:
            fh.write(
                f"{row.sigma_r_km:>12.6g} {row.sigma_err_rot_arcsec:>14.4g} "
                f"{row.pct_wrong_attitude:>10.4g} {row.pct_no_attitude:>8.4g} "
                f"{row.pct_beacon_fail:>12.4g} {row.pct_beacon_fail_right_att:>14.4g} "
                f"{row.n_correct_detection:>6d}\n"
            )
        fh.write("\nprojection error statistics over correct detections\n")
        for row in report.rows:
            mu = row.mu_err_px
            p = row.p_err_px2
            fh.write(
                f"sigma_r {row.sigma_r_km:.6g} km: mu_err [{_fmt(float(mu[0]))}, {_fmt(float(mu[1]))}] px, "
                f"P_err [[{_fmt(float(p[0, 0]))}, {_fmt(float(p[0, 1]))}], "
                f"[{_fmt(float(p[1, 0]))}, {_fmt(float(p[1, 1]))}]] px^2, "
                f"det {_fmt(row.det_p_err)} px^4\n"
            )
