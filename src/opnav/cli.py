"""Command-line entry points.

Subcommands:
  build-catalog   raw star list -> onboard pair database artifact
  synth-sky       deterministic synthetic catalog + ephemeris files
  render          scene description -> PGM image + ground-truth sidecar
  process         run the pipeline on one image
  montecarlo      the full campaign with a sigma_r sweep

Exit code 0 on success; any failure prints a one-line reason to stderr
and exits nonzero.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import skysim
from .config import PipelineConfig, load_config, parse_value, read_kv, save_config
from .ephemeris import planets_at, save_ephemeris
from .geometry import PointingAngles
from .harness import (
    detect_beacons,
    run_campaign,
    solve_attitude,
    write_pdf_errors_csv,
    write_report,
    write_scenarios_csv,
)
from .renderer import read_pgm, render, write_pgm, write_truth
from .star_catalog import (
    CatalogError,
    build_kvector,
    build_pair_database,
    check_pairs_match,
    load_catalog,
    load_pair_database,
    save_catalog,
    save_pair_database,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line reason, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opnav", description=__doc__)
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("build-catalog", help="build the onboard pair database")
    p.add_argument("--in", dest="raw", required=True, help="raw catalog (id,ra_deg,dec_deg,vmag)")
    p.add_argument("--out", required=True, help="output .npz artifact")
    p.add_argument("--mlim", default="5.5")
    p.add_argument("--gamma-max-deg", default="35.0")
    p.set_defaults(func=_cmd_build_catalog)

    p = sub.add_parser("synth-sky", help="write a synthetic catalog and ephemeris")
    p.add_argument("--catalog-out", required=True)
    p.add_argument("--ephemeris-out")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_synth_sky)

    p = sub.add_parser("render", help="render a scene file to PGM + truth sidecar")
    p.add_argument("--scene", required=True, help="key=value scene description")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--truth", required=True, help="output ground-truth sidecar path")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("process", help="run the pipeline on one image")
    p.add_argument("--image", required=True)
    p.add_argument("--db", required=True, help="pair database artifact from build-catalog")
    p.add_argument("--config", required=True)
    p.add_argument("--catalog", required=True, help="raw catalog (inertial directions)")
    p.add_argument("--ephemeris", help="beacon table; omit to skip beacon detection")
    p.add_argument("--epoch", help="epoch tag to select (default: first in file)")
    p.add_argument("--sc-pos", help="estimated spacecraft position 'x,y,z' in km")
    p.add_argument("--sigma-r", default="1e5", help="position uncertainty, km")
    p.set_defaults(func=_cmd_process)

    p = sub.add_parser("montecarlo", help="Monte Carlo campaign with a sigma_r sweep")
    p.add_argument("--n", required=True, help="scenarios per sigma_r")
    p.add_argument("--sigma-r", required=True, help="comma-separated sigma_r list in km")
    p.add_argument("--seed", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config")
    p.add_argument("--catalog", help="raw catalog; omit for the synthetic sky")
    p.add_argument("--ephemeris", help="planet table; omit for the built-in snapshot")
    p.add_argument("--epoch")
    p.set_defaults(func=_cmd_montecarlo)
    return parser


def _number(flag: str, text: str, kind: type):
    """The value of a numeric flag; one that does not parse names the flag."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag} expects {expected}, got '{text}'") from None


def _cmd_build_catalog(args) -> int:
    mlim = _number("--mlim", args.mlim, float)
    gamma_max_rad = math.radians(_number("--gamma-max-deg", args.gamma_max_deg, float))
    catalog = load_catalog(args.raw)
    db = build_pair_database(catalog, mlim, gamma_max_rad)
    save_pair_database(db, args.out)
    print(f"{len(catalog)} stars -> {len(db)} pairs -> {args.out}")
    return 0


def _cmd_synth_sky(args) -> int:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    catalog = cfg.sky()
    save_catalog(catalog, args.catalog_out)
    print(f"wrote {len(catalog)} stars to {args.catalog_out}")
    if args.ephemeris_out:
        planets = skysim.solar_system()  # magnitudes at 1 AU
        save_ephemeris({"t0": planets}, args.ephemeris_out)
        print(f"wrote {len(planets)} beacons to {args.ephemeris_out}")
    return 0


_SCENE_KINDS = {
    "catalog": str, "alpha_rad": float, "delta_rad": float, "phi_rad": float,
    "config": str, "ephemeris": str, "epoch": str,
    "sc_x_km": float, "sc_y_km": float, "sc_z_km": float, "mag_cutoff": float, "seed": int,
}
_SCENE_REQUIRED = ("catalog", "alpha_rad", "delta_rad", "phi_rad")


def _read_scene(path) -> dict:
    """Typed scene values; an unknown key, a bad value or a missing key
    names the file."""
    kv = {}
    for lineno, key, value in read_kv(path):
        if key not in _SCENE_KINDS:
            raise ValueError(f"{path} line {lineno}: unknown scene key '{key}'")
        kv[key] = parse_value(path, lineno, key, value, _SCENE_KINDS[key])
    missing = [key for key in _SCENE_REQUIRED if key not in kv]
    if missing:
        raise ValueError(f"{path}: missing scene key(s) {', '.join(missing)}")
    return kv


def _cmd_render(args) -> int:
    kv = _read_scene(args.scene)
    cfg = load_config(kv["config"]) if "config" in kv else PipelineConfig()
    catalog = load_catalog(kv["catalog"])
    planets = planets_at(kv["ephemeris"], kv.get("epoch")) if "ephemeris" in kv else ()
    cfg.render_mag_cutoff = kv.get("mag_cutoff", cfg.render_mag_cutoff)
    image, truth = render(cfg.scene(
        PointingAngles(alpha=kv["alpha_rad"], delta=kv["delta_rad"], phi=kv["phi_rad"]),
        np.array([kv.get("sc_x_km", 0.0), kv.get("sc_y_km", 0.0), kv.get("sc_z_km", 0.0)]),
        catalog, planets, kv.get("seed", 0),
    ))
    write_pgm(image, args.out)
    write_truth(truth, args.truth)
    n_vis = sum(1 for o in truth.objects if o.visible)
    print(f"rendered {len(truth.objects)} objects ({n_vis} visible) -> {args.out}")
    return 0


def _sc_position(text: str) -> np.ndarray:
    """``--sc-pos`` as exactly three finite numbers."""
    try:
        xyz = [float(x) for x in text.split(",")]
    except ValueError:
        xyz = []
    if len(xyz) != 3 or not all(math.isfinite(x) for x in xyz):
        raise ValueError(f"--sc-pos expects three finite numbers 'x,y,z' in km, got '{text}'")
    return np.array(xyz)


def _cmd_process(args) -> int:
    sigma_r = _number("--sigma-r", args.sigma_r, float)
    cfg = load_config(args.config)
    budget = cfg.budget(sigma_r)
    est = None if args.sc_pos is None else _sc_position(args.sc_pos)
    if args.ephemeris and est is None:
        raise ValueError("--sc-pos is required for beacon detection")
    planets = planets_at(args.ephemeris, args.epoch) if args.ephemeris else ()
    camera = cfg.camera()
    image = read_pgm(args.image)
    height, width = image.data.shape
    if (width, height) != (camera.width, camera.height):
        raise ValueError(
            f"{args.image}: image is {width}x{height} px, "
            f"the camera config expects {camera.width}x{camera.height}"
        )
    catalog = load_catalog(args.catalog)
    db, index = load_pair_database(args.db)
    try:
        check_pairs_match(db, catalog)
    except CatalogError as exc:
        raise ValueError(f"{args.db} does not match {args.catalog}: {exc}") from None
    attitude_out = solve_attitude(
        image.data, camera, catalog, db, index, cfg.identify_config(), cfg.ransac_config()
    )
    if attitude_out.solution is None:
        print("no attitude solution", file=sys.stderr)
        return 3
    sol = attitude_out.solution
    retry = attitude_out.retry
    print(f"threshold={retry.threshold:.3f} iterations={retry.iterations}")
    for m in retry.result.matches:
        tag = "inlier" if m.centroid_index in sol.inlier_centroids else "outlier"
        x, y = retry.centroids[m.centroid_index]
        print(f"match centroid {m.centroid_index} ({x:.2f},{y:.2f}) -> star {m.star_id} [{tag}]")
    q = sol.quaternion.q
    print(f"attitude quaternion {q[0]:.9f} {q[1]:.9f} {q[2]:.9f} {q[3]:.9f}")
    print(f"spikes: {list(attitude_out.spike_centroids)}")

    if args.ephemeris:
        beacons = detect_beacons(attitude_out, camera, est, planets, budget, cfg.ellipse_floor_px)
        for name, obs in beacons.items():
            if obs.prediction is None:
                print(f"beacon {name}: behind camera")
                continue
            e = obs.prediction.ellipse
            ex, ey = obs.prediction.expected_px
            line = f"beacon {name}: {e.a:.6g},{e.b:.6g},{e.psi:.6g},{ex:.6g},{ey:.6g}"
            if obs.spike_index is not None:
                line += f" detected=({obs.selected_px[0]:.3f},{obs.selected_px[1]:.3f})"
            else:
                line += " detected=none"
            print(line)
    return 0


def _cmd_montecarlo(args) -> int:
    n, seed = _number("--n", args.n, int), _number("--seed", args.seed, int)
    cfg = load_config(args.config) if args.config else PipelineConfig()
    try:
        sigma_r = [float(s) for s in args.sigma_r.split(",") if s]
    except ValueError:
        raise ValueError(f"--sigma-r expects comma-separated numbers in km, got '{args.sigma_r}'") from None
    if not sigma_r:
        raise ValueError("empty --sigma-r list")
    catalog = load_catalog(args.catalog) if args.catalog else cfg.sky()
    planets = planets_at(args.ephemeris, args.epoch) if args.ephemeris else skysim.solar_system()
    db = build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
    index = build_kvector(db)

    report = run_campaign(n, sigma_r, seed, cfg, catalog, db, index, planets)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scenarios_csv(report.records, out / "scenarios.csv")
    write_pdf_errors_csv(report.records, out / "pdf_errors.csv")
    write_report(report, out / "report.txt")
    save_config(cfg, out / "config.used")
    print((out / "report.txt").read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
