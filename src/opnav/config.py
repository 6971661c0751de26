"""Plain-text key=value configuration for the pipeline and harness.

Defaults reproduce the reference setup: a 20 deg, 1024x1024, 40 mm f/2.2
camera with 400 ms exposure and 0.9 px defocus; threshold tuning T=20,
7 arcsec range tolerance, magnitude limit 5.5, 35 deg maximum pair
angle; 20 RANSAC samples with a 15 arcsec consensus threshold; attitude
knowledge sigma_qv = 1e-4 and exactly-known planet ephemerides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import skysim
from .geometry import ARCSEC_TO_RAD, CameraModel
from .star_id import IdentifyConfig
from .attitude_solver import RansacConfig
from .beacon_detection import UncertaintyBudget
from .renderer import PSF_TRUNCATION_SIGMAS, SceneSpec
from .star_catalog import MAX_PAIR_STARS, StarCatalog

# consensus_scores takes the agreement of every pair of RANSAC samples at
# once, about 27 B per pair at its peak (160 B from a 45 deg threshold on,
# where every pair takes math.atan2): 1024 samples hold 27 MiB (160 MiB).
MAX_RANSAC_SAMPLES = 1024

# build_pair_database holds about 33 B per star pair within max_pair_angle
# at its peak, and about N**2 * (1 - cos max_pair_angle) / 4 pairs when all
# N synthetic stars pass: 4.5 million, 0.15 GB, at the cap and 35 deg.
MAX_SKY_STARS = MAX_PAIR_STARS

# render holds about 2 B per pixel at its peak (2.0 MiB on the default
# 1024 x 1024 frame, tracemalloc): 2**26 pixels, 8192 x 8192, is 128 MiB.
MAX_FRAME_PIXELS = 2**26


@dataclass
class PipelineConfig:
    # Camera (detector and optics)
    fov_deg: float = 20.0
    image_width: int = 1024
    image_height: int = 1024
    focal_length_mm: float = 40.0
    f_number: float = 2.2
    exposure_ms: float = 400.0
    qe_tlens: float = 0.49
    defocus_sigma_px: float = 0.9

    # Star identification
    threshold_t: float = 20.0
    threshold_t_step: float = 5.0
    threshold_max_iterations: int = 5
    kvector_epsilon_arcsec: float = 7.0
    mag_limit: float = 5.5
    max_pair_angle_deg: float = 35.0

    # RANSAC
    ransac_samples: int = 20
    ransac_threshold_arcsec: float = 15.0

    # Uncertainty budget (sigma_r comes from the campaign sweep)
    sigma_qv: float = 1e-4
    sigma_rbc_km: float = 0.0

    # Renderer
    anchor_mag: float = 0.0
    anchor_peak_dn: float = 2000.0
    background_mean_dn: float = 5.0
    background_sigma_dn: float = 2.0
    photon_noise: bool = True
    render_mag_cutoff: float = 6.5
    ellipse_floor_px: float = 0.5

    # Harness (scenario sampling and outcome classification)
    sigma_x_au: float = 3.0
    sigma_y_au: float = 3.0
    sigma_z_au: float = 0.07
    delta_sigma_rad: float = 0.2
    delta_max_rad: float = 0.6
    wrong_attitude_arcsec: float = 500.0
    wrong_beacon_px: float = 5.0

    # Synthetic sky (used when no catalog/ephemeris files are supplied)
    sky_star_count: int = 4000
    sky_mag_bright: float = -1.0
    sky_mag_faint: float = 6.5
    sky_mag_slope: float = 0.25
    sky_seed: int = 7041997

    def validate(self) -> None:
        """Raise ValueError naming the first field outside its range."""
        for name in POSITIVE_FIELDS:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in NON_NEGATIVE_FIELDS:
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if not self.fov_deg < 180.0:
            raise ValueError("fov_deg must be < 180")
        pixels = self.image_width * self.image_height
        if pixels > MAX_FRAME_PIXELS:
            raise ValueError(
                f"image_width * image_height must be <= {MAX_FRAME_PIXELS}: "
                f"{self.image_width} x {self.image_height} = {pixels:,} pixels"
            )
        half = PSF_TRUNCATION_SIGMAS * self.defocus_sigma_px  # inf past about 4.5e307
        side = min(self.image_width, self.image_height)
        if half > (side - 1) // 2:  # the box, 2 * ceil(half) + 1 px, is wider than side
            box = 2 * math.ceil(half) + 1 if half < math.inf else half
            raise ValueError(
                f"defocus_sigma_px {self.defocus_sigma_px!r} gives a {box} px PSF box, wider than the {side} px frame"
            )
        if self.ransac_samples > MAX_RANSAC_SAMPLES:
            raise ValueError(
                f"ransac_samples must be <= {MAX_RANSAC_SAMPLES}: consensus scoring compares every pair of samples"
            )
        if self.sky_star_count > MAX_SKY_STARS:
            n = self.sky_star_count
            raise ValueError(
                f"sky_star_count must be <= {MAX_SKY_STARS}: the pair table may hold "
                f"up to {n} * {n - 1} / 2 = {n * (n - 1) // 2:,} pairs"
            )
        if self.threshold_max_iterations < 1:
            raise ValueError("threshold_max_iterations must be >= 1")
        if not self.render_mag_cutoff >= self.mag_limit:
            raise ValueError(
                "render_mag_cutoff must be >= mag_limit: stars fainter than the "
                "onboard catalog are the natural spikes, not the other way around"
            )

    def camera(self) -> CameraModel:
        return CameraModel(
            fov_deg=self.fov_deg,
            width=self.image_width,
            height=self.image_height,
            focal_length_mm=self.focal_length_mm,
            f_number=self.f_number,
            exposure_ms=self.exposure_ms,
            qe_tlens=self.qe_tlens,
            defocus_sigma_px=self.defocus_sigma_px,
        )

    def scene(self, pointing, sc_position_km, catalog, planets, seed) -> SceneSpec:
        """The scene this camera and renderer setup sees from one pose."""
        return SceneSpec(
            camera=self.camera(),
            true_attitude=pointing,
            sc_position_km=sc_position_km,
            star_catalog=catalog,
            planets=planets,
            render_mag_cutoff=self.render_mag_cutoff,
            background_mean_dn=self.background_mean_dn,
            background_sigma_dn=self.background_sigma_dn,
            photon_noise=self.photon_noise,
            seed=seed,
            anchor_mag=self.anchor_mag,
            anchor_peak_dn=self.anchor_peak_dn,
        )

    def sky(self) -> StarCatalog:
        """The synthetic star catalog of the ``sky_*`` fields."""
        return skysim.synthetic_catalog(
            self.sky_star_count, self.sky_seed, self.sky_mag_bright, self.sky_mag_faint, self.sky_mag_slope
        )

    def identify_config(self) -> IdentifyConfig:
        return IdentifyConfig(
            epsilon_rad=self.kvector_epsilon_arcsec * ARCSEC_TO_RAD,
            threshold_t=self.threshold_t,
            threshold_t_step=self.threshold_t_step,
            max_iterations=self.threshold_max_iterations,
        )

    def ransac_config(self, seed: int = 0) -> RansacConfig:
        return RansacConfig(
            n_samples=self.ransac_samples,
            threshold_arcsec=self.ransac_threshold_arcsec,
            seed=seed,
        )

    def budget(self, sigma_r_km: float) -> UncertaintyBudget:
        return UncertaintyBudget(
            sigma_qv=self.sigma_qv, sigma_r_km=sigma_r_km, sigma_rbc_km=self.sigma_rbc_km
        )

    @property
    def max_pair_angle_rad(self) -> float:
        return math.radians(self.max_pair_angle_deg)


# Ranges that PipelineConfig.validate enforces besides fov_deg < 180,
# image_width * image_height <= MAX_FRAME_PIXELS,
# ransac_samples <= MAX_RANSAC_SAMPLES, sky_star_count <= MAX_SKY_STARS,
# threshold_max_iterations >= 1, render_mag_cutoff >= mag_limit, a
# 4-sigma PSF box no wider than the smaller frame side and a finite value
# in every float field.
POSITIVE_FIELDS = (
    "fov_deg", "image_width", "image_height", "focal_length_mm", "f_number", "exposure_ms",
    "qe_tlens", "defocus_sigma_px", "ransac_samples", "ransac_threshold_arcsec", "max_pair_angle_deg",
    "delta_max_rad", "sky_star_count",
)
NON_NEGATIVE_FIELDS = (
    "kvector_epsilon_arcsec", "sigma_qv", "sigma_rbc_km",
    "anchor_peak_dn", "background_mean_dn", "background_sigma_dn", "ellipse_floor_px",
    "sigma_x_au", "sigma_y_au", "sigma_z_au", "delta_sigma_rad",
)


# The spellings of a bool value, matched in any case.
_BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def read_kv(path):
    """Yield ``(lineno, key, value)`` for each ``key=value`` line of a
    text file; blank lines and ``#`` comments are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path} line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            yield lineno, key.strip(), value.strip()


def parse_value(path, lineno: int, key: str, value: str, kind: type):
    """``value`` as a ``kind`` (bool, int, float or str); a bool is 1/0,
    true/false, yes/no or on/off.  A value that does not parse names the
    file, line and key."""
    try:
        return _BOOL_TEXT[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ValueError(f"{path} line {lineno}: {key} expects {kind.__name__}, got '{value}'") from None


def load_config(path) -> PipelineConfig:
    """Parse key=value lines (``#`` comments) over the defaults, then
    check every range (``PipelineConfig.validate``)."""
    cfg = PipelineConfig()
    names = {f.name for f in fields(PipelineConfig)}
    for lineno, key, value in read_kv(path):
        if key not in names:
            raise ValueError(f"{path} line {lineno}: unknown key '{key}'")
        setattr(cfg, key, parse_value(path, lineno, key, value, type(getattr(cfg, key))))
    cfg.validate()
    return cfg


def save_config(cfg: PipelineConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(PipelineConfig):
            value = getattr(cfg, f.name)
            if isinstance(value, bool):
                value = int(value)
            fh.write(f"{f.name}={value}\n")
