"""Deterministic synthetic sky and solar-system snapshots.

The Monte Carlo harness needs a full-sky star catalog and a set of
planets without any network access, so both are generated here from a
seed.  Star directions are uniform on the sphere; magnitudes follow a
truncated exponential number-count law dN/dm ~ 10^(slope*m), which
mimics the ratio of faint to bright stars in real catalogs.  Planets
sit at fixed heliocentric-scale positions near the z=0 plane; their
apparent magnitude as seen from a given observer follows an inverse
square brightness law anchored at 1 AU.
"""

from __future__ import annotations

import math

import numpy as np

from .ephemeris import Planet
from .geometry import TWO_PI, radec_to_unit
from .star_catalog import StarCatalog

AU_KM = 1.495978707e8

# name, orbital radius (AU), ecliptic longitude (rad), z offset (AU),
# apparent magnitude at 1 AU observer distance (absolute magnitude plus
# 5 log10 of the sun distance; phase effects ignored).  Mars sits at its
# bright end and uranus at its faint end so that neither planet dwells
# in the narrow band between the detection threshold and the 120 DN
# visibility level, where the external oracle and the pipeline disagree
# by construction.
_PLANETS = (
    ("mercury", 0.39, 0.80, 0.004, -2.6),
    ("venus", 0.72, 2.10, -0.010, -5.1),
    ("earth", 1.00, 3.60, 0.000, -4.0),
    ("mars", 1.52, 5.10, 0.030, -1.3),
    ("jupiter", 5.20, 0.30, -0.060, -5.8),
    ("saturn", 9.54, 1.70, 0.110, -4.0),
    ("uranus", 19.19, 3.10, -0.160, 0.2),
    ("neptune", 30.07, 4.60, 0.220, 0.4),
)


def seen_from(planet: Planet, observer_km) -> Planet:
    """The planet with its 1 AU magnitude rescaled to the observer's distance."""
    d = float(np.linalg.norm(planet.position_km - np.asarray(observer_km, float)))
    return Planet(planet.name, planet.position_km, planet.magnitude + 5.0 * math.log10(max(d, 1.0) / AU_KM))


def synthetic_catalog(n_stars: int, seed: int, mag_bright: float, mag_faint: float, slope: float) -> StarCatalog:
    """Full-sky star catalog, ids 1..n, deterministic for a given seed;
    ``PipelineConfig.sky`` is the default sky.  Its angles are the ones
    ``load_catalog`` reads back from ``save_catalog``'s text, so the sky and
    its own file are one sky."""
    rng = np.random.default_rng(seed)
    ra = _as_saved(rng.uniform(0.0, 2.0 * math.pi, n_stars)) % TWO_PI % TWO_PI
    dec = _as_saved(np.arcsin(rng.uniform(-1.0, 1.0, n_stars)))
    u = rng.uniform(0.0, 1.0, n_stars)
    lo = 10.0 ** (slope * mag_bright)
    hi = 10.0 ** (slope * mag_faint)
    mags = np.log10(lo + u * (hi - lo)) / slope
    return StarCatalog(np.arange(1, n_stars + 1, dtype=np.int64), ra, dec, mags, radec_to_unit(ra, dec))


def _as_saved(angles: np.ndarray) -> np.ndarray:
    """The radians that ``load_catalog`` reads back from the degrees that
    ``save_catalog`` writes: an angle that ``radians`` maps one of
    ``degrees(angle)`` and its two float64 neighbours to stays (the search
    of ``star_catalog._degrees_text``); any other becomes
    ``radians(degrees(angle))``.  The neighbours are tried only where
    ``degrees(angle)`` itself does not map back."""
    degrees = np.degrees(angles)
    saved = np.radians(degrees)
    moved = np.flatnonzero(saved != angles)
    near, target = degrees[moved], angles[moved]
    kept = (np.radians(np.nextafter(near, -np.inf)) == target) | (np.radians(np.nextafter(near, np.inf)) == target)
    saved[moved[kept]] = target[kept]
    return saved


def solar_system() -> tuple[Planet, ...]:
    """The fixed planet snapshot used by the default campaign; magnitudes
    are the values at 1 AU observer distance (see ``seen_from``)."""
    return tuple(
        Planet(name, [r_au * math.cos(lon) * AU_KM, r_au * math.sin(lon) * AU_KM, z_au * AU_KM], mag)
        for name, r_au, lon, z_au, mag in _PLANETS
    )
