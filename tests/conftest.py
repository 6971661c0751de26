import math

import numpy as np
import pytest

from opnav.config import PipelineConfig
from opnav.geometry import CameraModel, PointingAngles
from opnav.star_catalog import build_kvector, build_pair_database, catalog_from_records


@pytest.fixture(scope="session")
def camera():
    return CameraModel()


@pytest.fixture(scope="session")
def cfg():
    return PipelineConfig()


# Six stars in a ~12 deg patch around (ra 1.0, dec 0.2); every pair angle
# is below 35 deg and the 15 pair angles are mutually separated by more
# than 100 arcsec, so a centroid corrupted by a fraction of a pixel can
# never jump to a different catalog pair.
DESK_STARS = [
    (1, 1.00, 0.20, 2.0),
    (2, 1.05, 0.23, 2.2),
    (3, 0.97, 0.155, 2.4),
    (4, 1.08, 0.14, 2.1),
    (5, 0.935, 0.26, 2.3),
    (6, 1.02, 0.305, 2.5),
]

# Pointing that puts all six desk stars well inside the frame.
DESK_POINTING = PointingAngles(alpha=0.7, delta=0.21, phi=1.01)


@pytest.fixture(scope="session")
def desk_catalog():
    return catalog_from_records(DESK_STARS)


@pytest.fixture(scope="session")
def desk_db(desk_catalog):
    db = build_pair_database(desk_catalog, mag_limit=5.5, max_angle_rad=math.radians(35))
    return db, build_kvector(db)


# The default sky and the crowded one (9000 stars to mag 7.5), each built
# at the default mag_limit and pair angle.
SKIES = {
    "default": PipelineConfig(),
    "crowded": PipelineConfig(sky_star_count=9000, sky_mag_faint=7.5),
}


@pytest.fixture(scope="session")
def sky(cfg):
    """Full-scale synthetic sky with its onboard pair database."""
    catalog = cfg.sky()
    db = build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
    return catalog, db, build_kvector(db)


def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    from opnav.geometry import matrix_from_quaternion

    return matrix_from_quaternion(q)


def stack_axes(axes):
    """The (axes, indeterminate, degenerate) arrays that consensus_scores
    takes, from a list of AxisAngle entries with None for a degenerate
    sample."""
    axis = np.array([(0.0, 0.0, 1.0) if a is None else a.axis for a in axes], dtype=float).reshape(-1, 3)
    indeterminate = np.array([a is not None and a.indeterminate for a in axes], dtype=bool)
    degenerate = np.array([a is None for a in axes], dtype=bool)
    return axis, indeterminate, degenerate


def unmatched(result, n):
    """The centroids of ``range(n)`` that no match of ``result`` claims,
    ascending: the spikes star identification leaves."""
    return tuple(sorted(set(range(n)).difference(m.centroid_index for m in result.matches)))
