"""identify_stars against frozen frames and against the nested-loop rule.

``data/star_id_frames.json`` holds, per workload sky, the centroids that
``find_centroids`` found on frames of ``harness.sample_scenarios`` with
master seed 1 (rendered as the campaign renders them), plus one perturbed
copy (first star dropped, two false detections added), together with the
matches and spikes the reference-star voting gave for them.  The
centroids are frozen too, so the test pins star identification alone and
does not move when the renderer does.

The second test replays the reference-star voting as nested loops over
per-pair partner sets on a sparse sky, once with the flight tolerance and
once with a tolerance so wide that ambiguous (two or more shared stars)
intersections are common.  The last of these gives it centroids whose
pair angles match no k-vector row at all.

The nested loops settle the votes with the dict rules in
``reference_resolve``; a property test checks the array resolution of
``star_id`` against the same rules on random vote tables.

Star identification works on the pair table's own star numbering, which
differs between a table as built (catalog order) and the same table
saved and loaded (ascending id); both must identify alike.
"""

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnav.config import PipelineConfig
from opnav.geometry import (
    ARCSEC_TO_RAD,
    PointingAngles,
    angular_separation,
    attitude_from_axis_azimuth,
    los_from_pixel,
    los_from_pixels,
    project_star,
)
from opnav.centroiding import find_centroids
from opnav.harness import sample_scenarios
from opnav.renderer import render
from opnav.skysim import solar_system, synthetic_catalog
from opnav.star_catalog import (
    build_kvector,
    build_pair_database,
    catalog_from_records,
    kvector_range_query,
    load_pair_database,
    save_pair_database,
)
from opnav.star_id import _assign, identify_stars
from conftest import unmatched

FRAMES = json.loads((Path(__file__).parent / "data" / "star_id_frames.json").read_text())

SKIES = {
    "flight": PipelineConfig(),
    "crowded": PipelineConfig(
        sky_star_count=9000, sky_mag_faint=7.5, render_mag_cutoff=7.5, exposure_ms=800.0
    ),
}


@pytest.fixture(scope="module", params=sorted(SKIES))
def workload(request):
    cfg = SKIES[request.param]
    catalog = cfg.sky()
    db = build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
    return request.param, cfg, catalog, db, build_kvector(db)


def test_matches_and_spikes_frozen(workload):
    name, cfg, catalog, db, index = workload
    for case in FRAMES[name]:
        centroids = np.array(case["centroids"], dtype=float).reshape(-1, 2)
        result = identify_stars(
            centroids, cfg.camera(), catalog, db, index, cfg.identify_config().epsilon_rad
        )
        assert result is not None, case["frame"]
        got = [[m.centroid_index, m.star_id] for m in result.matches]
        assert got == case["matches"], case["frame"]
        assert list(unmatched(result, len(centroids))) == case["spikes"], case["frame"]


def test_matches_are_one_record_array(workload):
    """int64 index and id columns, (m, 3) direction columns, and records
    that format as the plain ints of their columns, as the benchmark's
    frame digest formats them."""
    name, cfg, catalog, db, index = workload
    centroids = np.array(FRAMES[name][0]["centroids"], dtype=float).reshape(-1, 2)
    camera = cfg.camera()
    matches = identify_stars(centroids, camera, catalog, db, index, cfg.identify_config().epsilon_rad).matches
    assert matches.centroid_index.dtype == matches.star_id.dtype == np.int64
    assert matches.los_camera.shape == matches.los_inertial.shape == (len(matches), 3)
    np.testing.assert_array_equal(matches.los_camera, los_from_pixels(camera, centroids)[matches.centroid_index])
    np.testing.assert_array_equal(matches.los_inertial, catalog.unit_vectors[catalog.rows_of(matches.star_id)])
    columns = zip(matches.centroid_index.tolist(), matches.star_id.tolist())
    assert "".join(f"{m.centroid_index}:{m.star_id};" for m in matches) == "".join(f"{i}:{s};" for i, s in columns)


def test_identical_under_another_star_numbering(workload, tmp_path):
    """The sky's stars in reverse catalog order, built (numbered in that
    order) and saved and loaded (numbered by ascending id): both tables give
    the frozen matches on the frozen frames, and agree on rendered frames."""
    name, cfg, catalog, _, _ = workload
    columns = (catalog.ids, catalog.right_ascension, catalog.declination, catalog.magnitudes)
    reversed_sky = catalog_from_records(zip(*(column[::-1].tolist() for column in columns)))
    built = build_pair_database(reversed_sky, cfg.mag_limit, cfg.max_pair_angle_rad)
    save_pair_database(built, tmp_path / "onboard.npz")
    loaded, loaded_index = load_pair_database(tmp_path / "onboard.npz")
    assert not np.array_equal(built.stars, loaded.stars)
    assert np.array_equal(built.star_i, loaded.star_i) and np.array_equal(built.star_j, loaded.star_j)
    tables = ((built, build_kvector(built)), (loaded, loaded_index))
    camera, eps = cfg.camera(), cfg.identify_config().epsilon_rad

    def identified(centroids, db, index):
        result = identify_stars(centroids, camera, reversed_sky, db, index, eps)
        return None if result is None else [[m.centroid_index, m.star_id] for m in result.matches]

    for case in FRAMES[name]:
        centroids = np.array(case["centroids"], dtype=float).reshape(-1, 2)
        for db, index in tables:
            assert identified(centroids, db, index) == case["matches"], case["frame"]
    specs = sample_scenarios(3, 5, cfg, camera, solar_system())
    for spec in specs:
        image, _ = render(cfg.scene(spec.pointing, spec.sc_position_km, catalog, spec.planets, spec.index))
        centroids, _, _, _ = find_centroids(image.data, cfg.identify_config().threshold_t)
        got = [identified(centroids, db, index) for db, index in tables]
        assert got[0] is not None and got[0] == got[1], spec.index


def reference_resolve(votes, n_centroids):
    """Per-centroid unique argmax with >= 2 votes, then global id uniqueness.

    ``votes`` maps (centroid, star) to a vote count.  A tie for a
    centroid's best star drops the centroid; a star claimed by several
    centroids stays with the highest vote count, ties drop all claimants.
    Returns centroid -> star.
    """
    by_centroid = defaultdict(dict)
    for (i, star), v in votes.items():
        by_centroid[i][star] = v
    best = {}
    for i, options in by_centroid.items():
        top = max(options.values())
        if top < 2:
            continue
        winners = [s for s, v in options.items() if v == top]
        if len(winners) != 1:
            continue
        best[i] = (winners[0], top)

    by_star = defaultdict(list)
    for i, (star, v) in best.items():
        by_star[star].append((v, i))
    assignment = {}
    for star, claims in by_star.items():
        claims.sort(reverse=True)
        if len(claims) > 1 and claims[0][0] == claims[1][0]:
            continue
        assignment[claims[0][1]] = star
    return assignment


def reference_identify(pixels, camera, db, index, epsilon_rad):
    """Matches and spikes by the nested dict/set voting loop."""
    n = len(pixels)
    los = [los_from_pixel(camera, (x, y)) for x, y in pixels.tolist()]
    maps = {}
    for i in range(n):
        for j in range(i + 1, n):
            rows = kvector_range_query(index, db, angular_separation(los[i], los[j]), epsilon_rad)
            partners = defaultdict(set)
            for a, b in zip(db.star_i[rows].tolist(), db.star_j[rows].tolist()):
                partners[a].add(b)
                partners[b].add(a)
            maps[(i, j)] = partners
    votes = defaultdict(int)
    for i in range(n):
        for j in range(i + 1, n):
            for r in range(n):
                if r in (i, j):
                    continue
                m_ir = maps[(min(i, r), max(i, r))]
                m_jr = maps[(min(j, r), max(j, r))]
                for a, bs in maps[(i, j)].items():
                    for b in bs:
                        common = m_ir.get(a, set()) & m_jr.get(b, set())
                        if len(common) == 1:
                            votes[(i, a)] += 1
                            votes[(j, b)] += 1
                            votes[(r, next(iter(common)))] += 1
    assignment = reference_resolve(votes, n)
    if len(assignment) < 3:
        return None
    return sorted(assignment.items()), tuple(i for i in range(n) if i not in assignment)


@pytest.fixture(scope="module")
def sparse_sky(cfg):
    """A 1000-star sky: few pairs, so a wide tolerance stays cheap."""
    catalog = synthetic_catalog(1000, cfg.sky_seed, cfg.sky_mag_bright, cfg.sky_mag_faint, cfg.sky_mag_slope)
    db = build_pair_database(catalog, cfg.mag_limit, cfg.max_pair_angle_rad)
    return catalog, db, build_kvector(db)


@pytest.mark.parametrize("tolerance_arcsec", [7.0, 1800.0])
def test_equals_nested_loop_voting(camera, cfg, sparse_sky, tolerance_arcsec):
    catalog, db, index = sparse_sky
    rng = np.random.default_rng(int(tolerance_arcsec))
    bright = np.flatnonzero(catalog.magnitudes <= cfg.mag_limit)
    eps = tolerance_arcsec * ARCSEC_TO_RAD
    compared = 0
    for _ in range(30):
        pointing = PointingAngles(
            alpha=rng.uniform(0, 2 * math.pi), delta=rng.uniform(-0.6, 0.6), phi=rng.uniform(0, 2 * math.pi)
        )
        att = attitude_from_axis_azimuth(pointing)
        pixels = [project_star(camera, att, catalog.right_ascension[k], catalog.declination[k]) for k in bright]
        pixels = [p for p in pixels if p is not None and camera.in_frame(*p)]
        pixels += list(rng.uniform(0, camera.width - 1, (rng.integers(0, 4), 2)))  # false detections
        rng.shuffle(pixels)
        centroids = np.array(
            [(float(x) + rng.normal(0, 0.2), float(y) + rng.normal(0, 0.2)) for x, y in pixels[:8]]
        ).reshape(-1, 2)
        if len(centroids) < 3:
            continue
        result = identify_stars(centroids, camera, catalog, db, index, eps)
        got = None if result is None else (
            [(m.centroid_index, m.star_id) for m in result.matches], unmatched(result, len(centroids))
        )
        assert got == reference_identify(centroids, camera, db, index, eps)
        compared += 1
    assert compared >= 25


def test_no_pair_has_a_candidate(camera, cfg, sparse_sky):
    catalog, db, index = sparse_sky
    eps = 7.0 * ARCSEC_TO_RAD
    centroids = np.array([(100, 100), (101, 100), (100, 102), (103, 103)], dtype=float)
    los = [los_from_pixel(camera, (x, y)) for x, y in centroids.tolist()]
    for i in range(len(los)):
        for j in range(i + 1, len(los)):
            assert len(kvector_range_query(index, db, angular_separation(los[i], los[j]), eps)) == 0
    assert identify_stars(centroids, camera, catalog, db, index, eps) is None
    assert reference_identify(centroids, camera, db, index, eps) is None


@st.composite
def vote_tables(draw):
    """(n centroids, n stars, {(centroid, star): votes}) with counts in
    1..4, so single votes and ties for a centroid or a star are common."""
    n, n_stars = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n_stars - 1))
    keys = draw(st.sets(cells, max_size=n * n_stars))
    return n, n_stars, {key: draw(st.integers(1, 4)) for key in sorted(keys)}


@settings(max_examples=500, deadline=None)
@given(table=vote_tables())
@example(table=(3, 2, {}))  # no votes at all
@example(table=(3, 2, {(0, 0): 1, (1, 1): 1, (2, 0): 1}))  # single votes only
@example(table=(2, 2, {(0, 0): 3, (0, 1): 3, (1, 1): 2}))  # centroid 0 tied: only 1 -> 1
@example(table=(3, 2, {(0, 0): 2, (1, 0): 2, (2, 0): 1, (2, 1): 5}))  # star 0 tied: only 2 -> 1
@example(table=(3, 1, {(0, 0): 4, (1, 0): 2, (2, 0): 4}))  # tie at the top, lower claimant loses too
def test_array_resolution_equals_dict_rules(table):
    n, n_stars, votes = table
    star_bits = (n_stars - 1).bit_length()
    voted = np.array([i << star_bits | star for i, star in votes], dtype=np.int64)
    counts = np.array(list(votes.values()), dtype=np.int64)
    centroids, stars = _assign(voted, counts, star_bits)
    assert list(zip(centroids.tolist(), stars.tolist())) == sorted(reference_resolve(votes, n).items())
