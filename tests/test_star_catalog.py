import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav import cli, star_catalog
from opnav.config import MAX_SKY_STARS, PipelineConfig
from opnav.geometry import angular_separation, radec_to_unit
from opnav.harness import solve_attitude
from opnav.renderer import SceneSpec, render
from opnav.skysim import synthetic_catalog
from opnav.star_catalog import (
    CatalogError,
    PairDatabase,
    build_kvector,
    build_pair_database,
    catalog_from_records,
    check_pairs_match,
    kvector_range_query,
    load_catalog,
    load_pair_database,
    save_catalog,
    save_pair_database,
)
from conftest import DESK_POINTING, DESK_STARS


def _write(tmp_path, text, name="cat.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCatalog:
    def test_unit_vector_at_origin(self, tmp_path):
        cat = load_catalog(_write(tmp_path, "1,0,0,1.0\n"))
        np.testing.assert_allclose(cat.unit_vectors[0], [1, 0, 0], atol=1e-15)

    def test_unit_vector_ninety_degrees(self, tmp_path):
        cat = load_catalog(_write(tmp_path, "2,90,0,2.0\n"))
        np.testing.assert_allclose(cat.unit_vectors[0], [0, 1, 0], atol=1e-12)

    def test_four_star_desk_file(self, tmp_path):
        text = "# comment\n1,10,5,1.0\n2,80,-30,2.0\n\n3,200,60,3.0\n4,355,-5,4.5\n"
        cat = load_catalog(_write(tmp_path, text))
        assert len(cat) == 4
        np.testing.assert_allclose(np.linalg.norm(cat.unit_vectors, axis=1), 1.0, atol=1e-12)

    def test_parse_error_names_line(self, tmp_path):
        path = _write(tmp_path, "1,0,0,1.0\n2,zzz,0,1.0\n")
        with pytest.raises(CatalogError, match=re.escape(f"{path} line 2: unparseable field")):
            load_catalog(path)
        path = _write(tmp_path, "1,0,0,1.0\n2,5,0,1.0\n3,5,0\n")
        with pytest.raises(CatalogError) as info:
            load_catalog(path)
        assert str(info.value) == f"{path} line 3: expected 4 comma-separated fields, got 3"

    def test_id_outside_int64_rejected(self, tmp_path):
        path = _write(tmp_path, f"1,0,0,1.0\n{2**63},10,0,1.0\n")
        with pytest.raises(CatalogError) as info:
            load_catalog(path)
        assert str(info.value) == f"{path} line 2: star id {2**63} outside the int64 range"

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("2,nan,10,2.0", "right ascension nan is not finite"),
            ("2,inf,10,2.0", "right ascension inf is not finite"),
            ("2,-inf,10,2.0", "right ascension -inf is not finite"),
            ("2,10,10,nan", "magnitude nan is not finite"),
            ("2,10,10,inf", "magnitude inf is not finite"),
        ],
        ids=["ra_nan", "ra_inf", "ra_minus_inf", "mag_nan", "mag_inf"],
    )
    def test_non_finite_field_rejected(self, tmp_path, line, reason):
        # a NaN star would load with a NaN unit vector and lose its pairs silently
        path = _write(tmp_path, f"1,0,0,1.0\n{line}\n")
        with pytest.raises(CatalogError) as info:
            load_catalog(path)
        assert str(info.value) == f"{path} line 2: {reason}"

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(_write(tmp_path, "7,0,0,1.0\n7,10,0,1.0\n"))

    def test_tiny_negative_ra_wraps_to_zero(self, tmp_path):
        # radians(-1e-300) % 2 pi rounds to 2 pi itself, outside [0, 2 pi)
        cat = load_catalog(_write(tmp_path, "1,-1e-300,0.0,1.0\n2,-0.0,0.0,1.0\n3,359.9,0.0,1.0\n"))
        ras = cat.right_ascension.tolist()
        assert all(0.0 <= ra < 2.0 * math.pi for ra in ras)
        assert ras[0] == 0.0
        assert ras[2] == math.radians(359.9)

    def test_declination_range_checked(self, tmp_path):
        with pytest.raises(CatalogError, match="declination"):
            load_catalog(_write(tmp_path, "1,0,91,1.0\n"))

    def test_save_load_roundtrip(self, tmp_path):
        cat = synthetic_catalog(50, 9, -1.0, 6.5, 0.35)
        path = tmp_path / "round.csv"
        save_catalog(cat, path)
        back = load_catalog(path)
        np.testing.assert_array_equal(back.ids, cat.ids)
        # the text format stores degrees, so the radian round trip costs ulps
        np.testing.assert_allclose(back.unit_vectors, cat.unit_vectors, atol=1e-14)
        np.testing.assert_array_equal(back.magnitudes, cat.magnitudes)


def _tiny_catalog(sep_rad, mags=(1.0, 1.0)):
    return catalog_from_records([(1, 0.0, 0.0, mags[0]), (2, sep_rad, 0.0, mags[1])])


class TestBuildPairDatabase:
    def test_boundary_angle_inclusive(self):
        gamma_max = math.radians(35)
        db = build_pair_database(_tiny_catalog(gamma_max), 5.5, gamma_max)
        assert len(db) == 1

    def test_just_beyond_boundary_excluded(self):
        gamma_max = math.radians(35)
        with pytest.raises(CatalogError, match="sparse"):
            build_pair_database(_tiny_catalog(gamma_max + 1e-4), 5.5, gamma_max)

    def test_magnitude_filter_boundary(self):
        db = build_pair_database(_tiny_catalog(0.1, mags=(5.5, 5.5)), 5.5, 0.5)
        assert len(db) == 1
        with pytest.raises(CatalogError):
            build_pair_database(_tiny_catalog(0.1, mags=(5.5, 5.51)), 5.5, 0.5)

    def test_matches_brute_force(self):
        cat = synthetic_catalog(40, 21, mag_bright=1.0, mag_faint=6.0, slope=0.35)
        m_lim, g_max = 5.5, math.radians(35)
        db = build_pair_database(cat, m_lim, g_max)
        expected = set()
        for a in range(len(cat)):
            for b in range(a + 1, len(cat)):
                if cat.magnitudes[a] > m_lim or cat.magnitudes[b] > m_lim:
                    continue
                gamma = angular_separation(cat.unit_vectors[a], cat.unit_vectors[b])
                if math.cos(gamma) >= math.cos(g_max):
                    expected.add((cat.ids[a], cat.ids[b]))
        got = set(zip(db.star_i.tolist(), db.star_j.tolist()))
        assert got == expected
        assert np.all(np.diff(db.cos_angles) >= 0)

    def test_independent_of_input_order(self):
        cat = synthetic_catalog(30, 5, mag_bright=1.0, mag_faint=5.0, slope=0.35)
        perm = np.random.default_rng(1).permutation(len(cat))
        shuffled = catalog_from_records(
            zip(cat.ids[perm], cat.right_ascension[perm], cat.declination[perm], cat.magnitudes[perm])
        )
        db1 = build_pair_database(cat, 5.5, math.radians(35))
        db2 = build_pair_database(shuffled, 5.5, math.radians(35))
        triples1 = {
            (min(i, j), max(i, j), round(c, 14))
            for i, j, c in zip(db1.star_i.tolist(), db1.star_j.tolist(), db1.cos_angles)
        }
        triples2 = {
            (min(i, j), max(i, j), round(c, 14))
            for i, j, c in zip(db2.star_i.tolist(), db2.star_j.tolist(), db2.cos_angles)
        }
        assert triples1 == triples2

    @staticmethod
    def _row_of_stars(count, faint=0):
        # 0.01 rad apart on the equator, at magnitude 5.5 but the last ``faint``
        return catalog_from_records((k, 0.01 * k, 0.0, 5.5 if k < count - faint else 5.6) for k in range(count))

    def test_star_cap(self, monkeypatch):
        # the cap lowered to 40, so nothing large is built
        monkeypatch.setattr(star_catalog, "MAX_PAIR_STARS", 40)
        assert len(build_pair_database(self._row_of_stars(40), 5.5, math.radians(35))) == 40 * 39 // 2
        with pytest.raises(CatalogError) as info:
            build_pair_database(self._row_of_stars(41), 5.5, math.radians(35))
        assert str(info.value) == (
            "41 stars are at or brighter than mag_limit 5.5, more than the cap of 40: "
            "the pair table may hold up to 41 * 40 / 2 = 820 pairs"
        )
        # only the stars that pass the magnitude filter count
        assert len(build_pair_database(self._row_of_stars(45, faint=5), 5.5, math.radians(35))) == 40 * 39 // 2

    def test_star_cap_is_the_sky_cap(self):
        assert star_catalog.MAX_PAIR_STARS == MAX_SKY_STARS == 10_000

    @pytest.mark.parametrize("command", ["build-catalog", "montecarlo"])
    def test_cli_rejects_a_catalog_file_over_the_cap(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(star_catalog, "MAX_PAIR_STARS", 40)
        path = tmp_path / "catalog.csv"
        save_catalog(self._row_of_stars(41), path)
        out = tmp_path / "out"
        if command == "build-catalog":
            args = ["build-catalog", "--in", str(path), "--out", str(out)]
        else:
            args = ["montecarlo", "--n", "2", "--sigma-r", "1e4", "--seed", "1", "--out", str(out), "--catalog", str(path)]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 41 stars are at or brighter than mag_limit 5.5, more than the cap of 40: "
            "the pair table may hold up to 41 * 40 / 2 = 820 pairs\n"
        )
        assert not out.exists()

    def test_interstar_angle_symmetric(self):
        cat = synthetic_catalog(20, 8, -1.0, 6.5, 0.35)
        v = cat.unit_vectors
        for a in range(len(v)):
            for b in range(len(v)):
                assert angular_separation(v[a], v[b]) == angular_separation(v[b], v[a])


def _db_from_cosines(s):
    s = np.asarray(s, dtype=float)
    return PairDatabase(
        cos_angles=s,
        star_i=np.arange(len(s)),
        star_j=np.arange(len(s)) + 1000,
        mag_limit=5.5,
        max_angle_rad=math.pi / 2,
    )


class TestKVector:
    def test_three_point_line(self):
        db = _db_from_cosines([0.0, 0.5, 1.0])
        idx = build_kvector(db)
        assert idx.intercept == 0.0
        assert idx.slope == pytest.approx(0.5)
        assert idx.counts[0] == 0
        assert np.all(np.diff(idx.counts) >= 0)

    def test_counts_match_definition_random(self):
        rng = np.random.default_rng(6)
        s = np.sort(rng.uniform(0.2, 0.99, 100))
        idx = build_kvector(_db_from_cosines(s))
        for k in range(len(s)):
            line = idx.intercept + idx.slope * k
            assert idx.counts[k] == np.sum(s < line)

    def test_counts_with_ties(self):
        s = np.array([0.1, 0.3, 0.3, 0.3, 0.3, 0.7, 0.9])
        idx = build_kvector(_db_from_cosines(s))
        for k in range(len(s)):
            line = idx.intercept + idx.slope * k
            assert idx.counts[k] == np.sum(s < line)
        assert idx.counts[0] == 0
        assert idx.counts.max() <= len(s)

    def test_degenerate_range_rejected(self):
        with pytest.raises(CatalogError, match="degenerate"):
            build_kvector(_db_from_cosines([0.4, 0.4, 0.4]))

    def test_counts_bounded_and_monotone(self, sky):
        _, db, idx = sky
        assert idx.counts[0] == 0
        assert idx.counts.min() >= 0
        assert idx.counts.max() <= len(db)
        assert np.all(np.diff(idx.counts) >= 0)


@pytest.fixture(scope="module")
def db200():
    cat = synthetic_catalog(70, 3, mag_bright=0.0, mag_faint=5.0, slope=0.3)
    db = build_pair_database(cat, 5.5, math.radians(40))
    assert len(db) >= 200
    return db, build_kvector(db)


class TestRangeQuery:

    def test_far_outside_range_empty(self, db200):
        db, idx = db200
        assert len(kvector_range_query(idx, db, math.radians(80), math.radians(0.001))) == 0
        assert len(kvector_range_query(idx, db, 1e-9, 1e-9)) == 0

    def test_exact_cataloged_angle_zero_epsilon(self, db200):
        db, idx = db200
        s = db.cos_angles
        roundtrip = np.nonzero(np.cos(np.arccos(s)) == s)[0]
        assert len(roundtrip)  # representable cases exist
        p = int(roundtrip[len(roundtrip) // 2])
        hits = kvector_range_query(idx, db, math.acos(s[p]), 0.0)
        assert p in hits.tolist()

    def test_matches_linear_scan(self, db200):
        db, idx = db200
        rng = np.random.default_rng(12)
        for _ in range(1000):
            gamma = rng.uniform(0.0, math.radians(50))
            eps = rng.choice([0.0, 1e-6, 3.4e-5, rng.uniform(0, 0.03)])
            got = kvector_range_query(idx, db, gamma, eps)
            lo, hi = math.cos(gamma + eps), math.cos(gamma - eps)
            want = np.nonzero((db.cos_angles >= lo) & (db.cos_angles <= hi))[0]
            np.testing.assert_array_equal(got, want)

    def test_negative_epsilon_rejected(self, db200):
        db, idx = db200
        with pytest.raises(ValueError):
            kvector_range_query(idx, db, 0.3, -1e-9)


def test_artifact_roundtrip_bit_exact(tmp_path, sky):
    _, db, idx = sky
    path = tmp_path / "onboard.npz"
    save_pair_database(db, path)
    with np.load(path) as z:
        assert z.files == ["cos_angles", "star_i", "star_j", "mag_limit", "max_angle_rad"]
    db2, idx2 = load_pair_database(path)
    np.testing.assert_array_equal(db.cos_angles, db2.cos_angles)
    np.testing.assert_array_equal(db.star_i, db2.star_i)
    np.testing.assert_array_equal(db.star_j, db2.star_j)
    np.testing.assert_array_equal(idx.counts, idx2.counts)
    assert (db.mag_limit, db.max_angle_rad) == (db2.mag_limit, db2.max_angle_rad)
    assert (idx.intercept, idx.slope) == (idx2.intercept, idx2.slope)


def _artifact(tmp_path, desk_db, **changes):
    """An .npz pair database written key by key; a change of None drops the key."""
    db, _ = desk_db
    arrays = dict(
        cos_angles=db.cos_angles, star_i=db.star_i, star_j=db.star_j,
        mag_limit=np.float64(db.mag_limit), max_angle_rad=np.float64(db.max_angle_rad),
    )
    arrays.update(changes)
    path = tmp_path / "onboard.npz"
    np.savez(path, **{key: value for key, value in arrays.items() if value is not None})
    return path


class TestLoadPairDatabase:
    def test_missing_key_named(self, tmp_path, desk_db):
        path = _artifact(tmp_path, desk_db, star_i=None, max_angle_rad=None)
        with pytest.raises(CatalogError, match=f"^{path}: missing star_i, max_angle_rad$"):
            load_pair_database(path)

    @pytest.mark.parametrize("name", ["cos_angles", "star_j"])
    def test_unequal_lengths_rejected(self, tmp_path, desk_db, name):
        db, _ = desk_db
        short = getattr(db, name)[:-1]
        path = _artifact(tmp_path, desk_db, **{name: short})
        with pytest.raises(CatalogError, match=f"^{path}: .* not 1-D arrays of one length$"):
            load_pair_database(path)

    def test_unsorted_cosines_rejected(self, tmp_path, desk_db):
        db, _ = desk_db
        path = _artifact(tmp_path, desk_db, cos_angles=db.cos_angles[[1, 0, *range(2, len(db))]])
        with pytest.raises(CatalogError, match=f"^{path}: cos_angles are not sorted ascending$"):
            load_pair_database(path)

    def test_equal_cosines_rejected(self, tmp_path, desk_db):
        db, _ = desk_db
        path = _artifact(tmp_path, desk_db, cos_angles=np.full(len(db), 0.5))
        with pytest.raises(CatalogError, match=f"^{path}: degenerate invariant range"):
            load_pair_database(path)

    @pytest.mark.parametrize("stale", [False, True], ids=["as_built", "stale"])
    def test_artifact_with_kvector_keys_loads(self, tmp_path, desk_db, stale):
        """An artifact that still stores the k-vector (counts, intercept,
        slope) loads to the same pair table and to ``build_kvector`` of
        it, whatever those keys hold."""
        db, idx = desk_db
        kvector = dict(counts=idx.counts, intercept=np.float64(idx.intercept), slope=np.float64(idx.slope))
        if stale:
            kvector = dict(counts=idx.counts + 1, intercept=np.float64(0.0), slope=np.float64(1.0))
        db2, idx2 = load_pair_database(_artifact(tmp_path, desk_db, **kvector))
        for name in ("cos_angles", "star_i", "star_j"):
            a, b = getattr(db, name), getattr(db2, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (db2.mag_limit, db2.max_angle_rad) == (db.mag_limit, db.max_angle_rad)
        rebuilt = build_kvector(db)
        assert idx2.counts.dtype == rebuilt.counts.dtype and idx2.counts.tobytes() == rebuilt.counts.tobytes()
        line, rebuilt_line = (np.float64([k.intercept, k.slope]).tobytes() for k in (idx2, rebuilt))
        assert line == rebuilt_line


class TestCheckPairsMatch:
    def test_source_catalog_matches_after_file_round_trip(self, tmp_path, desk_catalog, desk_db):
        check_pairs_match(desk_db[0], desk_catalog)
        save_catalog(desk_catalog, tmp_path / "cat.csv")  # angles back to within one ulp
        check_pairs_match(desk_db[0], load_catalog(tmp_path / "cat.csv"))

    def test_star_fainter_than_mag_limit_rejected(self, desk_db):
        db, _ = desk_db
        faint = catalog_from_records((i, ra, dec, 5.6 if i == 5 else m) for i, ra, dec, m in DESK_STARS)
        k = int(np.flatnonzero((db.star_i == 5) | (db.star_j == 5))[0])
        with pytest.raises(CatalogError, match=rf"^pair {k} \(.*\) holds a star fainter than mag_limit 5.5$"):
            check_pairs_match(db, faint)


# --- the columnar catalog -----------------------------------------------------

star_ids = st.integers(-(2**63), 2**63 - 1)


def _catalog_of(ids):
    return catalog_from_records((star_id, 0.1 * k, 0.0, 1.0) for k, star_id in enumerate(ids))


class TestColumns:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 2.0 * math.pi, exclude_max=True), st.floats(-math.pi / 2, math.pi / 2)),
            max_size=50,
        )
    )
    def test_unit_vectors_equal_scalar_math(self, angles):
        cat = catalog_from_records((k, ra, dec, 1.0) for k, (ra, dec) in enumerate(angles))
        want = [
            [math.cos(dec) * math.cos(ra), math.cos(dec) * math.sin(ra), math.sin(dec)] for ra, dec in angles
        ]
        assert cat.unit_vectors.shape == (len(angles), 3)
        assert cat.unit_vectors.tobytes() == np.array(want, dtype=float).reshape(-1, 3).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(star_ids, min_size=1, max_size=40, unique=True), st.randoms(use_true_random=False))
    def test_rows_of_equals_dict_lookup(self, ids, random):
        cat = _catalog_of(ids)
        row_by_id = {star_id: row for row, star_id in enumerate(ids)}
        query = random.sample(ids, len(ids)) + random.choices(ids, k=5)
        assert cat.rows_of(query).tolist() == [row_by_id[star_id] for star_id in query]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(star_ids, max_size=20, unique=True), st.lists(star_ids, min_size=1, max_size=5))
    def test_missing_id_named(self, ids, extra):
        missing = [star_id for star_id in extra if star_id not in ids]
        cat = _catalog_of(ids)
        if not missing:
            assert len(cat.rows_of(ids + extra)) == len(ids + extra)
            return
        with pytest.raises(CatalogError, match=f"^star id {min(missing)} is not in the catalog$"):
            cat.rows_of(ids + extra)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(star_ids, min_size=1, max_size=20), st.data())
    def test_repeated_id_rejected(self, ids, data):
        repeated = data.draw(st.sampled_from(ids))
        dups = sorted({i for i in ids + [repeated] if (ids + [repeated]).count(i) > 1})
        with pytest.raises(CatalogError, match=f"duplicate star id {dups[0]}$"):
            _catalog_of(ids + [repeated])

    def test_columns_read_only(self, desk_catalog):
        for column in (desk_catalog.ids, desk_catalog.magnitudes, desk_catalog.unit_vectors):
            with pytest.raises(ValueError):
                column[0] = 0


def test_solve_attitude_with_foreign_catalog_names_the_missing_star(camera, desk_catalog, desk_db):
    scene = SceneSpec(
        camera=camera, true_attitude=DESK_POINTING, sc_position_km=np.zeros(3),
        star_catalog=desk_catalog, photon_noise=False, seed=11,
    )
    image, _ = render(scene)
    cfg = PipelineConfig()
    without_star_2 = catalog_from_records(row for row in DESK_STARS if row[0] != 2)
    with pytest.raises(CatalogError, match="star id 2 is not in the catalog"):
        solve_attitude(image.data, camera, without_star_2, *desk_db, cfg.identify_config(), cfg.ransac_config())
