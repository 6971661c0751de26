import numpy as np
import pytest

from opnav.ephemeris import EphemerisError, Planet, load_ephemeris, planets_at, save_ephemeris


def test_single_entry(tmp_path):
    path = tmp_path / "eph.csv"
    path.write_text("# header\nmars,t0,2.2e8,0,0,-1.0\n")
    table = load_ephemeris(path)
    assert list(table) == ["t0"] and len(table["t0"]) == 1
    planet = table["t0"][0]
    assert planet.name == "mars"
    np.testing.assert_array_equal(planet.position_km, [2.2e8, 0.0, 0.0])
    assert planet.magnitude == -1.0


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_ephemeris(path) == {}
    assert planets_at(path) == ()


def test_duplicate_name_epoch_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("mars,t0,1,2,3,0\nmars,t0,4,5,6,1\n")
    with pytest.raises(EphemerisError) as info:
        load_ephemeris(path)
    assert str(info.value) == f"{path} line 2: duplicate entry ('mars', 't0')"


def test_same_name_different_epoch_ok(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("mars,t0,1,2,3,0.5\nmars,t1,4,5,6,0.6\n")
    table = load_ephemeris(path)
    assert tuple(table) == ("t0", "t1")
    assert len(table["t1"]) == 1
    assert planets_at(path)[0].magnitude == 0.5  # first epoch by default
    assert planets_at(path, "t1")[0].magnitude == 0.6
    with pytest.raises(EphemerisError, match="no epoch 't2'"):
        planets_at(path, "t2")


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mars,t0,1,2,3,0\nvenus,t0,x,2,3,0\n")
    with pytest.raises(EphemerisError) as info:
        load_ephemeris(path)
    assert str(info.value) == f"{path} line 2: unparseable field (could not convert string to float: 'x')"


@pytest.mark.parametrize(
    "line, reason",
    [
        ("venus,t0,1,2", "expected 6 fields, got 4"),
        ("venus,t0,inf,2,3,0", "bad position for venus: [inf, 2.0, 3.0]"),
        ("venus,t0,1,2,3,nan", "magnitude nan of venus is not finite"),
        ("venus,t0,1,2,3,-inf", "magnitude -inf of venus is not finite"),
    ],
    ids=["short", "inf_position", "nan_magnitude", "inf_magnitude"],
)
def test_line_error_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "bad.csv"
    path.write_text(f"mars,t0,1,2,3,0\n{line}\n")
    with pytest.raises(EphemerisError) as info:
        load_ephemeris(path)
    assert str(info.value) == f"{path} line 2: {reason}"


def test_nonfinite_position_rejected():
    with pytest.raises(EphemerisError):
        Planet("x", np.array([np.inf, 0, 0]), 1.0)
    with pytest.raises(EphemerisError):
        Planet("x", np.zeros(2), 1.0)


@pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf])
def test_nonfinite_magnitude_rejected(magnitude):
    with pytest.raises(EphemerisError, match=f"magnitude {magnitude} of x is not finite"):
        Planet("x", np.zeros(3), magnitude)


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    table = {
        epoch: tuple(
            Planet(f"planet{i}", rng.uniform(-5e8, 5e8, 3), float(rng.uniform(-4, 9)))
            for i in range(5)
        )
        for epoch in ("t0", "t1")
    }
    path = tmp_path / "round.csv"
    save_ephemeris(table, path)
    back = load_ephemeris(path)
    assert list(back) == list(table)
    for epoch in table:
        assert len(back[epoch]) == len(table[epoch])
        for a, b in zip(back[epoch], table[epoch]):
            assert a.name == b.name
            np.testing.assert_array_equal(a.position_km, b.position_km)
            assert a.magnitude == b.magnitude
    save_ephemeris(back, tmp_path / "round2.csv")
    assert (tmp_path / "round2.csv").read_bytes() == path.read_bytes()
