"""Property: every text format reads through ``star_catalog.read_lines``.

A catalog, ephemeris, truth sidecar or config written by its writer loads
the same after its lines are re-ended with LF, CRLF or a lone CR and
blank and ``#`` lines are put between them.  A byte that is not UTF-8 on
line k raises the format's own error class, and the message starts with
``<path> line k:``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnav.config import PipelineConfig, load_config, save_config
from opnav.ephemeris import EphemerisError, Planet, load_ephemeris, save_ephemeris
from opnav.geometry import PointingAngles
from opnav.renderer import GroundTruth, TruthObject, read_truth, write_truth
from opnav.star_catalog import CatalogError, catalog_from_records, load_catalog, save_catalog

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8)

catalogs = st.lists(
    st.tuples(st.floats(0.0, 2.0 * math.pi, exclude_max=True), st.floats(-math.pi / 2, math.pi / 2), finite),
    max_size=8,
).map(lambda stars: catalog_from_records((i + 1, ra, dec, m) for i, (ra, dec, m) in enumerate(stars)))

ephemerides = st.dictionaries(
    names,
    st.dictionaries(names, st.tuples(st.tuples(finite, finite, finite), finite), min_size=1, max_size=3),
    max_size=3,
).map(lambda table: {e: tuple(Planet(n, p, m) for n, (p, m) in rows.items()) for e, rows in table.items()})

truths = st.builds(
    GroundTruth,
    objects=st.lists(
        st.builds(
            TruthObject, st.sampled_from(["star", "planet"]), names, finite, finite, st.floats(0.0, 255.0), st.booleans()
        ),
        max_size=6,
    ).map(tuple),
    attitude=st.builds(
        PointingAngles, st.floats(-10.0, 10.0), st.floats(-math.pi / 2, math.pi / 2), st.floats(-10.0, 10.0)
    ),
)

configs = st.builds(
    PipelineConfig, threshold_t=st.floats(0.0, 100.0), ransac_samples=st.integers(1, 1024), photon_noise=st.booleans()
)


def catalog_key(catalog):
    columns = (catalog.ids, catalog.right_ascension, catalog.declination, catalog.magnitudes, catalog.unit_vectors)
    return [column.tobytes() for column in columns]


def ephemeris_key(table):
    return [(e, [(p.name, p.position_km.tobytes(), repr(p.magnitude)) for p in ps]) for e, ps in table.items()]


def truth_key(truth):
    a = truth.attitude
    objects = [(o.kind, o.ident, np.array([o.x, o.y, o.peak_dn]).tobytes(), o.visible) for o in truth.objects]
    return objects, np.array([a.alpha, a.delta, a.phi]).tobytes()


def config_key(cfg):
    return repr(dataclasses.astuple(cfg))


# name: (values, writer, reader, error class, comparable form of what the reader returns)
FORMATS = {
    "catalog": (catalogs, save_catalog, load_catalog, CatalogError, catalog_key),
    "ephemeris": (ephemerides, save_ephemeris, load_ephemeris, EphemerisError, ephemeris_key),
    "truth": (truths, write_truth, read_truth, ValueError, truth_key),
    "config": (configs, save_config, load_config, ValueError, config_key),
}
ENDINGS = [b"\n", b"\r\n", b"\r"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("text")


def written(data, workdir):
    """The path of a drawn value written by its format's writer, and the
    format's reader, error class and comparable form."""
    name = data.draw(st.sampled_from(sorted(FORMATS)))
    values, write, read, error, key = FORMATS[name]
    path = workdir / f"{name}.txt"
    write(data.draw(values), path)
    return path, read, error, key


def relaid(data, path):
    """The lines of ``path`` with blank and ``#`` lines drawn between them
    and trailing blanks drawn after them, then one drawn line ending and
    whether the last line ends."""
    lines = []
    for line in path.read_bytes().split(b"\n")[:-1]:
        lines += data.draw(st.lists(st.sampled_from([b"", b"  \t", b"# note", b"  # note, 1,2,3"]), max_size=2))
        lines.append(line + data.draw(st.sampled_from([b"", b" ", b"\t"])))
    ending = data.draw(st.sampled_from(ENDINGS))
    return lines, ending, data.draw(st.sampled_from([ending, b""]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_line_endings_blank_and_comment_lines(workdir, data):
    path, read, error, key = written(data, workdir)
    expected = key(read(path))
    lines, ending, tail = relaid(data, path)
    path.write_bytes(ending.join(lines) + tail)
    assert key(read(path)) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_undecodable_byte_names_its_line(workdir, data):
    path, read, error, _ = written(data, workdir)
    lines, ending, tail = relaid(data, path)
    k = data.draw(st.integers(1, len(lines)))
    at = data.draw(st.integers(0, len(lines[k - 1])))
    lines[k - 1] = lines[k - 1][:at] + b"\xff" + lines[k - 1][at:]
    path.write_bytes(ending.join(lines) + tail)
    with pytest.raises(error) as info:
        read(path)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{path} line {k}: byte 0xff is not UTF-8")
