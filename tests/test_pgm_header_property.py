"""Property: ``read_pgm`` takes every header of the P5 grammar and names
the file on every other one.

A header is ``P5``, then width, height and maxval 255, each after
whitespace or ``#``-to-newline comments, then exactly one whitespace
byte.  Headers built from random separators read back the written frame;
each malformed header raises one ValueError that starts with the path.
"""

import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from opnav.renderer import read_pgm

WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
comments = st.binary(max_size=12).filter(lambda c: b"\n" not in c).map(lambda c: b"#" + c + b"\n")
separators = st.lists(st.one_of(st.sampled_from(WHITESPACE), comments), min_size=1, max_size=4).map(b"".join)
frames = arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16))


def number(value: int, zeros: int = 0) -> bytes:
    return b"0" * zeros + str(value).encode("ascii")


def header(seps, fields, last: bytes = b"\n") -> bytes:
    """``P5`` and the three fields, each after its separator, and the
    whitespace byte before the pixels."""
    return b"P5" + b"".join(sep + field for sep, field in zip(seps, fields)) + last


def check_rejected(path, blob: bytes, reason: str) -> None:
    path.write_bytes(blob)
    with pytest.raises(ValueError) as info:
        read_pgm(path)
    assert str(info.value).startswith(f"{path}: {reason}")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    frame=frames,
    seps=st.lists(separators, min_size=3, max_size=3),
    zeros=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    last=st.sampled_from(WHITESPACE),
)
def test_header_grammar_reads_back_the_frame(tmp_path, frame, seps, zeros, last):
    height, width = frame.shape
    fields = [number(v, z) for v, z in zip((width, height, 255), zeros)]
    path = tmp_path / "frame.pgm"
    path.write_bytes(header(seps, fields, last) + frame.tobytes())
    back = read_pgm(path).data
    assert back.dtype == np.uint8 and back.shape == frame.shape
    np.testing.assert_array_equal(back, frame)


MALFORMED = "malformed or truncated PGM header"


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seps=st.lists(separators, min_size=3, max_size=3),
    field=st.integers(0, 2),
    sign=st.sampled_from([b"+", b"-"]),
)
def test_signed_field_rejected(tmp_path, seps, field, sign):
    fields = [b"2", b"3", b"255"]
    fields[field] = sign + fields[field]
    check_rejected(tmp_path / "signed.pgm", header(seps, fields) + bytes(6), MALFORMED)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seps=st.lists(separators, min_size=3, max_size=3),
    field=st.integers(0, 2),
    letters=st.text(string.ascii_letters, min_size=1, max_size=4).map(str.encode),
)
def test_letters_rejected(tmp_path, seps, field, letters):
    fields = [b"2", b"3", b"255"]
    fields[field] = letters
    check_rejected(tmp_path / "letters.pgm", header(seps, fields) + bytes(6), MALFORMED)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seps=st.lists(separators, min_size=3, max_size=3), field=st.integers(0, 2))
def test_decimal_point_rejected(tmp_path, seps, field):
    fields = [b"2", b"3", b"255"]
    fields[field] += b".0"
    check_rejected(tmp_path / "decimal.pgm", header(seps, fields) + bytes(6), MALFORMED)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seps=st.lists(separators, min_size=3, max_size=3))
def test_no_separator_after_magic_rejected(tmp_path, seps):
    check_rejected(tmp_path / "joined.pgm", header([b""] + seps[1:], [b"2", b"3", b"255"]) + bytes(6), MALFORMED)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seps=st.lists(separators, min_size=3, max_size=3),
    size=st.sampled_from([(0, 3), (2, 0), (0, 0), (99999999999999999999, 0)]),
)
def test_zero_width_or_height_rejected(tmp_path, seps, size):
    width, height = size
    blob = header(seps, [number(width), number(height), b"255"])
    check_rejected(tmp_path / "empty.pgm", blob, f"empty {width}x{height} frame")


@pytest.mark.parametrize("field", range(3))
def test_field_too_long_for_int_rejected(tmp_path, field):
    fields = [b"2", b"3", b"255"]
    fields[field] = b"1" * 5000
    check_rejected(tmp_path / "long.pgm", header([b"\n"] * 3, fields), "PGM header field too long")


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seps=st.lists(separators, min_size=3, max_size=3), maxval=st.integers(0, 2**16).filter(lambda v: v != 255))
def test_other_maxval_rejected(tmp_path, seps, maxval):
    blob = header(seps, [b"2", b"3", number(maxval)]) + bytes(6 * (1 + (maxval > 255)))
    check_rejected(tmp_path / "maxval.pgm", blob, f"unsupported maxval {maxval}")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seps=st.lists(separators, min_size=3, max_size=3), data=st.data())
def test_eof_inside_header_rejected(tmp_path, seps, data):
    full = header(seps, [b"2", b"3", b"255"])
    cut = data.draw(st.integers(0, len(full) - 1))
    check_rejected(tmp_path / "cut.pgm", full[:cut], MALFORMED)

