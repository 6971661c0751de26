"""Property: the threshold of an 8-bit frame equals the histogram form.

The reference takes both moments from a 256-bin ``np.bincount`` with
exact integer sums, as ``compute_threshold`` did before it summed the
frame directly; the threshold must match bit for bit.  The frames reach
the edges of ``compute_threshold``'s pass: its blocks of
``max(1, _MOMENT_BLOCK // width)`` rows and its float32 runs of
``_MOMENT_ROW`` pixels, which straddle rows wherever the width is not a
multiple of 256.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from opnav.centroiding import _MOMENT_BLOCK, _MOMENT_ROW, _SQUARE_BLOCK, compute_threshold


def histogram_threshold(image, t):
    counts = np.bincount(image.ravel(), minlength=256)
    levels = np.arange(256, dtype=np.int64)
    n = image.size
    s1 = int(counts @ levels)
    s2 = int(counts @ (levels * levels))
    return float(s1 / n + t * math.sqrt((n * s2 - s1 * s1) / (n * n)))


t_values = st.one_of(st.sampled_from([0.0, 1.0, 20.0]), st.floats(-50.0, 50.0))


@settings(max_examples=300, deadline=None)
@given(
    image=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=64)),
    t=t_values,
)
def test_threshold_equals_histogram_form(image, t):
    assert compute_threshold(image, t) == histogram_threshold(image, t)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), high=st.integers(1, 256), t=t_values)
def test_threshold_equals_histogram_form_full_frame(seed, high, t):
    image = np.random.default_rng(seed).integers(0, high, (1024, 1024), dtype=np.uint8)
    assert compute_threshold(image, t) == histogram_threshold(image, t)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(200, 600),
    height=st.integers(1, 1200),
    high=st.integers(1, 256),
    t=t_values,
)
def test_threshold_equals_histogram_form_unaligned_widths(seed, width, height, high, t):
    """Up to six row blocks, whose pixels rarely fill a whole number of runs."""
    image = np.random.default_rng(seed).integers(0, high, (height, width), dtype=np.uint8)
    assert compute_threshold(image, t) == histogram_threshold(image, t)


def _frame(seed, height, width):
    return np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)


# 2^16-pixel row blocks: for the moments, frames that end inside one block
ROWS_1024 = _SQUARE_BLOCK // 1024
WIDEST_ONE_ROW = _SQUARE_BLOCK // 2 + 1
MOMENT_ROWS_1024 = _MOMENT_BLOCK // 1024  # rows cast to float32 at a time in a 1024-wide frame


def _two_blocks(seed, width):
    """A frame one row past a whole block of rows at this width, so the
    last block is short and its runs end inside the buffer's stale rows."""
    return _frame(seed, _MOMENT_BLOCK // width + 1, width)


@pytest.mark.parametrize(
    "image",
    [
        np.full((1, 1), 173, dtype=np.uint8),
        np.zeros((37, 41), dtype=np.uint8),
        np.full((37, 41), 255, dtype=np.uint8),
        # a row whose sum of squares overflows 32 bits
        np.full((1, 70_000), 255, dtype=np.uint8),
        np.random.default_rng(5).integers(0, 256, (1, 70_000), dtype=np.uint8),
        np.random.default_rng(6).integers(0, 256, (1024, 1024), dtype=np.uint8)[::2, 1::3],
        # at the row blocks of the squares
        _frame(1, ROWS_1024 - 1, 1024),
        _frame(2, ROWS_1024, 1024),
        _frame(3, ROWS_1024 + 1, 1024),
        _frame(4, 2 * ROWS_1024 + 1, 1024),
        _frame(5, 1, 1024),
        _frame(7, 3, WIDEST_ONE_ROW),
        np.full((3, WIDEST_ONE_ROW), 255, dtype=np.uint8),
        # at the float32 row blocks and runs of the moments
        _frame(11, MOMENT_ROWS_1024 - 1, 1024),
        _frame(12, MOMENT_ROWS_1024, 1024),
        _frame(13, MOMENT_ROWS_1024 + 1, 1024),
        _two_blocks(14, _MOMENT_ROW - 1),
        _two_blocks(15, _MOMENT_ROW),
        _two_blocks(16, _MOMENT_ROW + 1),
        _two_blocks(17, 1000),
        np.full((_MOMENT_BLOCK // 1000 + 1, 1000), 255, dtype=np.uint8),
        # one row wider than a block: the buffer holds the row, padded to whole runs
        np.full((1, _MOMENT_BLOCK + 5), 255, dtype=np.uint8),
        _frame(18, 700, 900)[::-3, 2::5],
    ],
    ids=[
        "1x1", "all_0", "all_255", "1x70000_all_255", "1x70000_random", "strided",
        "block_minus_1", "block", "block_plus_1", "two_blocks_plus_1", "1x1024", "1_row_blocks", "1_row_blocks_all_255",
        "moment_block_minus_1", "moment_block", "moment_block_plus_1",
        "width_255", "width_256", "width_257", "width_1000", "width_1000_all_255",
        "1x(2^17+5)_all_255", "strided_reversed",
    ],
)
@pytest.mark.parametrize("t", [0.0, 20.0])
def test_threshold_edge_frames(image, t):
    assert compute_threshold(image, t) == histogram_threshold(image, t)

