"""Property: row- and column-packed extract_rois equals full-frame
labelling, and compute_centroid equals each box's exact quotients.

The reference labels the whole frame with ``ndimage.label`` and boxes
each component, one ``(x0, y0, x1, y1, span)`` tuple per component, the
way extract_rois always has: row-major order of the seed pixel, a
one-pixel margin clipped to the frame, and the span, the larger of the
member pixels' x and y extents.  extract_rois joins runs by union-find
and uses no scipy; ``ndimage`` is the test's independent reference.

The centroid reference sums I^2, x I^2 and y I^2 of each box as Python
ints and rounds ``Fraction(sum(x I^2), sum(I^2))`` (and y) once; the
array pass must agree bit for bit, and its peak must be the box maximum,
at the default cell budget and at budgets that split every box.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from opnav import centroiding
from opnav.centroiding import compute_centroid, extract_rois, find_centroids


def reference_rois(image, threshold):
    height, width = image.shape
    labels, n = ndimage.label(image > threshold, structure=np.ones((3, 3), dtype=bool))
    rois = []
    for k in range(1, n + 1):
        ys, xs = np.nonzero(labels == k)
        rois.append(
            (
                int(ys[0]) * width + int(xs[0]),
                max(int(xs.min()) - 1, 0),
                max(int(ys.min()) - 1, 0),
                min(int(xs.max()) + 1, width - 1),
                min(int(ys.max()) + 1, height - 1),
                max(int(xs.max() - xs.min()), int(ys.max() - ys.min())),
            )
        )
    return [r[1:] for r in sorted(rois, key=lambda r: r[0])]


def check(image, threshold):
    boxes, span = extract_rois(image, threshold)
    assert boxes.dtype == span.dtype == np.int64
    assert boxes.shape == (len(span), 4) and span.shape == (len(span),)
    assert [(*box, s) for box, s in zip(boxes.tolist(), span.tolist())] == reference_rois(image, threshold)


shapes = st.tuples(st.integers(1, 20), st.integers(1, 20))


@st.composite
def sparse_rows(draw):
    """uint8 frames where most rows are blank, so runs of lit rows are
    often split by exactly one blank row."""
    height, width = draw(shapes)
    image = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        if draw(st.booleans()):
            image[y] = draw(arrays(np.uint8, width, elements=st.sampled_from([0, 0, 0, 200])))
    return image


@settings(max_examples=300, deadline=None)
@given(
    image=shapes.flatmap(lambda s: arrays(np.uint8, s)),
    threshold=st.one_of(st.integers(-1, 256), st.floats(-2.0, 260.0, allow_nan=False)),
)
def test_uint8_frames(image, threshold):
    check(image, threshold)


# A uint8 frame is compared against the integer floor of a threshold in
# [0, 255): at and beside whole numbers, below 0 and at or above 255 the
# mask must stay the float comparison's, bit for bit.
EDGE_THRESHOLDS = [
    0.0, 1.0, 99.0, 100.0, 254.0, 254.5, np.nextafter(255.0, 0.0), np.nextafter(100.0, 0.0),
    np.nextafter(100.0, 200.0), 0.5, np.nextafter(0.0, 1.0), -0.0, -0.5, -1.0, -1e300, -np.inf,
    255.0, 255.5, 256.0, 1e300, np.inf, np.nan,
]


@settings(max_examples=300, deadline=None)
@given(
    image=shapes.flatmap(lambda s: arrays(np.uint8, s, elements=st.sampled_from([0, 1, 99, 100, 101, 254, 255]))),
    threshold=st.sampled_from(EDGE_THRESHOLDS) | st.integers(-3, 258).map(float),
)
@example(image=np.array([[0, 100, 101], [255, 254, 0]], dtype=np.uint8), threshold=100.0)
@example(image=np.array([[0, 100, 101], [255, 254, 0]], dtype=np.uint8), threshold=-1.0)
@example(image=np.array([[0, 100, 101], [255, 254, 0]], dtype=np.uint8), threshold=255.0)
def test_uint8_frames_at_edge_thresholds(image, threshold):
    check(image, threshold)


@settings(max_examples=300, deadline=None)
@given(image=sparse_rows(), threshold=st.sampled_from([0, 100, 199.5, 200]))
@example(  # components on the frame border: all four corners and a full edge row
    image=np.array(
        [[200, 0, 0, 200], [0, 0, 0, 0], [200, 0, 0, 200], [0, 0, 0, 0], [200, 200, 200, 200]],
        dtype=np.uint8,
    ),
    threshold=100,
)
@example(  # two rows apart: never connected, even diagonally
    image=np.array([[200, 0, 0], [0, 0, 0], [0, 200, 0]], dtype=np.uint8), threshold=100
)
@example(  # diagonal neighbours in adjacent rows are one component
    image=np.array([[0, 0, 200], [0, 200, 0], [0, 0, 0], [200, 0, 0]], dtype=np.uint8),
    threshold=100,
)
@example(  # a U: the bottom run touches the two runs above it, which it joins
    image=np.array([[200, 0, 200], [200, 0, 200], [200, 200, 200]], dtype=np.uint8), threshold=100
)
@example(  # runs that touch only at a corner, to either side, and one that touches nothing
    image=np.array([[200, 200, 0, 0, 0], [0, 0, 200, 0, 0], [0, 200, 0, 0, 0], [0, 0, 0, 0, 200]], dtype=np.uint8),
    threshold=100,
)
@example(  # a comb: one run under four teeth, the last of which it touches only diagonally
    image=np.array([[200, 0, 200, 0, 200, 0, 0, 200], [200, 200, 200, 200, 200, 200, 200, 0]], dtype=np.uint8),
    threshold=100,
)
@example(  # a W over a U: two joins in one row, then a run below that joins their roots
    image=np.array(
        [
            [200, 0, 200, 0, 200, 0, 200],
            [200, 0, 200, 0, 200, 0, 200],
            [200, 200, 200, 0, 200, 200, 200],
            [0, 0, 200, 200, 200, 0, 0],
        ],
        dtype=np.uint8,
    ),
    threshold=100,
)
def test_sparse_uint8_frames(image, threshold):
    check(image, threshold)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 80), st.integers(1, 80)),
    density=st.floats(0.3, 0.75),
)
def test_dense_frames(seed, shape, density):
    # near the percolation density, components branch and merge many times,
    # so union-find hooks roots under roots in chains
    image = (np.random.default_rng(seed).random(shape) < density).astype(np.uint8) * 200
    check(image, 100)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    density=st.floats(0.3, 0.75),
)
def test_int64_keys_give_the_int32_components(seed, shape, density):
    # a frame whose keys reach 2**31 (past the frame-size cap) takes int64
    # keys; on any frame they must give the components of int32 keys
    lit = np.random.default_rng(seed).random(shape) < density
    rows = np.arange(shape[0])
    ends = [centroiding._component_ends(*centroiding._runs(lit, rows.astype(key)), shape[1]) for key in (np.int32, np.int64)]
    assert ends[0].dtype == ends[1].dtype == np.int64
    assert ends[0].tolist() == ends[1].tolist()


@settings(max_examples=200, deadline=None)
@given(
    image=shapes.flatmap(
        lambda s: arrays(np.float64, s, elements=st.floats(-5.0, 300.0, allow_nan=False))
    ),
    t=st.floats(-10.0, 310.0, allow_nan=False),
)
def test_float_frames(image, t):
    # frames are uint8: find_centroids rejects a float frame before any labelling
    with pytest.raises(ValueError, match="^expected a 2-D uint8 frame, got a 2-D float64 array$"):
        find_centroids(image, t)


@st.composite
def sparse_frames(draw):
    """uint8 frames where most rows and most columns are blank, so runs of
    lit columns, like runs of lit rows, are often split by one blank column."""
    height, width = draw(shapes)
    image = np.zeros((height, width), dtype=np.uint8)
    rows = draw(arrays(bool, height))
    cols = draw(arrays(bool, width))
    lit = draw(arrays(np.uint8, (int(rows.sum()), int(cols.sum())), elements=st.sampled_from([0, 0, 0, 200])))
    image[np.ix_(rows, cols)] = lit
    return image


@settings(max_examples=300, deadline=None)
@given(image=sparse_frames(), threshold=st.sampled_from([0, 100, 199.5, 200]))
@example(  # one blank column apart: never connected, even diagonally
    image=np.array([[200, 0, 200], [0, 0, 0], [200, 0, 0], [0, 0, 200]], dtype=np.uint8), threshold=100
)
@example(  # a diagonal touch across adjacent kept columns, next to a packed-away gap
    image=np.array([[0, 200, 0, 0, 0, 200, 0], [0, 0, 200, 0, 0, 0, 0]], dtype=np.uint8), threshold=100
)
@example(  # components in the first and the last column
    image=np.array([[200, 0, 0, 0, 200], [0, 0, 0, 0, 0], [200, 0, 0, 0, 200]], dtype=np.uint8),
    threshold=100,
)
@example(  # a pixel above the threshold in every column: nothing to pack
    image=np.array([[200, 0, 200, 0, 200], [0, 0, 0, 0, 0], [0, 200, 0, 200, 0]], dtype=np.uint8),
    threshold=100,
)
def test_sparse_columns(image, threshold):
    check(image, threshold)


def exact_centroid(box, image):
    """``(x, y, peak)`` of one box: the exact quotients, rounded once."""
    x0, y0, x1, y1 = box
    sq = image[y0 : y1 + 1, x0 : x1 + 1].astype(object) ** 2
    s0 = sq.sum()
    sx = (sq.sum(axis=0) * np.arange(x0, x1 + 1)).sum()
    sy = (sq.sum(axis=1) * np.arange(y0, y1 + 1)).sum()
    return float(Fraction(sx, s0)), float(Fraction(sy, s0)), int(image[y0 : y1 + 1, x0 : x1 + 1].max())


def check_centroids(boxes, image):
    xy, peak = compute_centroid(np.array(boxes, dtype=np.int64).reshape(-1, 4), image)
    assert xy.dtype == np.float64 and peak.dtype == np.int64
    assert [(x, y, p) for (x, y), p in zip(xy.tolist(), peak.tolist())] == [exact_centroid(b, image) for b in boxes]


@st.composite
def boxed_frames(draw):
    """A uint8 frame and up to eight inclusive boxes inside it, often
    overlapping, touching the frame edges or one pixel wide, each holding
    some signal."""
    height, width = draw(shapes)
    values = st.sampled_from([0, 0, 1, 7, 200, 255]) | st.integers(0, 255)
    image = draw(arrays(np.uint8, (height, width), elements=values))

    def ends(size):
        end = st.sampled_from([0, size - 1]) | st.integers(0, size - 1)
        return sorted((draw(end), draw(end)))

    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        (x0, x1), (y0, y1) = ends(width), ends(height)
        image[draw(st.integers(y0, y1)), draw(st.integers(x0, x1))] |= draw(st.sampled_from([1, 7, 200, 255]))
        boxes.append((x0, y0, x1, y1))
    return boxes, image


@pytest.mark.parametrize("budget", [centroiding._SQUARE_BLOCK, 1, 64], ids=["budget_2^16", "budget_1", "budget_64"])
@settings(max_examples=200, deadline=None)
@given(case=boxed_frames())
@example(case=([(0, 0, 3, 2)], np.arange(12, dtype=np.uint8).reshape(3, 4)))  # the whole frame
@example(case=([(4, 0, 4, 2), (2, 1, 2, 1)], np.full((3, 5), 9, dtype=np.uint8)))  # the last column, one pixel
@example(case=([(0, 0, 9, 9), (2, 3, 8, 9), (9, 9, 9, 9)], np.full((10, 10), 255, dtype=np.uint8)))  # saturated
def test_centroids_equal_exact_quotients(budget, case):
    boxes, image = case
    with mock.patch.object(centroiding, "_SQUARE_BLOCK", budget):
        check_centroids(boxes, image)


def test_box_above_the_budget():
    # a 300 x 300 box spans two blocks of 2^16 cells; the boxes after it share the second
    image = np.random.default_rng(27).integers(0, 256, (300, 300), dtype=np.uint8)
    check_centroids([(0, 0, 299, 299), (3, 4, 5, 4), (290, 0, 299, 299), (0, 299, 299, 299)], image)


def test_sums_past_float64_integers():
    # the last 65,536 pixels of a row of 3,000,000: sum(x I^2) passes 2**53, where
    # float64 no longer holds every integer, and dividing the float64 sums would
    # round the quotient the other way
    image = np.zeros((1, 3_000_000), dtype=np.uint8)
    image[0, -(2**16) :] = np.random.default_rng(1).integers(200, 256, 2**16)
    box = (3_000_000 - 2**16, 0, 3_000_000 - 1, 0)
    sq = image[0, box[0] :].astype(np.int64) ** 2
    sx, s0 = int((sq * np.arange(box[0], box[2] + 1)).sum()), int(sq.sum())
    assert sx > 2**53 and float(Fraction(sx, s0)) != np.float64(sx) / np.float64(s0)
    check_centroids([box, (3_000_000 - 3, 0, 3_000_000 - 1, 0)], image)
