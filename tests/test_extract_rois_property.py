"""Property: row- and column-packed extract_rois equals full-frame
labelling, and compute_centroid equals its ``np.mgrid`` moments.

The reference labels the whole frame with ``ndimage.label`` and boxes
each component, one ``(x0, y0, x1, y1, span)`` tuple per component, the
way extract_rois always has: row-major order of the
seed pixel, a one-pixel margin clipped to the frame, and the span, the
larger of the member pixels' x and y extents.

The centroid reference takes the first moments with the coordinate grids
of ``np.mgrid``, as compute_centroid once did; the two must agree bit
for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from opnav.centroiding import compute_centroid, extract_rois


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
def test_sparse_uint8_frames(image, threshold):
    check(image, threshold)


@settings(max_examples=200, deadline=None)
@given(
    image=shapes.flatmap(
        lambda s: arrays(np.float64, s, elements=st.floats(-5.0, 300.0, allow_nan=False))
    ),
    threshold=st.floats(-10.0, 310.0, allow_nan=False),
)
def test_float_frames(image, threshold):
    check(image, threshold)


@st.composite
def sparse_frames(draw):
    """Frames where most rows and most columns are blank, so runs of lit
    columns, like runs of lit rows, are often split by one blank column."""
    height, width = draw(shapes)
    dtype = draw(st.sampled_from([np.uint8, np.float64]))
    image = np.zeros((height, width), dtype=dtype)
    rows = draw(arrays(bool, height))
    cols = draw(arrays(bool, width))
    values = [0, 0, 0, 200, np.nan] if dtype == np.float64 else [0, 0, 0, 200]
    lit = draw(arrays(dtype, (int(rows.sum()), int(cols.sum())), elements=st.sampled_from(values)))
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
@example(  # NaN pixels never count, in lit rows and columns or alone in their own
    image=np.array(
        [[np.nan, 200, np.nan, 0, 200], [np.nan, np.nan, 0, 0, np.nan], [0, 0, 200, np.nan, np.nan]]
    ),
    threshold=100,
)
def test_sparse_columns(image, threshold):
    check(image, threshold)


def reference_centroid(box, image):
    x0, y0, x1, y1 = box
    pixels = image[y0 : y1 + 1, x0 : x1 + 1].astype(np.float64)
    iw = pixels * (pixels / pixels.max())
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    return float((xs * iw).sum() / iw.sum()), float((ys * iw).sum() / iw.sum())


@st.composite
def boxed_frames(draw):
    """A frame with some signal and an inclusive box inside it, often
    touching the frame edges."""
    height, width = draw(shapes)
    dtype = draw(st.sampled_from([np.uint8, np.float64]))
    elements = st.integers(0, 255) if dtype == np.uint8 else st.floats(0.0, 1e4, allow_subnormal=False)
    image = draw(arrays(dtype, (height, width), elements=elements))
    def ends(size):
        end = st.sampled_from([0, size - 1]) | st.integers(0, size - 1)
        return sorted((draw(end), draw(end)))

    (x0, x1), (y0, y1) = ends(width), ends(height)
    image[draw(st.integers(y0, y1)), draw(st.integers(x0, x1))] = draw(st.sampled_from([1, 7, 200, 255]))
    return (x0, y0, x1, y1), image


@settings(max_examples=300, deadline=None)
@given(case=boxed_frames())
@example(case=((0, 0, 3, 2), np.arange(12, dtype=np.uint8).reshape(3, 4)))  # the whole frame
@example(case=((4, 0, 4, 2), np.full((3, 5), 9, dtype=np.uint8)))  # the last column
def test_centroid_equals_mgrid_moments(case):
    box, image = case
    assert compute_centroid(box, image) == reference_centroid(box, image)
