"""Property: row-packed extract_rois equals full-frame labelling.

The reference labels the whole frame with ``ndimage.label`` and boxes
each component, one ``(x0, y0, x1, y1, span)`` tuple per component, the
way extract_rois always has: row-major order of the
seed pixel, a one-pixel margin clipped to the frame, and the span, the
larger of the member pixels' x and y extents.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from opnav.centroiding import extract_rois


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
