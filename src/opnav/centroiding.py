"""Dynamic thresholding, ROI extraction, and weighted-moment centroids.

A frame is a 2-D uint8 array.  The threshold is mean + T * std over the
whole frame (population std), both moments taken as exact integer sums.
Pixels strictly above the threshold form 8-connected components.  Only
the few rows and columns that hold such pixels are labelled: they are
packed into a small array, with one blank row between runs of rows, and
one blank column between runs of columns, that are not adjacent in the
frame, so that connectivity and raster order are the frame's own, and
the labels are mapped back to frame rows and columns.  Each component
is boxed with a one-pixel margin and the sub-pixel centroid is computed
from intensity-weighted moments over every pixel inside the box, with
weights w = I / I_max normalized by the brightest pixel of the box.

A frame's detections are arrays, one row per component in row-major
order of its seed pixel: the (n, 4) int64 margin boxes ``x0, y0, x1, y1``
(inclusive), the (n,) int64 spans (the larger of the member pixels' x and
y extents) and the (n, 2) float64 centroids ``x, y``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
_UINT32_ROW_WIDTH = (2**32 - 1) // 255**2  # widest row whose sum of squares fits in uint32
_SQUARE_BLOCK = 2**16  # pixels compute_threshold squares at a time


def compute_threshold(image: np.ndarray, t: float) -> float:
    """Intensity threshold mean + t * std over all pixels of the 2-D
    uint8 frame; any other frame raises ValueError.

    Both moments are exact unsigned-integer sums, with no widening of the
    frame beyond uint16: the mean is the correctly rounded quotient, the
    variance the correctly rounded (n * sum(v^2) - sum(v)^2) / n^2.  Each
    row is summed first, in uint32 up to ``_UINT32_ROW_WIDTH`` columns (the
    same integers at about half the cost of uint64).  The squares are taken
    ``max(1, _SQUARE_BLOCK // width)`` rows at a time into one reused uint16
    buffer that stays in cache.
    """
    if image.dtype != np.uint8 or image.ndim != 2:
        raise ValueError(f"expected a 2-D uint8 frame, got a {image.ndim}-D {image.dtype} array")
    if image.size == 0:
        raise ValueError("empty image")
    n = image.size
    height, width = image.shape
    row_sum = np.uint32 if width <= _UINT32_ROW_WIDTH else np.uint64
    block = max(1, _SQUARE_BLOCK // width)
    squares = np.empty((min(block, height), width), dtype=np.uint16)  # 255**2 fits in uint16
    s1 = int(np.add.reduce(image, axis=1, dtype=row_sum).sum(dtype=np.uint64))
    s2 = 0
    for start in range(0, height, block):
        rows = image[start : start + block]
        sq = np.square(rows, dtype=np.uint16, out=squares[: len(rows)])
        s2 += int(np.add.reduce(sq, axis=1, dtype=row_sum).sum(dtype=np.uint64))
    mean = s1 / n
    std = math.sqrt((n * s2 - s1 * s1) / (n * n))
    return float(mean + t * std)


def extract_rois(image: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """8-connected components of pixels strictly above the threshold.

    Returns ``(boxes, span)``: each component's box, grown by a one-pixel
    margin and clipped to the frame, and its span, in row-major order of
    the component's first (seed) pixel, the order in which
    ``ndimage.label`` numbers them.

    Only the rows and columns holding a pixel above the threshold are
    labelled.  They are packed into a small array in frame order, with one
    blank row (column) between runs of rows (columns) that are not
    adjacent in the frame, so two pixels touch in the packed array exactly
    when they touch in the frame, and the packed raster order is the
    frame's.
    """
    height, width = image.shape
    if image.dtype == np.uint8 and 0 <= threshold < 255:
        # an integer pixel is above t exactly when it is above floor(t): no float cast
        threshold = np.uint8(math.floor(threshold))
    rows = np.flatnonzero(np.fmax.reduce(image, axis=1) > threshold) if image.size else []
    if len(rows) == 0:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64)
    lit = image[rows] > threshold
    cols = np.flatnonzero(lit.any(axis=0))
    packed_rows, packed_cols = _pack(rows), _pack(cols)
    packed = np.zeros((packed_rows[-1] + 1, packed_cols[-1] + 1), dtype=bool)
    packed[np.ix_(packed_rows, packed_cols)] = lit[:, cols]
    labels, _ = ndimage.label(packed, structure=_EIGHT_CONNECTED)
    frame_row = np.zeros(len(packed), dtype=np.int64)
    frame_row[packed_rows] = rows
    frame_col = np.zeros(packed.shape[1], dtype=np.int64)
    frame_col[packed_cols] = cols

    # The lowest and highest (x, y) of each component's member pixels,
    # mapped from packed to frame columns and rows.
    slices = ndimage.find_objects(labels)
    lo = np.array([(c.start, r.start) for r, c in slices], dtype=np.int64)
    hi = np.array([(c.stop, r.stop) for r, c in slices], dtype=np.int64) - 1
    lo[:, 0], hi[:, 0] = frame_col[lo[:, 0]], frame_col[hi[:, 0]]
    lo[:, 1], hi[:, 1] = frame_row[lo[:, 1]], frame_row[hi[:, 1]]
    boxes = np.hstack((np.maximum(lo - 1, 0), np.minimum(hi + 1, (width - 1, height - 1))))
    return boxes, (hi - lo).max(axis=1)


def _pack(index: np.ndarray) -> np.ndarray:
    """Packed positions of the ascending frame rows (or columns) ``index``:
    consecutive, with one blank between runs that are not adjacent."""
    return np.arange(len(index)) + np.concatenate(([0], np.cumsum(np.diff(index) > 1)))


def compute_centroid(box, image: np.ndarray) -> tuple[float, float]:
    """Sub-pixel centroid ``(x, y)`` from weighted image moments over the
    inclusive box ``x0, y0, x1, y1``.

    Moments sum over the full box including the margin ring, so faint
    PSF tails below the threshold still pull the estimate.  The first
    moments weight the box by broadcast rows and columns of pixel
    coordinates.
    """
    x0, y0, x1, y1 = box
    pixels = image[y0 : y1 + 1, x0 : x1 + 1].astype(np.float64)
    peak = pixels.max()
    if peak <= 0:
        raise ValueError("ROI box holds no signal")
    w = pixels / peak
    iw = pixels * w
    m00 = iw.sum()  # >= peak > 0
    m10 = (np.arange(x0, x1 + 1) * iw).sum()
    m01 = (np.arange(y0, y1 + 1)[:, None] * iw).sum()
    return float(m10 / m00), float(m01 / m00)


def find_centroids(image: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Threshold, extract ROIs, and centroid each one.

    Returns ``(xy, span, threshold)``: the (n, 2) centroids and the spans
    of their components, in ROI order, and the threshold used.
    """
    threshold = compute_threshold(image, t)
    boxes, span = extract_rois(image, threshold)
    xy = np.array([compute_centroid(box, image) for box in boxes.tolist()], dtype=np.float64).reshape(-1, 2)
    return xy, span, threshold
