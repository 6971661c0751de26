"""Dynamic thresholding, ROI extraction, and weighted-moment centroids.

A frame is a 2-D uint8 array (``compute_threshold`` rejects any other).
The threshold is mean + T * std over the frame (population std), from
exact integer sums.  Pixels strictly above it form 8-connected
components, labelled on the lit rows and columns only (packed with one
blank row or column between runs that are not adjacent in the frame, so
connectivity and raster order are the frame's).  Each component is boxed
with a one-pixel margin; its centroid is the first moment over every
pixel I of the box with weights w = I / I_max, where the peak cancels:
x = sum(x I^2) / sum(I^2), and likewise y, each one correctly rounded
quotient of exact integer sums.

A frame's detections are arrays, one row per component in row-major
order of its seed pixel: the (n, 4) int64 margin boxes ``x0, y0, x1, y1``
(inclusive), the (n,) int64 spans (the larger of the member pixels' x and
y extents), the (n, 2) float64 centroids ``x, y`` and the (n,) int64 peak
DN (the brightest pixel of the box).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
_UINT32_ROW_WIDTH = (2**32 - 1) // 255**2  # widest row whose sum of squares fits in uint32
_SQUARE_BLOCK = 2**16  # pixels squared at a time, by compute_threshold and per block of compute_centroid


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
    # an integer pixel is above t exactly when it is above floor(t); above NaN, none is
    level = 255 if not threshold < 255 else -1 if threshold < 0 else math.floor(threshold)
    rows = np.flatnonzero(image.max(axis=1) > level) if image.size else []
    if len(rows) == 0:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64)
    lit = image[rows] > level
    cols = np.flatnonzero(lit.any(axis=0))
    packed_rows, packed_cols = _pack(rows), _pack(cols)
    packed = np.zeros((packed_rows[-1] + 1, packed_cols[-1] + 1), dtype=bool)
    packed[np.ix_(packed_rows, packed_cols)] = lit[:, cols]
    labels, _ = ndimage.label(packed, structure=_EIGHT_CONNECTED)
    # The lowest and highest (x, y) of each component's member pixels: lit
    # packed columns and rows, mapped to the frame's.
    slices = ndimage.find_objects(labels)
    ends = np.array([(c.start, r.start, c.stop - 1, r.stop - 1) for r, c in slices], dtype=np.int64)
    ends[:, 0::2] = cols[np.searchsorted(packed_cols, ends[:, 0::2])]
    ends[:, 1::2] = rows[np.searchsorted(packed_rows, ends[:, 1::2])]
    lo, hi = ends[:, :2], ends[:, 2:]
    boxes = np.hstack((np.maximum(lo - 1, 0), np.minimum(hi + 1, (width - 1, height - 1))))
    return boxes, (hi - lo).max(axis=1)


def _pack(index: np.ndarray) -> np.ndarray:
    """Packed positions of the ascending frame rows (or columns) ``index``:
    consecutive, with one blank between runs that are not adjacent."""
    return np.arange(len(index)) + np.concatenate(([0], np.cumsum(np.diff(index) > 1)))


def compute_centroid(boxes: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sub-pixel centroids ``(x, y)`` and peak DN of the (n, 4) inclusive
    boxes ``x0, y0, x1, y1`` in one array pass; a box of zeros raises
    ValueError.  The moments take the whole box, margin ring included, so
    faint PSF tails below the threshold still pull the estimate.  All boxes'
    cells, row by row, are gathered ``_SQUARE_BLOCK`` at a time; a block's
    int64 sums per box are exact, and are added and divided as Python ints."""
    x0, y0, x1, y1 = boxes.T
    height, width = y1 - y0 + 1, x1 - x0 + 1
    ends = np.cumsum(height * width)
    starts = ends - height * width
    total = int(ends[-1]) if len(boxes) else 0
    sums = np.zeros((len(boxes), 3), dtype=object)  # sum(I^2), sum(x I^2), sum(y I^2)
    peak = np.zeros(len(boxes), dtype=np.int64)
    for first in range(0, total, _SQUARE_BLOCK):
        cell = np.arange(first, min(first + _SQUARE_BLOCK, total))
        box = np.searchsorted(ends, cell, side="right")
        dy, dx = np.divmod(cell - starts[box], width[box])
        rows, cols = y0[box] + dy, x0[box] + dx
        pixels = image[rows, cols]
        here = np.arange(box[0], box[-1] + 1)  # every box holds a cell
        runs = np.maximum(starts[here] - first, 0)  # each box's first cell in the block
        sq = np.square(pixels, dtype=np.int64)
        sums[here] += np.stack([np.add.reduceat(m, runs) for m in (sq, sq * cols, sq * rows)], axis=1).astype(object)
        peak[here] = np.maximum(peak[here], np.maximum.reduceat(pixels, runs))
    if not sums[:, 0].all():
        raise ValueError("ROI box holds no signal")
    return (sums[:, 1:] / sums[:, :1]).astype(np.float64), peak


def find_centroids(image: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(xy, span, peak, threshold)``: the centroids, spans and peak DN of
    the frame's ROIs, in ROI order, and the threshold used."""
    threshold = compute_threshold(image, t)
    boxes, span = extract_rois(image, threshold)
    xy, peak = compute_centroid(boxes, image)
    return xy, span, peak, threshold
