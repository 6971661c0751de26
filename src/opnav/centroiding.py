"""Dynamic thresholding, ROI extraction, and weighted-moment centroids.

A frame is a 2-D uint8 array (``compute_threshold`` rejects any other).
The threshold is mean + T * std over the frame (population std), from
exact integer sums of the pixels and of their squares, taken over
float32 runs of 256 pixels: a run's squares add up to at most
256 * 255^2 < 2^24, so float32 holds every partial sum exactly, in any
order.  Pixels strictly above the threshold form 8-connected
components: the runs of such pixels along each row, joined by union-find
to the runs they touch in the row above.  Each component is boxed with a
one-pixel margin; its centroid is the first moment over every pixel I of
the box with weights w = I / I_max, where the peak cancels:
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

_SQUARE_BLOCK = 2**16  # cells gathered at a time per block of compute_centroid
_MOMENT_ROW = 256  # pixels per float32 run of compute_threshold: 256 * 255**2 < 2**24
_MOMENT_BLOCK = 2**17  # pixels cast to float32 at a time by compute_threshold


def compute_threshold(image: np.ndarray, t: float) -> float:
    """Intensity threshold mean + t * std over all pixels of the 2-D
    uint8 frame; any other frame raises ValueError.

    Both moments are exact integer sums: the mean is the correctly rounded
    quotient, the variance the correctly rounded (n * sum(v^2) - sum(v)^2)
    / n^2.  ``max(1, _MOMENT_BLOCK // width)`` rows at a time are cast into
    one reused float32 buffer, zero-padded to whole runs of ``_MOMENT_ROW``
    pixels, and each run is summed (``runs @ ones``) and dotted with itself
    (``np.vecdot``).  A run's sum of squares is at most 256 * 255^2 =
    16,646,400 < 2^24, so every partial sum of either moment is an integer
    that float32 holds exactly, whatever the order of the additions, the
    use of FMA or the BLAS kernel.  The runs' results are added in float64
    (exact below 2^53) and across blocks as Python ints.
    """
    if image.dtype != np.uint8 or image.ndim != 2:
        raise ValueError(f"expected a 2-D uint8 frame, got a {image.ndim}-D {image.dtype} array")
    if image.size == 0:
        raise ValueError("empty image")
    n = image.size
    height, width = image.shape
    block = max(1, _MOMENT_BLOCK // width)
    buffer = np.empty(-(-min(block, height) * width // _MOMENT_ROW) * _MOMENT_ROW, dtype=np.float32)
    ones = np.ones(_MOMENT_ROW, dtype=np.float32)
    s1 = s2 = 0
    for start in range(0, height, block):
        rows = image[start : start + block]
        np.copyto(buffer[: rows.size].reshape(rows.shape), rows)
        buffer[rows.size :] = 0  # the last run's padding, and the rows a short last block leaves stale
        runs = buffer[: -(-rows.size // _MOMENT_ROW) * _MOMENT_ROW].reshape(-1, _MOMENT_ROW)
        s1 += int((runs @ ones).sum(dtype=np.float64))
        s2 += int(np.vecdot(runs, runs).sum(dtype=np.float64))
    mean = s1 / n
    std = math.sqrt((n * s2 - s1 * s1) / (n * n))
    return float(mean + t * std)


def extract_rois(image: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """8-connected components of pixels strictly above the threshold.

    Returns ``(boxes, span)``: each component's box, grown by a one-pixel
    margin and clipped to the frame, and its span, one row per component
    in row-major order of its seed pixel (the component's first pixel in
    row-major order).
    """
    height, width = image.shape
    # an integer pixel is above t exactly when it is above floor(t); above NaN, none is
    level = 255 if not threshold < 255 else -1 if threshold < 0 else math.floor(threshold)
    rows = np.flatnonzero(image.max(axis=1) > level) if image.size else []
    if len(rows) == 0:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64)
    key = np.int32 if (int(rows[-1]) + 2) * (width + 1) < 2**31 else np.int64  # run keys y * (width + 1) + x
    ends = _component_ends(*_runs(image[rows] > level, rows.astype(key)), width)
    lo, hi = ends[:, :2], ends[:, 2:]
    boxes = np.concatenate((np.maximum(lo - 1, 0), np.minimum(hi + 1, (width - 1, height - 1))), axis=1)
    return boxes, (hi - lo).max(axis=1)


def _runs(lit: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of pixels set in ``lit``, whose row k is frame row
    ``rows[k]``: ``(y, x0, x1)``, each run's row and first and last column,
    in row-major order and in the integer type of ``rows``."""
    height, width = lit.shape
    padded = np.zeros((height, width + 2), dtype=bool)  # a blank column either side of each row
    padded[:, 1:-1] = lit
    # column x of a row differs from x - 1 where a run starts at x or ends at x - 1: (start, end) pairs
    edge = np.flatnonzero(padded[:, 1:] != padded[:, :-1]).astype(rows.dtype).reshape(-1, 2)
    row, x0 = np.divmod(edge[:, 0], width + 1)
    return rows[row], x0, x0 + (edge[:, 1] - edge[:, 0] - 1)


def _component_ends(y: np.ndarray, x0: np.ndarray, x1: np.ndarray, width: int) -> np.ndarray:
    """The lowest and highest x and y of each 8-connected component of the
    runs ``x0..x1`` of row ``y`` (row-major order, ``x1 < width``, keys
    ``y * (width + 1) + x`` within the integer type of the three): an
    (n, 4) int64 array ``x0, y0, x1, y1``, one row per component in
    row-major order of its first pixel.

    The runs of the row above that touch a run start at most one column
    past its end and end at most one column before its start, so they
    follow one another from the first run of that row that ends at or
    past one column before its start (one ``searchsorted``).  Each run
    hangs from the first run above that it touches; the roots of the runs
    it touches past that one are joined by union-find on their own
    compact numbering, the larger root hooked under the smaller, with
    pointer jumping.  So a component's root is its first run, which holds
    its first pixel, and the roots in order number the components.
    """
    stride = width + 1  # keys y * stride + x, with a blank column between rows
    start, reach = y * stride + x0, y * stride + x1  # reach holds each run's end key until the searchsorted
    lo = np.searchsorted(reach, start - (stride + 1))
    reach -= stride - 1  # a run above touches when it starts at or before this key
    runs = np.arange(len(start))
    touch = start[lo] <= reach
    parent = _roots(np.where(touch, lo, runs))
    # a run that touches the first run of its range may touch the next ones too
    below, above, contacts = runs[touch], lo[touch] + 1, []
    del lo, touch  # the joins below hold the peak memory: drop what they do not read
    while (hit := start[above] <= reach[below]).any():
        below, above = below[hit], above[hit]
        contacts.append(np.stack((above, below)))
        above = above + 1
    del start, reach, below, above
    if contacts:  # join their roots, renumbered from 0
        nodes, pairs = np.unique(parent[np.hstack(contacts)], return_inverse=True)
        pairs = pairs.reshape(2, -1)
        label = np.arange(len(nodes))
        while True:
            a, b = label[pairs]
            apart = a != b
            if not apart.any():
                break
            np.minimum.at(label, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
            label = _roots(label)
        parent[nodes] = nodes[label]
        parent = parent[parent]
    root = parent == runs
    component = (np.cumsum(root) - 1)[parent]
    ends = np.zeros((int(root.sum()), 4), dtype=y.dtype)  # ufunc.at is fast only on one dtype
    ends[:, 0], ends[:, 1] = width, y[root]
    np.minimum.at(ends[:, 0], component, x0)
    np.maximum.at(ends[:, 2], component, x1)
    np.maximum.at(ends[:, 3], component, y)
    return ends.astype(np.int64)


def _roots(parent: np.ndarray) -> np.ndarray:
    """``parent``, each entry of which points at or below itself, with
    every entry pointing straight at its root."""
    while True:
        up = parent[parent]
        if (up == parent).all():
            return parent
        parent = up


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
