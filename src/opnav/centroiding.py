"""Dynamic thresholding, ROI extraction, and weighted-moment centroids.

The threshold is mean + T * std over the whole frame (population std);
an 8-bit frame takes both moments as exact integer sums.
Pixels strictly above the threshold form 8-connected components.  Only
the few rows that hold such pixels are labelled: they are packed into a
small array, with one blank row between runs of rows that are not
adjacent in the frame, so that connectivity is the frame's own, and the
labels are mapped back to frame rows.  Each component is boxed with a
one-pixel margin and the sub-pixel centroid is computed from
intensity-weighted moments over every pixel inside the box, with weights
w = I / I_max normalized by the brightest pixel of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class Roi:
    """Inclusive pixel box (grown one pixel per side, clipped at borders)
    around one connected bright component, and the component's span: the
    larger of its member pixels' x and y extents."""

    x0: int
    y0: int
    x1: int
    y1: int
    span: int


@dataclass(frozen=True)
class Centroid:
    x: float
    y: float
    roi: Roi


def compute_threshold(image: np.ndarray, t: float) -> float:
    """Intensity threshold mean + t * std over all pixels of the frame.

    An 8-bit frame takes both moments as exact unsigned-integer sums, with
    no widening of the frame beyond uint16: the mean is the correctly
    rounded quotient, the variance the correctly rounded
    (n * sum(v^2) - sum(v)^2) / n^2.
    """
    if image.size == 0:
        raise ValueError("empty image")
    if image.dtype != np.uint8:
        data = image.astype(np.float64, copy=False)
        return float(data.mean() + t * data.std())
    n = image.size
    s1 = int(image.sum(dtype=np.uint64))
    s2 = int(np.square(image, dtype=np.uint16).sum(dtype=np.uint64))  # 255**2 fits in uint16
    mean = s1 / n
    std = math.sqrt((n * s2 - s1 * s1) / (n * n))
    return float(mean + t * std)


def extract_rois(image: np.ndarray, threshold: float) -> list[Roi]:
    """8-connected components of pixels strictly above the threshold.

    Components are returned in row-major order of their first (seed)
    pixel, the order in which ``ndimage.label`` numbers them, each boxed
    with a one-pixel margin clipped to the frame.

    Only rows holding a pixel above the threshold are labelled.  They are
    packed into a small array in frame order, with one blank row between
    runs of rows that are not adjacent in the frame, so two pixels touch
    in the packed array exactly when they touch in the frame.
    """
    height, width = image.shape
    if image.size == 0:
        return []
    rows = np.flatnonzero(np.fmax.reduce(image, axis=1) > threshold)  # fmax: NaN pixels never count
    if len(rows) == 0:
        return []
    packed_rows = np.arange(len(rows)) + np.concatenate(([0], np.cumsum(np.diff(rows) > 1)))
    packed = np.zeros((packed_rows[-1] + 1, width), dtype=bool)
    packed[packed_rows] = image[rows] > threshold
    labels, _ = ndimage.label(packed, structure=_EIGHT_CONNECTED)
    frame_row = np.zeros(len(packed), dtype=np.int64)
    frame_row[packed_rows] = rows

    out = []
    for rows_k, cols_k in ndimage.find_objects(labels):
        x_min, x_max = cols_k.start, cols_k.stop - 1
        y_min, y_max = int(frame_row[rows_k.start]), int(frame_row[rows_k.stop - 1])
        out.append(
            Roi(
                x0=max(x_min - 1, 0),
                y0=max(y_min - 1, 0),
                x1=min(x_max + 1, width - 1),
                y1=min(y_max + 1, height - 1),
                span=max(x_max - x_min, y_max - y_min),
            )
        )
    return out


def compute_centroid(roi: Roi, image: np.ndarray) -> Centroid:
    """Sub-pixel centroid from weighted image moments over the ROI box.

    Moments sum over the full box including the margin ring, so faint
    PSF tails below the threshold still pull the estimate.
    """
    box = image[roi.y0 : roi.y1 + 1, roi.x0 : roi.x1 + 1].astype(np.float64)
    peak = box.max()
    if peak <= 0:
        raise ValueError("ROI box holds no signal")
    w = box / peak
    iw = box * w
    m00 = iw.sum()
    if m00 <= 0:
        raise ValueError("zero total weighted intensity")
    ys, xs = np.mgrid[roi.y0 : roi.y1 + 1, roi.x0 : roi.x1 + 1]
    m10 = (xs * iw).sum()
    m01 = (ys * iw).sum()
    return Centroid(x=float(m10 / m00), y=float(m01 / m00), roi=roi)


def find_centroids(image: np.ndarray, t: float) -> tuple[list[Centroid], float]:
    """Threshold, extract ROIs, and centroid each one.

    Returns the centroid list (ROI order) and the threshold used.
    """
    threshold = compute_threshold(image, t)
    return [compute_centroid(r, image) for r in extract_rois(image, threshold)], threshold
