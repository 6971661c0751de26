"""Synthetic 8-bit sky-field images with ground-truth sidecars.

Point sources (stars, planets, injected artifacts) are deposited as
pixel-integrated 2-D Gaussians of standard deviation ``defocus_sigma_px``
truncated at a 4-sigma box.  Photometry is anchored so that a source of
magnitude ``anchor_mag`` produces a peak pixel of ``anchor_peak_dn``
before clamping when rendered by the reference camera (400 ms exposure,
Qe*Tlens 0.49, 40 mm / f2.2 optics); everything else follows from the
2.5-log magnitude scale and linear scaling with exposure, throughput,
and aperture area.

Rendering order: signal -> optional per-pixel Poisson shot noise ->
additive Gaussian background -> round to integer DN -> clamp to [0, 255].
With a fixed seed, output is bit-identical.

The signal is sparse.  ``render_field`` lays every source's clipped
4-sigma window on one fixed-shape masked grid and returns only the lit
pixels, those with a non-zero sum, as sorted C-order flat indices with
their float64 sums; ``np.bincount`` adds the deposits in deposit order, so
each sum is the one a dense float frame would hold.  A default frame has
about 0.3 % of its pixels lit.  Lit pixels take the continuous path, in C
order: a Poisson count (or the raw signal with photon noise off) plus
``Generator.normal(mean, sigma)``, then rounded and clamped.  Every other
pixel is ``rint(clip(mean + sigma * Z))``, a fixed pmf over 0..255, and is
drawn from it directly by a table method (Marsaglia, Tsang & Wang, "Fast
generation of discrete random variables", J. Stat. Softw. 11(3), 2004):
one uint16 cell picks one of 2^16 equal cells of [0, 1), and a cached
table maps the cell to its level.  The cells are the little-endian 16-bit
lanes of ``ceil(n / 4)`` raw 64-bit words of the bit generator: the values
of ``Generator.integers(0, 2**16, n, dtype=uint16)``, with the same float
stream after them.  They are drawn and looked up in blocks of 2^16 pixels
that stay in cache; a block is a whole number of words, so the blocks do
not change the stream or its order.  The few cells that straddle two
levels draw a float64 ``u`` inside the cell, after the last block, and
take the level from the CDF, so each level's probability is exact to
float64.  The random stream is read in that order: Poisson (lit), normal
(lit), one cell per pixel of the frame (lit ones included), one float per
straddling cell.  With ``sigma == 0`` the background is the constant
``clip(rint(mean))``.

The normal CDF (PSF pixel fractions, the background pmf) is ``_ndtr``, a
port of the Cephes ``ndtr`` of S. L. Moshier (*Methods and Programs for
Mathematical Functions*, 1989) equal to the compiled double-precision
routine bit for bit: with x = a / sqrt(2), ``0.5 + 0.5 erf(x)`` where
|x| < sqrt(1/2), else ``0.5 erfc(|x|)``, reflected for x > 0; erf on
[0, 1] from the rational T / U, erfc from P / Q below 8 and R / S from 8
on, each polynomial by Horner in Cephes' order.  Its ``exp(-x^2)`` is
libm's, through ``math.exp`` one value at a time: numpy's SIMD ``np.exp``
rounds about 5 % of random arguments differently on an AVX-512 host, and
the frames are frozen bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ephemeris import Planet
from .geometry import CameraModel, PointingAngles, attitude_from_axis_azimuth, project_points
from .star_catalog import StarCatalog, read_lines

# Reference (anchor) camera photometric parameters.
_REF_EXPOSURE_MS = 400.0
_REF_QE_TLENS = 0.49
_REF_APERTURE_MM = 40.0 / 2.2

DETECTABILITY_DN = 120.0
PSF_TRUNCATION_SIGMAS = 4.0
BACKGROUND_CELLS = 2**16  # lookup cells of the background sampler
_BACKGROUND_BLOCK = 2**16  # pixels the background sampler draws at a time, a multiple of 4
_CONE_SLACK_RAD = 1e-6  # grows the star cone of render_field past rounding
# P5, then width, height and maxval, each after whitespace or #-to-newline
# comments, then the one whitespace byte before the pixels.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")

# Cephes ndtr (see the module docstring): erf(z) = z T(z^2) / U(z^2) below
# 1, and erfc(z) = exp(-z^2) P(z) / Q(z) below 8, exp(-z^2) R(z) / S(z) from
# 8 on.  Each polynomial is written highest power first, with the leading 1
# of U, Q and S spelled out and zeros in front up to degree 8, so that one
# Horner pass evaluates any of the three: _NDTR_RATIONALS[k, 0 or 1, i] is
# coefficient k of the numerator or denominator of rational i.
_NDTR_RATIONALS = np.array(
    [
        [  # T / U
            [0.0, 0.0, 0.0, 0.0, 9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
             7.00332514112805075473e3, 5.55923013010394962768e4],
            [0.0, 0.0, 0.0, 1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
             2.26290000613890934246e4, 4.92673942608635921086e4],
        ],
        [  # P / Q
            [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
             4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
             9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
            [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
             9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
             1.65666309194161350182e3, 5.57535340817727675546e2],
        ],
        [  # R / S
            [0.0, 0.0, 0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
             6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
            [0.0, 0.0, 1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
             1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0],
        ],
    ]
).transpose(2, 1, 0).copy()
_NDTR_EDGES = np.array([1.0, 8.0])  # the z from which erfc takes P / Q, then R / S
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc is 0 where z^2 passes it


@dataclass(frozen=True)
class SceneSpec:
    camera: CameraModel
    true_attitude: PointingAngles
    sc_position_km: np.ndarray
    star_catalog: StarCatalog
    planets: tuple[Planet, ...] = ()  # magnitudes as seen from sc_position_km
    render_mag_cutoff: float = 6.5
    background_mean_dn: float = 5.0
    background_sigma_dn: float = 2.0
    photon_noise: bool = True
    seed: int = 0
    anchor_mag: float = 0.0
    anchor_peak_dn: float = 2000.0
    # (x_px, y_px, total_flux_dn) artifacts injected on top of the scene,
    # e.g. to force overlapping objects in adversarial tests; each value
    # must be finite (a source far off the frame is simply not drawn).
    extra_sources: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        for i, src in enumerate(self.extra_sources):
            if len(src) != 3:
                raise ValueError(f"extra_sources[{i}]: expected (x, y, flux), got {len(src)} values")
            for name, v in zip(("x", "y", "flux"), src):
                if not math.isfinite(v):
                    raise ValueError(f"extra_sources[{i}]: {name} {v} is not finite")


@dataclass(frozen=True)
class Image:
    data: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        self.data.setflags(write=False)


@dataclass(frozen=True)
class TruthObject:
    kind: str  # "star" | "planet" | "artifact"
    ident: str
    x: float
    y: float
    peak_dn: float
    visible: bool


@dataclass(frozen=True)
class GroundTruth:
    objects: tuple[TruthObject, ...]
    attitude: PointingAngles

    def planets(self) -> tuple[TruthObject, ...]:
        return tuple(o for o in self.objects if o.kind == "planet")


@lru_cache(maxsize=8)
def central_pixel_fraction(sigma_px: float) -> float:
    """Fraction of a source's flux landing in the central pixel when the
    source sits exactly on a pixel center."""
    half = 0.5 / sigma_px
    upper, lower = _ndtr([half, -half])
    return float((upper - lower) ** 2)


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF of each entry of ``a``, bit for bit the
    Cephes ``ndtr`` (see the module docstring): NaN stays NaN, -inf is 0
    and inf is 1."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.minimum(np.abs(x), 64.0)  # erfc is 0 from 26.7 on; a finite z keeps z^2 finite
    zz = z * z
    rational = np.searchsorted(_NDTR_EDGES, z, side="right")  # 0: T / U, 1: P / Q, 2: R / S
    tail = rational > 0
    scale = np.where(tail, 0.0, z)  # z for erf; exp(-z^2) for erfc, by libm, up to MAXLOG
    live = np.flatnonzero(tail & (zz <= _MAXLOG))
    scale[live] = np.fromiter(map(math.exp, (-zz[live]).tolist()), float, len(live))
    acc, *coefficients = _NDTR_RATIONALS.take(rational, axis=2)
    v = np.where(tail, z, zz)
    for c in coefficients:
        acc *= v
        acc += c
    r = scale * acc[0] / acc[1]  # erf(z) below 1, erfc(z) from 1 on
    half_erfc = 0.5 * np.where(tail, r, 1.0 - r)
    y = np.where(x > 0, 1.0 - half_erfc, half_erfc)
    return np.where(z < _SQRT1_2, 0.5 + 0.5 * np.copysign(r, x), y).reshape(a.shape)


def magnitude_to_flux(
    m: float,
    camera: CameraModel,
    anchor_mag: float = 0.0,
    anchor_peak_dn: float = 2000.0,
) -> float:
    """Total signal in DN deposited by a source of apparent magnitude m.

    ``anchor_peak_dn`` is the peak-pixel calibration at ``anchor_mag``
    for the reference camera; the return value is the *total* flux, i.e.
    peak divided by the central-pixel fraction of the camera's PSF.
    """
    anchor_total = anchor_peak_dn / central_pixel_fraction(camera.defocus_sigma_px)
    throughput = (
        (camera.exposure_ms / _REF_EXPOSURE_MS)
        * (camera.qe_tlens / _REF_QE_TLENS)
        * (camera.focal_length_mm / camera.f_number / _REF_APERTURE_MM) ** 2
    )
    return anchor_total * throughput * 10.0 ** (-0.4 * (m - anchor_mag))


def _windows(shape, x: np.ndarray, y: np.ndarray, sigma: float):
    """The 4-sigma box around each (x, y), clipped to the frame.

    Returns ``on``, the mask of the sources whose box meets the frame, and
    for those: ``xs`` (n, wx) and ``ys`` (n, wy), the columns and rows
    from each box's low corner, and ``inside`` (n, wy, wx), the cells of
    the box.  A box spans at most ``2 * ceil(4 sigma) + 2`` pixels per
    axis, so ``wx`` and ``wy`` are that, capped at the frame size; grid
    cells past the box (and maybe past the frame) are masked out.  A NaN
    position has no box.  The boxes are clipped in float and only those
    that meet the frame are cast to int64, so a finite source far off it
    (say x = 1e30) is skipped, not overflowed.
    """
    height, width = shape
    r = PSF_TRUNCATION_SIGMAS * sigma
    x0, x1 = np.maximum(np.floor(x - r), 0), np.minimum(np.ceil(x + r), width - 1)
    y0, y1 = np.maximum(np.floor(y - r), 0), np.minimum(np.ceil(y + r), height - 1)
    on = (x0 <= x1) & (y0 <= y1)
    wx, wy = (int(min(2 * np.ceil(r) + 2, n)) for n in (width, height))
    xs = x0[on, None].astype(np.int64) + np.arange(wx)
    ys = y0[on, None].astype(np.int64) + np.arange(wy)
    inside = (ys <= y1[on, None])[:, :, None] & (xs <= x1[on, None])[:, None, :]
    return on, xs, ys, inside


def _pixel_fractions(xs: np.ndarray, ys: np.ndarray, x: np.ndarray, y: np.ndarray, sigma: float):
    """``(fx, fy)``: the share of a unit Gaussian line spread at each
    source's ``x`` (``y``) that falls on each pixel of its window ``xs``
    (``ys``), ``ndtr((p + 0.5 - c) / sigma) - ndtr((p - 0.5 - c) / sigma)``.
    A window's pixels are consecutive, so the upper edge of one is the
    lower edge of the next, bit for bit, and one ``_ndtr`` call takes
    every edge of both axes once."""
    edges = [(np.concatenate((p[:, :1] - 0.5, p + 0.5), axis=1) - c[:, None]) / sigma for p, c in ((xs, x), (ys, y))]
    steps = np.diff(_ndtr(np.concatenate(edges, axis=1)))  # the column between the axes is not a pixel
    return steps[:, : xs.shape[1]], steps[:, xs.shape[1] + 1 :]


def render_field(scene: SceneSpec) -> tuple[np.ndarray, np.ndarray, list[TruthObject]]:
    """Noise-free, unclamped signal plus the projected objects.

    Returns the lit pixels (non-zero sum; ``!= 0``, so a negative sum
    still reaches the Poisson draw and raises there) as sorted C-order flat
    indices, their float64 sums, and the objects, which carry
    ``peak_dn=0.0, visible=False`` for ``render`` to fill in.  Each source
    adds ``flux * (fy * fx)`` to its window; the sums are taken in deposit
    order (stars in catalog order, planets, then ``extra_sources``), so
    each is the one a dense float frame would hold.  Each star and planet
    pixel is a ``project_points`` row, bit for bit its ``project_star`` /
    ``project_point``; a planet behind the camera has NaN coordinates and
    is not drawn.  Only the bright stars within the half-diagonal angle of
    the 4-sigma margin box are projected; ``project_points`` works row by
    row, so they keep their bits.  Exposed separately so photometric
    linearity can be checked without quantization in the way.
    """
    cam = scene.camera
    att = attitude_from_axis_azimuth(scene.true_attitude)
    margin = PSF_TRUNCATION_SIGMAS * cam.defocus_sigma_px + 1.0
    stars = scene.star_catalog
    # the cone of the margin box, grown past the rounding of the dot product
    half_diagonal = math.atan(math.hypot(*np.add(cam.principal_point, margin)) / cam.focal_px)
    cone = stars.unit_vectors @ att[2] > math.cos(half_diagonal + _CONE_SLACK_RAD)
    rows = np.flatnonzero(cone & (stars.magnitudes <= scene.render_mag_cutoff))
    star_px = project_points(cam, att, np.zeros(3), stars.unit_vectors[rows])[2]
    planet_px = project_points(cam, att, scene.sc_position_km, [p.position_km for p in scene.planets])[2]
    with np.errstate(invalid="ignore"):  # NaN rows (behind camera) compare False
        in_box = ((star_px >= -margin) & (star_px <= np.array([cam.width, cam.height]) - 1 + margin)).all(axis=1)
    # magnitude_to_flux is anchor_total * throughput * 10 ** (...); at the
    # anchor magnitude the power is exactly 1, so this is that product
    scale = magnitude_to_flux(scene.anchor_mag, cam, scene.anchor_mag, scene.anchor_peak_dn)

    def flux(m):  # magnitude_to_flux with its scale taken once per frame
        return scale * 10.0 ** (-0.4 * (m - scene.anchor_mag))

    sources = [  # (kind, ident, x, y, total flux) in deposit order
        *(("star", str(stars.ids[r]), *xy, flux(stars.magnitudes[r])) for r, xy in zip(rows[in_box], star_px[in_box])),
        *(("planet", p.name, *xy, flux(p.magnitude)) for p, xy in zip(scene.planets, planet_px)),
        *(("artifact", f"artifact-{i}", *src) for i, src in enumerate(scene.extra_sources)),
    ]
    x, y, total = np.array([s[2:] for s in sources], dtype=float).reshape(-1, 3).T
    sigma = cam.defocus_sigma_px
    on, xs, ys, inside = _windows((cam.height, cam.width), x, y, sigma)
    fx, fy = _pixel_fractions(xs, ys, x[on], y[on], sigma)
    deposit = (total[on, None, None] * (fy[:, :, None] * fx[:, None, :]))[inside]
    lit, inverse = np.unique((ys[:, :, None] * cam.width + xs[:, None, :])[inside], return_inverse=True)
    signal = np.bincount(inverse, deposit, lit.size).astype(float, copy=False)  # int64 when empty
    keep = signal != 0
    objects = [TruthObject(kind, ident, float(sx), float(sy), 0.0, False) for kind, ident, sx, sy, _ in sources]
    return lit[keep], signal[keep], objects


def render(scene: SceneSpec) -> tuple[Image, GroundTruth]:
    """Render the scene to an 8-bit frame and its ground-truth sidecar.

    Each object's ``peak_dn`` is the largest quantized DN in its 4-sigma
    window (0 when the window misses the frame), read for all objects in
    one masked max over their ``_windows`` grids.
    """
    cam = scene.camera
    lit, signal, objects = render_field(scene)
    data = _add_noise_and_quantize(lit, signal, scene)

    x, y = np.array([(o.x, o.y) for o in objects], dtype=float).reshape(-1, 2).T
    on, xs, ys, inside = _windows(data.shape, x, y, cam.defocus_sigma_px)
    peaks = np.zeros(len(objects))
    cells = data.take(ys[:, :, None] * cam.width + xs[:, None, :], mode="clip")  # cells off the frame are masked
    peaks[on] = cells.max(axis=(1, 2), where=inside, initial=0)
    scored = tuple(
        TruthObject(o.kind, o.ident, o.x, o.y, peak, cam.in_frame(o.x, o.y) and peak >= DETECTABILITY_DN)
        for o, peak in zip(objects, peaks.tolist())
    )
    return Image(data), GroundTruth(objects=scored, attitude=scene.true_attitude)


def _add_noise_and_quantize(lit: np.ndarray, signal: np.ndarray, scene: SceneSpec) -> np.ndarray:
    """The quantized frame: lit pixels on the continuous path, every other
    pixel sampled from the background pmf (see the module docstring)."""
    cam = scene.camera
    bg, sigma = scene.background_mean_dn, scene.background_sigma_dn
    rng = np.random.default_rng(scene.seed)
    if scene.photon_noise:
        signal = rng.poisson(signal)
    lit_dn = rng.normal(bg, sigma, lit.size) + signal  # raises "scale < 0" for any frame
    n = cam.width * cam.height
    if sigma > 0:
        out = _sample_background(rng, n, bg, sigma)
    else:
        out = np.full(n, np.clip(np.rint(bg), 0, 255), dtype=np.uint8)
    out[lit] = np.clip(np.rint(lit_dn), 0, 255)
    return out.reshape(cam.height, cam.width)


@lru_cache(maxsize=8)
def background_table(mean: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The 255-entry CDF of ``rint(clip(mean + sigma * Z, 0, 255))`` and
    its ``BACKGROUND_CELLS``-entry lookup table.

    ``cdf[k]`` is P(level <= k); level 255 takes the rest.  Table entry c
    is the level of every u in [c, c + 1) / BACKGROUND_CELLS, or
    ``256 + level(c / BACKGROUND_CELLS)`` when that cell straddles a CDF
    step.
    """
    with np.errstate(over="ignore"):  # a tiny sigma: +-inf, so the CDF steps from 0 to 1
        cdf = _ndtr((np.arange(255) + 0.5 - mean) / sigma)
    edges = np.arange(BACKGROUND_CELLS + 1) / BACKGROUND_CELLS
    low = np.searchsorted(cdf, edges[:-1], "right")
    high = np.searchsorted(cdf, edges[1:], "left")
    table = np.where(low == high, low, 256 + low).astype(np.uint16)
    cdf.setflags(write=False)
    table.setflags(write=False)
    return cdf, table


def _background_cells(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uint16 cells: the little-endian 16-bit lanes of ``ceil(n / 4)``
    raw 64-bit words.  These are the values of ``rng.integers(0, 2**16, n,
    dtype=np.uint16)``, and float draws that follow read the same stream,
    without the per-value bounded-integer loop."""
    words = rng.bit_generator.random_raw(-(-n // 4))
    return words.astype("<u8", copy=False).view("<u2")[:n]


def _sample_background(rng: np.random.Generator, n: int, mean: float, sigma: float) -> np.ndarray:
    """``n`` uint8 draws of the quantized background: one uint16 cell per
    pixel, and an exact inverse-CDF draw inside the cell where it
    straddles two levels.  The cells are looked up ``_BACKGROUND_BLOCK``
    at a time through two reused buffers that stay in cache, and the
    straddle floats are drawn after the last block (see the module
    docstring)."""
    cdf, table = background_table(mean, sigma)
    out = np.empty(n, dtype=np.uint8)
    index = np.empty(min(n, _BACKGROUND_BLOCK), dtype=np.intp)
    levels = np.empty(index.size, dtype=np.uint16)
    straddle, straddle_cells = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.uint16)]
    for start in range(0, n, _BACKGROUND_BLOCK):
        cells = _background_cells(rng, min(_BACKGROUND_BLOCK, n - start))
        idx, lev = index[: cells.size], levels[: cells.size]
        idx[...] = cells
        table.take(idx, out=lev, mode="clip")  # every cell is in range; "clip" skips take's buffered copy
        hits = np.flatnonzero(lev > 255)
        straddle.append(start + hits)
        straddle_cells.append(cells[hits])
        out[start : start + cells.size] = lev  # a straddling entry wraps here and is drawn below
    straddle, straddle_cells = np.concatenate(straddle), np.concatenate(straddle_cells)
    u = (straddle_cells + rng.random(straddle.size)) / BACKGROUND_CELLS
    out[straddle] = np.searchsorted(cdf, u, "right")
    return out


def write_pgm(image: Image, path) -> None:
    """Binary PGM (P5, maxval 255)."""
    height, width = image.data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.data.tobytes())


def read_pgm(path) -> Image:
    """The 2-D uint8 frame of a binary PGM file.  A header that does not
    match ``_PGM_HEADER``, a header field too long for ``int``, a zero
    width or height, a maxval other than 255 or a wrong number of data
    bytes raises ValueError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError(f"{path}: malformed or truncated PGM header, expected 'P5 <width> <height> 255'")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ValueError(f"{path}: PGM header field too long") from None
    if width == 0 or height == 0:
        raise ValueError(f"{path}: empty {width}x{height} frame")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    n_data = len(blob) - header.end()
    if n_data != width * height:
        raise ValueError(f"{path}: expected {width * height} data bytes, got {n_data}")
    return Image(np.frombuffer(blob, dtype=np.uint8, offset=header.end()).reshape(height, width).copy())


def write_truth(truth: GroundTruth, path) -> None:
    """Sidecar: one `kind,id,x_px,y_px,peak_dn,visible` line per object.

    The true attitude rides along in a comment line so the sidecar alone
    suffices to score a run.
    """
    att = truth.attitude
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# attitude {att.alpha!r} {att.delta!r} {att.phi!r}\n")
        fh.write("# kind,id,x_px,y_px,peak_dn,visible\n")
        for o in truth.objects:
            fh.write(f"{o.kind},{o.ident},{o.x!r},{o.y!r},{o.peak_dn!r},{int(o.visible)}\n")


def read_truth(path) -> GroundTruth:
    """Parse a ``write_truth`` sidecar (``read_lines``, ``#`` lines kept for
    the attitude).  A line with the wrong number of fields or a value that
    does not parse raises ValueError naming the file and line."""
    attitude, objects = [], []

    def parse(line: str) -> None:
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["attitude"]:
                if len(parts) != 4:
                    raise ValueError(f"expected 3 attitude angles, got {len(parts) - 1}")
                attitude.append(PointingAngles(float(parts[1]), float(parts[2]), float(parts[3])))
            return
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        kind, ident, x, y, peak, visible = parts
        objects.append(TruthObject(kind, ident, float(x), float(y), float(peak), bool(int(visible))))

    read_lines(path, parse, comments=True)
    if not attitude:
        raise ValueError(f"{path}: missing attitude comment line")
    return GroundTruth(objects=tuple(objects), attitude=attitude[-1])
