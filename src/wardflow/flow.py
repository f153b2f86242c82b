"""Dense optical flow from local polynomial expansion.

Each pixel neighborhood is fit (Gaussian-weighted least squares) to a
quadratic surface f(u) ~ u'Au + b'u + c; displacements follow from how
the linear coefficients shift between two frames, solved over an
averaging window and refined coarse-to-fine over an image pyramid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy import ndimage

from .boxes import BoundingBox, pixel_span

# Local 2x2 systems with condition estimates beyond this are treated as
# degenerate and keep their current displacement.
_COND_LIMIT = 1e6
_MIN_EIG = 1e-9

# `poly_expand` works on strips of this many pixels, rounded down to whole
# rows: 32 rows of a 384-wide frame, the fastest of a sweep at 288x384.
_STRIP_PIXELS = 32 * 384

# Region tuples are built from lists, not generators: `tuple()` over a
# generator allocates ten slots and shrinks them, which leaves one more block
# on CPython's free list of 2-tuples per call and so moves the traced peak.


@dataclass(frozen=True)
class FlowParams:
    pyramid_levels: int = 3
    pyramid_scale: float = 0.5
    window: int = 15
    iterations: int = 3
    poly_n: int = 5
    poly_sigma: float = 1.1

    def __post_init__(self):
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if not 0.0 < self.pyramid_scale < 1.0:
            raise ValueError("pyramid_scale must be in (0, 1)")
        if self.window < 5 or self.window % 2 == 0:
            raise ValueError("window must be an odd integer >= 5")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.poly_n < 5 or self.poly_n % 2 == 0:
            raise ValueError("poly_n must be an odd integer >= 5")
        if self.poly_sigma <= 0:
            raise ValueError("poly_sigma must be positive")


@dataclass
class FlowField:
    """Per-pixel displacement in pixels; dx is columnwise, dy rowwise."""

    dx: np.ndarray
    dy: np.ndarray

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.dx, self.dy)


def _as_image(frame) -> np.ndarray:
    """`frame` as a 2-D uint8 or float64 array.  A uint8 image, as a gray
    frame is, stays uint8: the filters read it as float64, exactly, in an
    eighth of the bytes."""
    arr = np.asarray(frame)
    if arr.dtype != np.uint8:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D image")
    return arr


@cache
def _expansion_kernels(poly_n: int, poly_sigma: float) -> tuple[np.ndarray, ...]:
    """The three 1-D correlation kernels of `poly_expand` and the rows of the
    inverse basis metric that give its five kept coefficients, read-only."""
    n = poly_n // 2
    x = np.arange(-n, n + 1, dtype=np.float64)
    g = np.exp(-(x * x) / (2.0 * poly_sigma * poly_sigma))
    g /= g.sum()

    # Metric of the weighted basis; solved once, applied per pixel.
    X, Y = np.meshgrid(x, x)
    w2d = np.outer(g, g)
    basis = np.stack([np.ones_like(X), X, Y, X * X, Y * Y, X * Y])
    G = np.einsum("yx,iyx,jyx->ij", w2d, basis, basis)
    arrays = (g, g * x, g * x * x, np.linalg.inv(G)[1:])  # every row but the constant term's
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def poly_expand(frame, poly_n: int, poly_sigma: float,
                region: tuple[slice, slice] | None = None) -> np.ndarray:
    """Fit every pixel neighborhood to a quadratic in {1,x,y,x2,y2,xy},
    keeping the five non-constant coefficients as the planes of one
    rows x cols x 5 array, in the order `_normal_terms` names; with
    `region`, a (rows, cols) pair of non-empty slices inside the image, on
    its pixels only.

    Borders use edge replication.  The fit is exact for polynomial
    images up to degree two away from the borders.
    """
    img = _as_image(frame)
    if min(img.shape) < poly_n:
        raise ValueError(f"image {img.shape} smaller than expansion window {poly_n}")
    k0, k1, k2, ginv = _expansion_kernels(poly_n, poly_sigma)

    # The region is expanded in strips of rows, each from its own pixels
    # plus the fit's reach on both axes (clipped at the image's edge, which
    # replicates as the whole image does), so a region has the bits of the
    # whole image there, and a strip's passes stay in cache.  The six
    # separable correlations need only three distinct y (axis-0) passes;
    # each is shared by the x (axis-1) passes that follow it.  Both sets of
    # passes write into one buffer each, reused by every strip.
    h, w = img.shape
    (top, bottom), (left, right) = [(s.start, s.stop) for s in region or (slice(0, h), slice(0, w))]
    reach = poly_n // 2
    c0, c1 = max(0, left - reach), min(w, right + reach)
    rows = min(bottom - top, max(1, _STRIP_PIXELS // (c1 - c0)))
    ys = np.empty((3, min(h, rows + 2 * reach), c1 - c0))
    v = np.empty((rows, c1 - c0, 6))
    out = np.empty((bottom - top, right - left, 5))
    for r0 in range(top, bottom, rows):
        r1 = min(bottom, r0 + rows)
        lo, hi = max(0, r0 - reach), min(h, r1 + reach)
        for row, k in enumerate((k0, k1, k2)):
            ndimage.correlate1d(img[lo:hi, c0:c1], k, axis=0, output=ys[row, :hi - lo],
                                mode="nearest")
        strip = v[:r1 - r0]
        for i, (row, kx) in enumerate(((0, k0), (0, k1), (1, k0), (0, k2), (2, k0), (1, k1))):
            ndimage.correlate1d(ys[row, r0 - lo:r1 - lo], kx, axis=1, output=strip[..., i],
                                mode="nearest")
        fit = out[r0 - top:r1 - top]
        if right - left > 1:
            np.matmul(strip[:, left - c0:right - c0], ginv.T, out=fit)
        else:  # numpy multiplies one column by BLAS's gemv, whose bits are not gemm's
            fit[...] = np.matmul(strip, ginv.T)[:, left - c0:right - c0]
    return out


def _gaussian_kernel(length: int) -> np.ndarray:
    sigma = 0.3 * ((length - 1) * 0.5 - 1.0) + 0.8
    x = np.arange(length, dtype=np.float64) - (length - 1) / 2.0
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _dependency_cones(shapes: list[tuple[int, int]], span: tuple[slice, slice],
                      params: FlowParams) -> list[list[tuple[slice, slice]]]:
    """Per pyramid level, finest first, the domain of each of its updates.

    A level's list holds `iterations + 1` regions.  The last is where the
    level's flow must be final: `span` on the finest level, and on each
    coarser one the pixels that carrying the finer level's first domain
    up reads, which is that domain mapped down by the shape ratio plus
    1 px for the order-1 interpolation.  One update reads the window blur,
    which reaches `window // 2` px, and is otherwise pointwise, so update
    j runs on the last region grown by `(iterations - j) * (window // 2)`
    px and is final on the region after it.  The first region is the
    level's dependency cone, where its flow starts.  Every region is
    clipped to its level.
    """
    reach = params.window // 2
    levels = []
    for k, shape in enumerate(shapes):
        if k == 0:
            final = [(s.start, s.stop) for s in span]
        else:
            final = [(c.start * n // m - 1, -(-c.stop * n // m) + 1)
                     for c, n, m in zip(levels[-1][0], shape, shapes[k - 1])]
        levels.append([tuple([slice(max(0, lo - j * reach), min(n, hi + j * reach))
                              for (lo, hi), n in zip(final, shape)])
                       for j in range(params.iterations, -1, -1)])
    return levels


def _blur(arr: np.ndarray, kernel: np.ndarray, region: tuple[slice, slice]) -> np.ndarray:
    """Separable blur over the last two axes, so a stack blurs per plane,
    kept on `region` of them; rows are cropped between the passes."""
    tmp = ndimage.correlate1d(arr, kernel, axis=-2, mode="nearest")[..., region[0], :]
    return ndimage.correlate1d(tmp, kernel, axis=-1, mode="nearest")[..., region[1]]


def _warp(planes: np.ndarray, rows: np.ndarray, cols: np.ndarray,
          origin: tuple[int, int], level: tuple[int, int]) -> np.ndarray:
    """Every plane of a rows x cols x k field sampled at (`rows`, `cols`),
    two arrays that broadcast to the samples' shape, with one set of
    bilinear weights per sample; the planes stay on the last axis.  The
    field has `level` rows x cols, and `planes` is its part from pixel
    `origin` on, which must hold every pixel the samples read.

    Each plane has the bits `map_coordinates(plane, [rows, cols], order=1,
    mode="nearest")` gives it.  So, as there, an axis weighs its samples
    `floor(c)` and `floor(c) + 1`, each clamped to the axis while the
    coordinate is not, by `w0 = 1 - (c - floor(c))` and `1 - w0`; a corner
    is `(v * wy) * wx`, and the four are summed in row-major order from 0.0.
    """
    h, w, k = planes.shape
    flat = planes.reshape(h * w, k)
    axes = []
    # a pixel's index in `flat` is its row times `w` plus its column less
    # the origin's index, so that each axis costs one operation past the clamp
    for c, n, index in zip((rows, cols), level,
                           (lambda i: i * w, lambda i: i - (origin[0] * w + origin[1]))):
        lo = np.floor(c)
        w0 = 1.0 - (c - lo)
        axes.append([(index(np.minimum(np.maximum(i, 0), n - 1).astype(np.intp)), wt[..., None])
                     for i, wt in ((lo, w0), (lo + 1.0, 1.0 - w0))])
    out = np.zeros((*np.broadcast_shapes(rows.shape, cols.shape), k))
    corner = np.empty_like(out)
    for iy, wy in axes[0]:
        for ix, wx in axes[1]:
            np.take(flat, iy + ix, axis=0, out=corner, mode="clip")
            corner *= wy
            corner *= wx
            out += corner
    return out


def _inside(region: tuple[slice, slice], box: tuple[slice, slice]) -> bool:
    return all(b.start <= r.start and r.stop <= b.stop for r, b in zip(region, box))


class _Growing:
    """A pyramid level's expansion on the box its warps read.  A warp that
    reads past the box first re-expands the level on the union of the box
    and the pixels that warp reads."""

    def __init__(self, level: np.ndarray, params: FlowParams):
        self.level, self.params = level, params
        self.box = self.expansion = None

    def warp(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """`_warp` of the whole level's expansion at (`rows`, `cols`)."""
        reads = tuple([slice(min(max(math.floor(c.min()), 0), n - 1),
                             min(max(math.floor(c.max()) + 1, 0), n - 1) + 1)
                       for c, n in zip((rows, cols), self.level.shape)])
        if self.box is None or not _inside(reads, self.box):
            if self.box is not None:
                reads = tuple([slice(min(r.start, b.start), max(r.stop, b.stop))
                               for r, b in zip(reads, self.box)])
            self.box = reads
            self.expansion = poly_expand(self.level, self.params.poly_n, self.params.poly_sigma,
                                         reads)
        return _warp(self.expansion, rows, cols, (self.box[0].start, self.box[1].start),
                     self.level.shape)


# The planes of an expansion, in order: the linear terms bx and by, the
# x^2 and y^2 terms a11 and a22, and the xy term axy, twice A's
# off-diagonal.  The constant term is not kept.
_BX, _BY, _A11, _A22, _AXY = range(5)


def _normal_terms(e1: np.ndarray, e2: _Growing, dx, dy,
                  domain: tuple[slice, slice]) -> np.ndarray:
    """Stacked terms of the normal equations of min ||A d - db||^2.

    `dx`, `dy` and the expansion `e1` cover `domain` of the level; `e2` is
    read where the warp lands.  Kept apart from the blur so the warped
    coefficients are freed first.
    """
    rows = np.arange(domain[0].start, domain[0].stop, dtype=np.float64)[:, None] + dy
    cols = np.arange(domain[1].start, domain[1].stop, dtype=np.float64) + dx
    warped = e2.warp(rows, cols)
    del rows, cols
    a11 = 0.5 * (e1[..., _A11] + warped[..., _A11])
    a12 = 0.25 * (e1[..., _AXY] + warped[..., _AXY])  # half the mean xy term; exact, a power of two
    a22 = 0.5 * (e1[..., _A22] + warped[..., _A22])
    db1 = -0.5 * (warped[..., _BX] - e1[..., _BX]) + a11 * dx + a12 * dy
    db2 = -0.5 * (warped[..., _BY] - e1[..., _BY]) + a12 * dx + a22 * dy
    del warped
    return np.stack([
        a11 * a11 + a12 * a12,
        a12 * (a11 + a22),
        a12 * a12 + a22 * a22,
        a11 * db1 + a12 * db2,
        a12 * db1 + a22 * db2,
    ])


def _update_flow(e1: np.ndarray, e2: _Growing, dx, dy, kernel: np.ndarray,
                 domain: tuple[slice, slice], final: tuple[slice, slice]):
    """One update of the flow `dx`, `dy` over `domain`, returned on `final`.

    `final` lies inside `domain`, at least the blur's reach inside each of
    its edges that is not the level's, so the blurred terms there are those
    of the whole level.
    """
    inner = tuple([slice(f.start - d.start, f.stop - d.start) for f, d in zip(final, domain)])
    m11, m12, m22, h1, h2 = _blur(_normal_terms(e1, e2, dx, dy, domain), kernel, inner)
    dx, dy = dx[inner], dy[inner]

    half_gap = np.sqrt((m11 - m22) ** 2 + 4.0 * m12 * m12)
    lam_min = 0.5 * ((m11 + m22) - half_gap)
    lam_max = 0.5 * ((m11 + m22) + half_gap)
    # the absolute floor rejects featureless patches whose tiny eigenvalues
    # would otherwise pass the ratio test on rounding noise
    ok = (lam_min > _MIN_EIG) & (lam_max <= _COND_LIMIT * lam_min)
    det = np.where(ok, m11 * m22 - m12 * m12, 1.0)
    new_dx = np.where(ok, (m22 * h1 - m12 * h2) / det, dx)
    new_dy = np.where(ok, (m11 * h2 - m12 * h1) / det, dy)
    return new_dx, new_dy


def _resize(planes: np.ndarray, origin: tuple[int, int], level: tuple[int, int],
            shape: tuple[int, int], region: tuple[slice, slice]) -> np.ndarray:
    """`region` of a rows x cols x k field of `level` rows x cols resized
    bilinearly to `shape`, plane by plane, where `planes` is the field's
    part from pixel `origin` on and must hold every pixel the samples read.

    The samples sit on the pixel-centre grid of an order-1 resize with
    edge replication, `(k + 0.5) * level / shape - 0.5` on each axis, as
    OpenCV's bilinear `resize` puts them, with `_warp`'s weights.
    """
    rows, cols = ((np.arange(r.start, r.stop) + 0.5) * (n / m) - 0.5
                  for r, n, m in zip(region, level, shape))
    return _warp(planes, rows[:, None], cols, origin, level)


@dataclass(eq=False)
class Pyramid:
    """One frame's image pyramid, finest level first, as `image_pyramid`
    builds it with `params`, and the expansions of its levels that the pair
    which warped the frame left for the pair which reads it first
    (`estimate_flow`): by level index, a (rows, cols) box and the level's
    `poly_expand` there."""

    levels: list[np.ndarray]
    params: FlowParams
    expanded: dict[int, tuple[tuple[slice, slice], np.ndarray]] = field(default_factory=dict)

    def cone(self, k: int, region: tuple[slice, slice]) -> np.ndarray:
        """Level `k`'s expansion on `region`: cut from the expansion left
        there, which this takes, where that covers `region`, and expanded
        there otherwise."""
        box, e = self.expanded.pop(k, (None, None))
        if e is not None and _inside(region, box):
            return e[tuple([slice(r.start - b.start, r.stop - b.start)
                            for r, b in zip(region, box)])]
        return poly_expand(self.levels[k], self.params.poly_n, self.params.poly_sigma, region)


def image_pyramid(frame, params: FlowParams) -> Pyramid:
    """The image pyramid of one frame, finest first: this is how an image
    enters the flow, and `estimate_flow` takes two of them.

    The finest level is the frame itself, as `_as_image` reads it, and each
    coarser one is the level above it blurred and resized.  Levels too
    small to hold the expansion window are dropped.
    """
    img = _as_image(frame)
    levels = [img]
    sigma = np.sqrt(1.0 / params.pyramid_scale**2 - 1.0)
    for _ in range(params.pyramid_levels - 1):
        shape = (max(1, round(img.shape[0] * params.pyramid_scale)),
                 max(1, round(img.shape[1] * params.pyramid_scale)))
        if min(shape) < params.poly_n:
            break
        blurred = ndimage.gaussian_filter(img, sigma, mode="nearest", output=np.float64)
        img = _resize(blurred[..., None], (0, 0), blurred.shape, shape,
                      (slice(0, shape[0]), slice(0, shape[1])))[..., 0]
        levels.append(img)
    return Pyramid(levels, params)


def estimate_flow(prev_pyr: Pyramid, next_pyr: Pyramid, params: FlowParams,
                  span: tuple[slice, slice]) -> FlowField:
    """Displacement between two frames over the pixel `span`, coarse-to-fine from zero.

    Each frame is its `image_pyramid`, built with `params`; pyramids built
    with other settings, or of frames of another size, are rejected.
    `span` is a (rows, cols) pair of slices with integer bounds inside the
    frame, as `boxes.pixel_span` returns; the field covers exactly those
    pixels.  Each update runs only on its domain (`_dependency_cones`),
    which shrinks by the blur's reach, `window // 2` px, per update: an
    update at a pixel reads the first frame's expansion there, the second
    frame's where the warp lands, and the window blur.  A level's flow
    starts as the coarser field carried up on its first domain alone
    (`_resize`).  So the field over `span` has the bits of the
    whole-frame field.

    A level is expanded only where it is read, by `poly_expand` on a
    region, which has the bits of the whole level's expansion there.  The
    second frame's level is expanded on the box its warps read, grown when
    a later warp reads past it (`_Growing`), and left on
    `next_pyr.expanded` once the level is done, for the pair that reads
    that frame first.  The first frame's level is read on its first domain
    only (`Pyramid.cone`): cut from what the pair before left of it, where
    that covers the domain, and expanded there otherwise.
    Ill-conditioned pixels keep the displacement they have (zero unless a
    coarser level set it), so the field is always fully populated.
    """
    shapes = [level.shape for level in next_pyr.levels]
    if prev_pyr.params != params or next_pyr.params != params or shapes != [
            level.shape for level in prev_pyr.levels]:
        raise ValueError(f"pyramids with levels {[level.shape for level in prev_pyr.levels]} and "
                         f"{shapes} are not of one frame size, or not built with {params}")
    domains = _dependency_cones(shapes, span, params)
    kernel = _gaussian_kernel(params.window)
    coarser = None  # the coarser level's shape and where its final flow starts
    for k in reversed(range(len(shapes))):
        shape, steps = shapes[k], domains[k]
        first = steps[0]
        cone = prev_pyr.cone(k, first)
        e2 = _Growing(next_pyr.levels[k], params)
        if coarser is None:
            dx = dy = np.zeros(cone.shape[:2])
        else:
            level, origin = coarser
            up = _resize(np.stack([dx, dy], -1), origin, level, shape, first)
            dx, dy = up[..., 0] * (shape[1] / level[1]), up[..., 1] * (shape[0] / level[0])
        for domain, final in zip(steps, steps[1:]):
            local = tuple([slice(d.start - f.start, d.stop - f.start)
                           for d, f in zip(domain, first)])
            dx, dy = _update_flow(cone[local], e2, dx, dy, kernel, domain, final)
        next_pyr.expanded[k] = e2.box, e2.expansion
        coarser = shape, (steps[-1][0].start, steps[-1][1].start)
    return FlowField(dx, dy)


def magnitude_stats(mag: np.ndarray) -> tuple[float, float]:
    """Mean and population std of the flow magnitude `mag` over the whole field."""
    return float(mag.mean()), float(mag.std())


def mask_worker_regions(mag: np.ndarray, span: tuple[slice, slice],
                        workers: list[BoundingBox]) -> np.ndarray:
    """`mag`, the flow magnitude over the pixel `span`, zeroed in place on
    the pixels of `span` that lie in a worker's `pixel_span`."""
    for worker in workers:
        inner = pixel_span(worker, span[1].stop, span[0].stop)
        if inner is not None:
            # a worker wholly left of or above the span gives a stop of 0
            local = tuple([slice(max(i.start - s.start, 0), max(i.stop - s.start, 0))
                           for i, s in zip(inner, span)])
            mag[local] = 0.0
    return mag
