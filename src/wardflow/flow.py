"""Dense optical flow from local polynomial expansion.

Each pixel neighborhood is fit (Gaussian-weighted least squares) to a
quadratic surface f(u) ~ u'Au + b'u + c; displacements follow from how
the linear coefficients shift between two frames, solved over an
averaging window and refined coarse-to-fine over an image pyramid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .boxes import BoundingBox, pixel_span

# Local 2x2 systems with condition estimates beyond this are treated as
# degenerate and keep their current displacement.
_COND_LIMIT = 1e6
_MIN_EIG = 1e-9


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

    def __post_init__(self):
        self.dx = np.asarray(self.dx, dtype=np.float64)
        self.dy = np.asarray(self.dy, dtype=np.float64)
        if self.dx.shape != self.dy.shape or self.dx.ndim != 2:
            raise ValueError("dx and dy must be 2-D arrays of equal shape")

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.dx, self.dy)


@dataclass
class PolyExpansion:
    """The quadratic-fit coefficients the flow reads, per pixel; each is a
    plane of one rows x cols x 5 buffer.  The constant term is not kept."""

    a11: np.ndarray  # x^2 coefficient
    a22: np.ndarray  # y^2 coefficient
    axy: np.ndarray  # xy coefficient, twice A's off-diagonal
    bx: np.ndarray
    by: np.ndarray


def _as_image(frame) -> np.ndarray:
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D image")
    return arr


def poly_expand(frame, poly_n: int, poly_sigma: float) -> PolyExpansion:
    """Fit every pixel neighborhood to a quadratic in {1,x,y,x2,y2,xy},
    keeping the five non-constant coefficients.

    Borders use edge replication.  The fit is exact for polynomial
    images up to degree two away from the borders.
    """
    img = _as_image(frame)
    n = poly_n // 2
    if min(img.shape) < poly_n:
        raise ValueError(f"image {img.shape} smaller than expansion window {poly_n}")
    x = np.arange(-n, n + 1, dtype=np.float64)
    g = np.exp(-(x * x) / (2.0 * poly_sigma * poly_sigma))
    g /= g.sum()
    k0, k1, k2 = g, g * x, g * x * x

    # Metric of the weighted basis; solved once, applied per pixel.
    X, Y = np.meshgrid(x, x)
    w2d = np.outer(g, g)
    basis = np.stack([np.ones_like(X), X, Y, X * X, Y * Y, X * Y])
    G = np.einsum("yx,iyx,jyx->ij", w2d, basis, basis)
    Ginv = np.linalg.inv(G)

    # The six separable correlations need only three distinct y (axis-0)
    # passes; each is shared by the x (axis-1) passes that follow it.
    y0, y1, y2 = (ndimage.correlate1d(img, k, axis=0, mode="nearest") for k in (k0, k1, k2))
    terms = [(y0, k0), (y0, k1), (y1, k0), (y0, k2), (y2, k0), (y1, k1)]
    v = np.stack([ndimage.correlate1d(rows, kx, axis=1, mode="nearest") for rows, kx in terms],
                 axis=-1)
    r = v @ Ginv[1:].T  # every row but the constant term's
    return PolyExpansion(a11=r[..., 2], a22=r[..., 3], axy=r[..., 4], bx=r[..., 0], by=r[..., 1])


def _gaussian_kernel(length: int) -> np.ndarray:
    sigma = 0.3 * ((length - 1) * 0.5 - 1.0) + 0.8
    x = np.arange(length, dtype=np.float64) - (length - 1) / 2.0
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _dependency_cones(shapes: list[tuple[int, int]], span: tuple[slice, slice],
                      params: FlowParams) -> list[tuple[slice, slice]]:
    """Per pyramid level, finest first, the pixels whose updates reach `span`.

    One update reads the window blur, which reaches `window // 2` px, so
    a level's `iterations` updates reach a halo of `iterations * (window
    // 2)` px.  The finest cone is `span` plus the halo.  Each coarser
    cone is the finer cone mapped down by the shape ratio, plus 1 px for
    the order-1 `_resize` that carries it up, plus the halo.  Every cone
    is clipped to its level.
    """
    halo = params.iterations * (params.window // 2)
    cones = []
    for k, shape in enumerate(shapes):
        if k == 0:
            reach = [(s.start - halo, s.stop + halo) for s in span]
        else:
            reach = [(c.start * n // m - 1 - halo, -(-c.stop * n // m) + 1 + halo)
                     for c, n, m in zip(cones[-1], shape, shapes[k - 1])]
        cones.append(tuple(slice(max(0, lo), min(n, hi)) for (lo, hi), n in zip(reach, shape)))
    return cones


def _blur(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable blur over the last two axes, so a stack blurs per plane."""
    tmp = ndimage.correlate1d(arr, kernel, axis=-2, mode="nearest")
    return ndimage.correlate1d(tmp, kernel, axis=-1, mode="nearest")


def _normal_terms(e1: PolyExpansion, e2: PolyExpansion, dx, dy,
                  origin: tuple[int, int]) -> np.ndarray:
    """Stacked terms of the normal equations of min ||A d - db||^2.

    `e1`, `dx` and `dy` cover a region whose first pixel is `origin` of
    the level; `e2` is the whole level, where the warp lands.  Kept apart
    from the blur so the warped coefficients are freed first.
    """
    coords = np.indices(dx.shape, dtype=np.float64)
    coords[0] += origin[0]
    coords[1] += origin[1]
    coords[0] += dy
    coords[1] += dx

    def warp(arr):
        return ndimage.map_coordinates(arr, coords, order=1, mode="nearest")

    a11 = 0.5 * (e1.a11 + warp(e2.a11))
    a12 = 0.25 * (e1.axy + warp(e2.axy))  # half the mean xy term; exact, a power of two
    a22 = 0.5 * (e1.a22 + warp(e2.a22))
    db1 = -0.5 * (warp(e2.bx) - e1.bx) + a11 * dx + a12 * dy
    db2 = -0.5 * (warp(e2.by) - e1.by) + a12 * dx + a22 * dy
    return np.stack([
        a11 * a11 + a12 * a12,
        a12 * (a11 + a22),
        a12 * a12 + a22 * a22,
        a11 * db1 + a12 * db2,
        a12 * db1 + a22 * db2,
    ])


def _update_flow(e1: PolyExpansion, e2: PolyExpansion, dx, dy, window: int,
                 origin: tuple[int, int]):
    m11, m12, m22, h1, h2 = _blur(_normal_terms(e1, e2, dx, dy, origin),
                                  _gaussian_kernel(window))

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


def _resize(arr: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    factors = (shape[0] / arr.shape[0], shape[1] / arr.shape[1])
    return ndimage.zoom(arr, factors, order=1, mode="nearest", grid_mode=True)


def expand_pyramid(frame, params: FlowParams) -> list[PolyExpansion]:
    """Polynomial expansion of every pyramid level of one frame, finest first.

    This is how an image enters the flow: `estimate_flow` takes two of
    these pyramids, so a frame is expanded once for both pairs it belongs
    to.  Levels too small to hold the expansion window are dropped.
    """
    img = _as_image(frame)
    levels = [img]
    sigma = np.sqrt(1.0 / params.pyramid_scale**2 - 1.0)
    for _ in range(params.pyramid_levels - 1):
        shape = (max(1, round(img.shape[0] * params.pyramid_scale)),
                 max(1, round(img.shape[1] * params.pyramid_scale)))
        if min(shape) < params.poly_n:
            break
        img = _resize(ndimage.gaussian_filter(img, sigma, mode="nearest"), shape)
        levels.append(img)
    return [poly_expand(level, params.poly_n, params.poly_sigma) for level in levels]


def estimate_flow(prev_pyr: list[PolyExpansion], next_pyr: list[PolyExpansion],
                  params: FlowParams, span: tuple[slice, slice]) -> FlowField:
    """Displacement between two frames over the pixel `span`, coarse-to-fine from zero.

    Each frame is its `expand_pyramid` result, built with `params`.
    `span` is a (rows, cols) pair of slices with integer bounds inside the
    frame, as `boxes.pixel_span` returns; the field covers exactly those
    pixels.  Each level iterates only on the span's dependency cone
    (`_dependency_cones`): an update at a pixel reads `e1` there, `e2`
    where the warp lands (kept whole) and the window blur, which reaches
    `window // 2` px, so the field over `span` has the bits of the
    whole-frame field.  Ill-conditioned pixels keep the displacement they
    have (zero unless a coarser level set it), so the field is always
    fully populated.
    """
    shapes1, shapes2 = ([e.a11.shape for e in pyr] for pyr in (prev_pyr, next_pyr))
    if shapes1 != shapes2:
        raise ValueError(f"frame shapes differ: {shapes1[0]} vs {shapes2[0]}")

    # dx/dy stay level-sized so `_resize` reads the whole coarser field;
    # only the cone is updated
    dx = dy = np.zeros(shapes1[-1])
    cones = _dependency_cones(shapes1, span, params)
    for e1, e2, cone in zip(reversed(prev_pyr), reversed(next_pyr), reversed(cones)):
        shape = e1.a11.shape
        scale_x, scale_y = shape[1] / dx.shape[1], shape[0] / dx.shape[0]
        dx, dy = _resize(dx, shape) * scale_x, _resize(dy, shape) * scale_y
        e1 = PolyExpansion(**{name: coef[cone] for name, coef in vars(e1).items()})
        origin = (cone[0].start, cone[1].start)
        cone_dx, cone_dy = dx[cone], dy[cone]
        for _ in range(params.iterations):
            cone_dx, cone_dy = _update_flow(e1, e2, cone_dx, cone_dy, params.window, origin)
        dx[cone], dy[cone] = cone_dx, cone_dy
    return FlowField(dx[span], dy[span])


def magnitude_stats(flow: FlowField) -> tuple[float, float]:
    """Mean and population std of the flow magnitude over the whole field."""
    mag = flow.magnitude()
    return float(mag.mean()), float(mag.std())


def mask_worker_regions(flow: FlowField, span: tuple[slice, slice],
                        workers: list[BoundingBox]) -> FlowField:
    """A copy of `flow`, the field over the pixel `span`, zeroed on the
    pixels of `span` that lie in a worker's `pixel_span`."""
    dx, dy = flow.dx.copy(), flow.dy.copy()
    for worker in workers:
        inner = pixel_span(worker, span[1].stop, span[0].stop)
        if inner is not None:
            # a worker wholly left of or above the span gives a stop of 0
            local = tuple(slice(max(i.start - s.start, 0), max(i.stop - s.start, 0))
                          for i, s in zip(inner, span))
            dx[local] = dy[local] = 0.0
    return FlowField(dx, dy)
