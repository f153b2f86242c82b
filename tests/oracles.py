"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's fast paths: rasterized pixel
sets for box geometry, flood fill for components, dense least squares
for the polynomial fit, naive PR enumeration for AP, the per-pair flow
arithmetic with no shared passes, and the motion statistics taken over
the whole frame through a boolean region.
"""

import numpy as np
from scipy import ndimage

from wardflow.boxes import BoundingBox, intersection_area, iou, pixel_span
from wardflow.flow import _COND_LIMIT, _MIN_EIG, _gaussian_kernel, _resize


def raster_mask(box, width, height):
    """Pixels whose integer index lies inside the half-open box."""
    mask = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c in range(width):
            if box.x <= c < box.x + box.w and box.y <= r < box.y + box.h:
                mask[r, c] = True
    return mask


def flood_components(mask):
    """4-connected components of a boolean grid, as pixel lists."""
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for r0, c0 in zip(*np.nonzero(mask)):
        if seen[r0, c0]:
            continue
        stack = [(int(r0), int(c0))]
        seen[r0, c0] = True
        pixels = []
        while stack:
            r, c = stack.pop()
            pixels.append((r, c))
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nr, nc = r + dr, c + dc
                if (0 <= nr < mask.shape[0] and 0 <= nc < mask.shape[1]
                        and mask[nr, nc] and not seen[nr, nc]):
                    seen[nr, nc] = True
                    stack.append((nr, nc))
        comps.append(pixels)
    return comps


def polyfit_neighborhood(img, row, col, poly_n, poly_sigma):
    """Weighted LS quadratic fit of one pixel neighborhood, dense solve.

    Returns (c, bx, by, a11, a22, a12).
    """
    n = poly_n // 2
    offsets = np.arange(-n, n + 1)
    g = np.exp(-offsets.astype(float) ** 2 / (2 * poly_sigma**2))
    g /= g.sum()
    rows_d, cols_d, weights, values = [], [], [], []
    for dy in offsets:
        for dx in offsets:
            rows_d.append(dy)
            cols_d.append(dx)
            weights.append(g[dy + n] * g[dx + n])
            values.append(img[row + dy, col + dx])
    x = np.array(cols_d, dtype=float)
    y = np.array(rows_d, dtype=float)
    design = np.column_stack([np.ones_like(x), x, y, x * x, y * y, x * y])
    sw = np.sqrt(np.array(weights))
    coef, *_ = np.linalg.lstsq(design * sw[:, None], np.array(values) * sw, rcond=None)
    c, bx, by, a11, a22, axy = coef
    return c, bx, by, a11, a22, axy / 2.0


def flow_per_pair(img1, img2, params, seed=None):
    """Coarse-to-fine flow for one image pair, each step written out.

    Both pyramids are built inside the call, each of the six expansion
    terms and five normal-equation terms gets its own row and column
    pass, and every warp takes its own coordinate list.  Returns (dx, dy).
    """
    def corr(image, ky, kx):
        tmp = ndimage.correlate1d(image, ky, axis=0, mode="nearest")
        return ndimage.correlate1d(tmp, kx, axis=1, mode="nearest")

    def expand(img):
        n = params.poly_n // 2
        x = np.arange(-n, n + 1, dtype=np.float64)
        g = np.exp(-(x * x) / (2.0 * params.poly_sigma * params.poly_sigma))
        g /= g.sum()
        k0, k1, k2 = g, g * x, g * x * x
        X, Y = np.meshgrid(x, x)
        basis = np.stack([np.ones_like(X), X, Y, X * X, Y * Y, X * Y])
        G = np.einsum("yx,iyx,jyx->ij", np.outer(g, g), basis, basis)
        v = np.stack([corr(img, k0, k0), corr(img, k0, k1), corr(img, k1, k0),
                      corr(img, k0, k2), corr(img, k2, k0), corr(img, k1, k1)],
                     axis=-1)
        r = v @ np.linalg.inv(G).T
        return r[..., 3], r[..., 5] * 0.5, r[..., 4], r[..., 1], r[..., 2]

    def update(e1, e2, dx, dy):
        h, w = dx.shape
        rows, cols = np.meshgrid(np.arange(h, dtype=np.float64),
                                 np.arange(w, dtype=np.float64), indexing="ij")
        rr, cc = rows + dy, cols + dx
        w11, w12, w22, wbx, wby = (ndimage.map_coordinates(a, [rr, cc], order=1,
                                                           mode="nearest")
                                   for a in e2)
        a11 = 0.5 * (e1[0] + w11)
        a12 = 0.5 * (e1[1] + w12)
        a22 = 0.5 * (e1[2] + w22)
        db1 = -0.5 * (wbx - e1[3]) + a11 * dx + a12 * dy
        db2 = -0.5 * (wby - e1[4]) + a12 * dx + a22 * dy
        k = _gaussian_kernel(params.window)
        m11 = corr(a11 * a11 + a12 * a12, k, k)
        m12 = corr(a12 * (a11 + a22), k, k)
        m22 = corr(a12 * a12 + a22 * a22, k, k)
        h1 = corr(a11 * db1 + a12 * db2, k, k)
        h2 = corr(a12 * db1 + a22 * db2, k, k)
        half_gap = np.sqrt((m11 - m22) ** 2 + 4.0 * m12 * m12)
        lam_min = 0.5 * ((m11 + m22) - half_gap)
        lam_max = 0.5 * ((m11 + m22) + half_gap)
        ok = (lam_min > _MIN_EIG) & (lam_max <= _COND_LIMIT * lam_min)
        det = np.where(ok, m11 * m22 - m12 * m12, 1.0)
        return (np.where(ok, (m22 * h1 - m12 * h2) / det, dx),
                np.where(ok, (m11 * h2 - m12 * h1) / det, dy))

    pyr1 = [np.asarray(img1, dtype=np.float64)]
    pyr2 = [np.asarray(img2, dtype=np.float64)]
    sigma = np.sqrt(1.0 / params.pyramid_scale**2 - 1.0)
    for _ in range(params.pyramid_levels - 1):
        shape = (max(1, round(pyr1[-1].shape[0] * params.pyramid_scale)),
                 max(1, round(pyr1[-1].shape[1] * params.pyramid_scale)))
        if min(shape) < params.poly_n:
            break
        pyr1.append(_resize(ndimage.gaussian_filter(pyr1[-1], sigma, mode="nearest"), shape))
        pyr2.append(_resize(ndimage.gaussian_filter(pyr2[-1], sigma, mode="nearest"), shape))
    dx = dy = None
    for level in reversed(range(len(pyr1))):
        shape = pyr1[level].shape
        if dx is None and seed is None:
            dx, dy = np.zeros(shape), np.zeros(shape)
        else:
            if dx is None:
                dx, dy = seed.dx, seed.dy
            prev_shape = dx.shape
            dx = _resize(dx, shape) * (shape[1] / prev_shape[1])
            dy = _resize(dy, shape) * (shape[0] / prev_shape[0])
        e1, e2 = expand(pyr1[level]), expand(pyr2[level])
        for _ in range(params.iterations):
            dx, dy = update(e1, e2, dx, dy)
    return dx, dy


def motion_raw_full_frame(flow, patient, workers):
    """Unrelaxed motion of one frame on full-frame arrays, or None for a gap.

    The flow is copied whole, worker overlaps are zeroed at their
    full-frame pixel spans, and mean + std of the magnitude are taken
    over a frame-sized boolean region holding the patient's span.
    """
    height, width = flow.dx.shape
    clamped = patient.clamped(width, height)
    span = pixel_span(clamped, width, height) if clamped else None
    if span is None:
        return None
    dx, dy = flow.dx.copy(), flow.dy.copy()
    for worker in workers:
        if intersection_area(clamped, worker) <= 0:
            continue
        overlap = BoundingBox(
            max(clamped.x, worker.x), max(clamped.y, worker.y),
            min(clamped.right, worker.right) - max(clamped.x, worker.x),
            min(clamped.bottom, worker.bottom) - max(clamped.y, worker.y),
        )
        inner = pixel_span(overlap, width, height)
        if inner is not None:
            dx[inner] = 0.0
            dy[inner] = 0.0
    region = np.zeros((height, width), dtype=bool)
    region[span] = True
    mag = np.hypot(dx, dy)[region]
    return float(mag.mean()) + float(mag.std())


def ap_bruteforce(pred_frames, gt_frames, cls, thr):
    """Naive PR enumeration mirroring the VOC greedy protocol.

    pred_frames/gt_frames are lists of FrameDetections paired by index.
    Returns None when the class has no ground truth.
    """
    ranked = []
    gt_boxes = []
    for fi, (pred, truth) in enumerate(zip(pred_frames, gt_frames)):
        for d in pred.detections:
            if d.cls == cls:
                ranked.append((d.confidence, fi, d.box))
        gt_boxes.append([g.box for g in truth.detections if g.cls == cls])
    n_gt = sum(len(b) for b in gt_boxes)
    if n_gt == 0:
        return None
    order = sorted(range(len(ranked)), key=lambda i: -ranked[i][0])
    used = [set() for _ in gt_boxes]
    flags = []
    for i in order:
        _, fi, box = ranked[i]
        best_j, best_v = -1, -1.0
        for j, g in enumerate(gt_boxes[fi]):
            if j in used[fi]:
                continue
            v = iou(box, g)
            if v > best_v:
                best_j, best_v = j, v
        if best_j >= 0 and best_v >= thr:
            used[fi].add(best_j)
            flags.append(True)
        else:
            flags.append(False)
    points = []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += int(flag)
        points.append((tp / n_gt, tp / k))
    ap = 0.0
    prev_r = 0.0
    for k, flag in enumerate(flags):
        if flag:
            recall = points[k][0]
            ap += (recall - prev_r) * max(p for _, p in points[k:])
            prev_r = recall
    return ap
