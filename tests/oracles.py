"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's fast paths: rasterized pixel
sets for box geometry, flood fill for components, dense least squares
for the polynomial fit, naive PR enumeration for AP, gray pyramids
resized by `ndimage.zoom`, the per-pair flow arithmetic with no shared
passes and OpenCV's window kernel, and the motion statistics taken over
the whole frame through a boolean region, and a scan of every motion
sample per Riker record.  The output files of
`analyze` and `eval` are formatted here line by line, field by field,
and the durations of the paper's tables are parsed here.
"""

import json
import re

import numpy as np
from scipy import ndimage

from wardflow.analytics import RikerGroup, count_workers, interaction_time
from wardflow.boxes import (BoundingBox, ObjectClass, intersection_area, iou,
                            match_detections, pixel_span)
from wardflow.evaluation import counting_accuracy, format_duration, mean_ap, time_error
from wardflow.svgplot import Panel, Series, render_chart
from wardflow.flow import _COND_LIMIT, _MIN_EIG

_DURATION_RE = re.compile(r"^(?:(?P<h>\d+)h)?(?:(?P<m>\d+)m)?(?:(?P<s>\d+)s)?$")


def parse_duration(text: str) -> int:
    """Whole seconds of a table duration such as "1h00m21s", "57m25s" or
    "32s", the inverse of `format_duration`."""
    match = _DURATION_RE.match(text.strip())
    if not match or not any(match.group(g) for g in ("h", "m", "s")):
        raise ValueError(f"bad duration {text!r}")
    h = int(match.group("h") or 0)
    m = int(match.group("m") or 0)
    s = int(match.group("s") or 0)
    return h * 3600 + m * 60 + s


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


def resize(arr, shape):
    """`arr` resized bilinearly to `shape` on the pixel-centre grid, with
    edge replication."""
    factors = (shape[0] / arr.shape[0], shape[1] / arr.shape[1])
    return ndimage.zoom(arr, factors, order=1, mode="nearest", grid_mode=True)


def gaussian_kernel(n):
    """OpenCV's normalized n-tap Gaussian, sigma = 0.3 * ((n - 1) / 2 - 1) + 0.8."""
    sigma = 0.3 * ((n - 1) / 2 - 1) + 0.8
    x = np.arange(n, dtype=np.float64) - (n - 1) / 2
    k = np.exp(-(x * x) / (2 * sigma * sigma))
    return k / k.sum()


def pyramid(img, params):
    """The gray levels of `img` in float64, finest first: each coarser one
    the level above it blurred and `resize`d, while it holds `poly_n` px."""
    levels = [np.asarray(img, dtype=np.float64)]
    sigma = np.sqrt(1.0 / params.pyramid_scale**2 - 1.0)
    for _ in range(params.pyramid_levels - 1):
        shape = (max(1, round(levels[-1].shape[0] * params.pyramid_scale)),
                 max(1, round(levels[-1].shape[1] * params.pyramid_scale)))
        if min(shape) < params.poly_n:
            break
        levels.append(resize(ndimage.gaussian_filter(levels[-1], sigma, mode="nearest"), shape))
    return levels


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
        k = gaussian_kernel(params.window)
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

    pyr1, pyr2 = pyramid(img1, params), pyramid(img2, params)
    dx = dy = None
    for level in reversed(range(len(pyr1))):
        shape = pyr1[level].shape
        if dx is None and seed is None:
            dx, dy = np.zeros(shape), np.zeros(shape)
        else:
            if dx is None:
                dx, dy = seed.dx, seed.dy
            prev_shape = dx.shape
            dx = resize(dx, shape) * (shape[1] / prev_shape[1])
            dy = resize(dy, shape) * (shape[0] / prev_shape[0])
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


def align_riker_loop(motion, records, window):
    """Riker groups with each record's window found by scanning every
    motion sample: the mean of the smoothed non-gap samples within
    +/-window seconds, then per score the mean and quartiles of the
    record means."""
    by_score = {}
    for rec in records:
        values = [s.smoothed for s in motion
                  if not s.gap and abs(s.timestamp - rec.timestamp) <= window]
        if values:
            by_score.setdefault(rec.score, []).append(float(np.mean(values)))
    groups = []
    for score in sorted(by_score):
        means = by_score[score]
        q25, q50, q75 = np.percentile(means, [25.0, 50.0, 75.0])
        groups.append(RikerGroup(score, float(np.mean(means)),
                                 float(q25), float(q50), float(q75), len(means)))
    return groups


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


def report_to_dict(report):
    """Stable JSON layout for report files."""
    return {
        "nursing_time_s": report.nursing_time_s,
        "interaction_time_s": report.interaction_time_s,
        "per_second_worker_counts": report.per_second_worker_counts,
        "events": [
            {"t": e.timestamp, "ratio": e.overlap_ratio,
             "patient_box": [e.patient_box.x, e.patient_box.y, e.patient_box.w, e.patient_box.h],
             "worker_box": [e.worker_box.x, e.worker_box.y, e.worker_box.w, e.worker_box.h]}
            for e in report.events
        ],
        "motion": [
            {"t": s.timestamp, "raw": s.raw, "smoothed": s.smoothed}
            for s in report.motion
        ],
        "riker": [
            {"score": g.score, "mean": g.mean, "q25": g.q25,
             "q50": g.q50, "q75": g.q75, "n": g.n}
            for g in report.riker
        ],
        "gaps": report.gaps,
    }


def analyze_files(report, ts):
    """{file name: text} of every file `analyze` writes for `report`,
    with `ts` the manifest's frame times."""
    files = {"report.json": json.dumps(report_to_dict(report), indent=2) + "\n"}
    motion_rows = ["t,raw,smoothed"]
    motion_rows += [f"{s.timestamp!r},{s.raw!r},{s.smoothed!r}" for s in report.motion]
    files["motion.csv"] = "\n".join(motion_rows) + "\n"
    event_rows = ["t,ratio,patient_box,worker_box"]
    event_rows += [
        f"{e.timestamp!r},{e.overlap_ratio!r},"
        f"{e.patient_box.x}:{e.patient_box.y}:{e.patient_box.w}:{e.patient_box.h},"
        f"{e.worker_box.x}:{e.worker_box.y}:{e.worker_box.w}:{e.worker_box.h}"
        for e in report.events
    ]
    files["events.csv"] = "\n".join(event_rows) + "\n"
    panels = [
        Panel("Workers per second",
              [Series("workers", ts, [float(c) for c in report.per_second_worker_counts],
                      step=True)]),
        Panel("Physical interaction per second",
              [Series("interaction", ts, [float(v) for v in report.per_second_interaction],
                      step=True)]),
    ]
    files["activity.svg"] = render_chart(panels)
    if report.motion:
        mt = [s.timestamp for s in report.motion]
        motion_panels = [Panel("Patient motion over time",
                               [Series("raw", mt, [s.raw for s in report.motion]),
                                Series("smoothed", mt, [s.smoothed for s in report.motion])])]
        files["motion.svg"] = render_chart(motion_panels)
    return files


def eval_files(dets, gts, thresholds, name, conf_min, tau, dt):
    """{file name: text} of every file `eval` writes."""
    def per_second_series(frames):
        return ([count_workers(f, conf_min) for f in frames],
                interaction_time(frames, tau, conf_min).indicators)

    preds = match_detections(gts, dets)
    table = mean_ap(preds, gts, thresholds)
    pred_counts, pred_pi = per_second_series(preds)
    label_counts, label_pi = per_second_series(gts)
    worker_acc = counting_accuracy(pred_counts, label_counts)
    pi_acc = counting_accuracy(pred_pi, label_pi)
    pred_nursing = sum(pred_counts) * dt
    label_nursing = sum(label_counts) * dt
    pred_inter = sum(pred_pi) * dt
    label_inter = sum(label_pi) * dt

    files = {}
    rows = ["metric,patient,worker,overall"]
    classes = [ObjectClass.PATIENT, ObjectClass.WORKER]  # the header's columns
    for thr in thresholds:
        cells = ",".join(f"{table.per_class[c][thr]:.4f}" if c in table.per_class else ""
                         for c in classes)
        rows.append(f"mAP@{thr:g},{cells},")
    avg_cells = ",".join(f"{table.class_averages[c]:.4f}" if c in table.class_averages else ""
                         for c in classes)
    overall = f"{table.overall:.4f}" if table.overall is not None else ""
    rows.append(f"average,{avg_cells},{overall}")
    files["map.csv"] = "\n".join(rows) + "\n"

    files["accuracy.csv"] = ("video,worker_counting,interaction_counting\n"
                             f"{name},{worker_acc:.4f},{pi_acc:.4f}\n")
    files["nursing_time.csv"] = ("video,predicted,label,error\n"
                                 f"{name},{format_duration(pred_nursing)},"
                                 f"{format_duration(label_nursing)},"
                                 f"{format_duration(time_error(pred_nursing, label_nursing))}\n")
    files["interaction_time.csv"] = ("video,predicted,label,error\n"
                                     f"{name},{format_duration(pred_inter)},"
                                     f"{format_duration(label_inter)},"
                                     f"{format_duration(time_error(pred_inter, label_inter))}\n")
    files["eval.json"] = json.dumps({
        "map": {c.value: {f"{t:g}": table.per_class[c][t] for t in thresholds}
                for c in table.per_class},
        "map_class_averages": {c.value: v for c, v in table.class_averages.items()},
        "map_overall": table.overall,
        "worker_counting_accuracy": worker_acc,
        "interaction_counting_accuracy": pi_acc,
        "nursing_time": {"predicted_s": pred_nursing, "label_s": label_nursing,
                         "error_s": time_error(pred_nursing, label_nursing)},
        "interaction_time": {"predicted_s": pred_inter, "label_s": label_inter,
                             "error_s": time_error(pred_inter, label_inter)},
    }, indent=2) + "\n"
    return files
