"""Detector and pipeline evaluation: VOC-style average precision over
IoU thresholds, per-second counting accuracy, and time-error helpers
with the h/m/s formatting used in the result tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .boxes import FrameDetections, ObjectClass, iou

DEFAULT_IOU_THRESHOLDS = (0.5, 0.7, 0.9)


@dataclass
class APTable:
    """Per-class AP at each threshold plus the row/column averages."""

    thresholds: tuple[float, ...]
    per_class: dict[ObjectClass, dict[float, float]]
    class_averages: dict[ObjectClass, float]
    overall: float | None


def average_precision(dets: list[FrameDetections], gts: list[FrameDetections],
                      cls: ObjectClass, iou_thresh: float) -> float | None:
    """All-points-interpolated AP for one class at one IoU threshold, or
    None when the class has no ground truth.

    `dets` must be aligned with `gts`: `dets[i]` holds the predictions
    for the frame of `gts[i]`, as `match_detections(gts, dets)` returns
    them, and lists of different lengths raise ValueError.  Detections
    are ranked by descending confidence (stable) and matched greedily
    one-to-one against same-frame ground truths: each takes the
    unmatched truth of highest IoU >= threshold; extra hits on an
    already-matched truth count as false positives.
    """
    if not 0.0 < iou_thresh < 1.0:
        raise ValueError("iou_thresh must be in (0, 1)")
    ranked = []  # (conf, frame_idx, box), stable under sort
    gt_boxes = []
    for fi, (pred, truth) in enumerate(zip(dets, gts, strict=True)):
        for d in pred.detections:
            if d.cls == cls:
                ranked.append((d.confidence, fi, d.box))
        gt_boxes.append([g.box for g in truth.detections if g.cls == cls])
    n_gt = sum(len(b) for b in gt_boxes)
    if n_gt == 0:
        return None
    ranked.sort(key=lambda r: -r[0])

    matched = [set() for _ in gt_boxes]
    tp_flags = []
    for _, fi, box in ranked:
        best_j, best_iou = -1, iou_thresh
        for j, gt_box in enumerate(gt_boxes[fi]):
            if j in matched[fi]:
                continue
            v = iou(box, gt_box)
            if v > best_iou or (v == best_iou and best_j == -1 and v >= iou_thresh):
                best_j, best_iou = j, v
        if best_j >= 0:
            matched[fi].add(best_j)
            tp_flags.append(True)
        else:
            tp_flags.append(False)

    recalls, precisions = [], []
    tp = 0
    for k, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        recalls.append(tp / n_gt)
        precisions.append(tp / k)

    # All-points interpolation: integrate the running-max precision
    # envelope over recall, one step per true positive.
    envelope = precisions.copy()
    for k in range(len(envelope) - 2, -1, -1):
        envelope[k] = max(envelope[k], envelope[k + 1])
    ap = 0.0
    prev_r = 0.0
    for k, flag in enumerate(tp_flags):
        if flag:
            ap += (recalls[k] - prev_r) * envelope[k]
            prev_r = recalls[k]
    return ap


def mean_ap(dets: list[FrameDetections], gts: list[FrameDetections],
            thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS) -> APTable:
    """AP per class per threshold, class averages, and the grand mean.

    `dets` is aligned with `gts` as for `average_precision`.  Classes
    with no ground truth are excluded from the table with a warning
    rather than counted as zero.
    """
    if not thresholds:
        raise ValueError("need at least one IoU threshold")
    per_class: dict[ObjectClass, dict[float, float]] = {}
    for cls in ObjectClass:
        row = {thr: average_precision(dets, gts, cls, thr) for thr in thresholds}
        if None in row.values():
            warnings.warn(f"no ground truth for class {cls.value}; excluded from mAP")
        else:
            per_class[cls] = row
    class_averages = {
        cls: sum(row.values()) / len(row) for cls, row in per_class.items()
    }
    overall = (sum(class_averages.values()) / len(class_averages)
               if class_averages else None)
    return APTable(tuple(thresholds), per_class, class_averages, overall)


def counting_accuracy(pred: list[int], label: list[int]) -> float:
    """Fraction of seconds where the two integer series agree exactly."""
    if len(pred) != len(label):
        raise ValueError(f"series lengths differ: {len(pred)} vs {len(label)}")
    if not pred:
        return 1.0
    return sum(p == l for p, l in zip(pred, label)) / len(pred)


def time_error(predicted: float, labeled: float) -> float:
    """Absolute difference between two durations in seconds."""
    if predicted < 0 or labeled < 0:
        raise ValueError("durations must be non-negative")
    return abs(predicted - labeled)


def format_duration(seconds: float) -> str:
    """Render seconds as e.g. "1h00m21s", "57m25s", or "32s"."""
    total = round(seconds)
    if total < 0:
        raise ValueError("duration must be non-negative")
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}h{m:02d}m{s:02d}s"
    if m:
        return f"{m}m{s:02d}s"
    return f"{s}s"

