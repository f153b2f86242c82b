"""Detection sources: the JSONL ingestion format and a naive thermal
blob detector used as a baseline when no external detections exist.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
from scipy import ndimage

from .boxes import (BoundingBox, Detection, FrameDetections, ObjectClass, parse_box,
                    parse_number, parse_time, time_key)
from .errors import FormatError
from .frames import ThermalFrame

# 4-connectivity for blob labelling.
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

_CLASS_NAMES = {c.value: c for c in ObjectClass}


def parse_detections_jsonl(text: str,
                           resolution: tuple[int, int] | None = None) -> list[FrameDetections]:
    """Parse per-frame detections from JSONL text, one JSON object per
    line; lines end at a newline only, as a text-mode file reads them.

    Line schema: {"t": seconds, "dets": [{"cls": "patient"|"worker",
    "conf": r, "box": [x, y, w, h]}, ...]}.  "conf" defaults to 1.0 so
    ground-truth files can reuse the format.  When a (width, height)
    resolution is given, boxes are clamped to the frame, and boxes wholly
    outside it are dropped with a warning.  Two lines with
    the same timestamp (to the microsecond the timestamp joins match on)
    are rejected.
    """
    frames = []
    first_line = {}  # timestamp key -> line that used it
    outside = []  # timestamps of dropped boxes
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}", line=lineno) from exc
        if not isinstance(obj, dict) or "t" not in obj or "dets" not in obj:
            raise FormatError("expected object with 't' and 'dets'", line=lineno)
        try:
            t = parse_time(obj["t"])
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from None
        seen = first_line.setdefault(time_key(t), lineno)
        if seen != lineno:
            raise FormatError(f"timestamp {t} repeats line {seen}", line=lineno)
        if not isinstance(obj["dets"], list):
            raise FormatError(f"'dets' must be a list, got {obj['dets']!r}", line=lineno)
        dets = []
        for d in obj["dets"]:
            if not isinstance(d, dict):
                raise FormatError(f"detection must be an object, got {d!r}", line=lineno)
            name = d.get("cls")
            cls = _CLASS_NAMES.get(name) if isinstance(name, str) else None
            if cls is None:
                raise FormatError(f"unknown class {name!r}", line=lineno)
            try:
                conf = parse_number(d.get("conf", 1.0))
                box = parse_box(d["box"])
                det = Detection(box, cls, conf)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"bad detection {d!r}: {exc}", line=lineno) from exc
            if resolution is not None:
                clamped = box.clamped(*resolution)
                if clamped is None:
                    outside.append(t)
                    continue
                det = Detection(clamped, cls, conf)
            dets.append(det)
        frames.append(FrameDetections(t, dets))
    if outside:
        warnings.warn(f"{len(outside)} detections lie wholly outside the frame and are "
                      f"dropped, the first at t={min(outside)}")
    frames.sort(key=lambda f: f.timestamp)
    return frames


def detections_to_jsonl(frames: list[FrameDetections]) -> str:
    """Serialize frames back to the JSONL schema (inverse of the parser)."""
    lines = []
    for f in frames:
        dets = [
            {"cls": d.cls.value, "conf": d.confidence,
             "box": [d.box.x, d.box.y, d.box.w, d.box.h]}
            for d in f.detections
        ]
        lines.append(json.dumps({"t": f.timestamp, "dets": dets}))
    return "\n".join(lines) + ("\n" if lines else "")


def blob_detect(
    frame: ThermalFrame,
    min_temp: float,
    min_area: float = 1.0,
    bed_region: BoundingBox | None = None,
) -> list[Detection]:
    """Threshold warm pixels and box the 4-connected components.

    Confidence is component fill ratio (pixels / box area).  The
    component whose centroid lies nearest the bed-region center is
    labelled patient, all others worker; without a configured bed the
    frame center is used.
    """
    if not (math.isfinite(min_temp) and 1 <= min_area < math.inf):
        raise ValueError(f"need a finite min_temp and a finite min_area >= 1, "
                         f"got {min_temp} and {min_area}")
    mask = frame.temps >= min_temp
    labels, count = ndimage.label(mask, structure=_CROSS)
    if count == 0:
        return []
    sizes = np.bincount(labels.ravel())
    slices = ndimage.find_objects(labels)
    if bed_region is None:
        bed_cx, bed_cy = frame.width / 2.0, frame.height / 2.0
    else:
        bed_cx, bed_cy = bed_region.center
    candidates = []
    for idx, sl in enumerate(slices, start=1):
        npix = int(sizes[idx])
        if npix < min_area:
            continue
        rs, cs = sl
        box = BoundingBox(float(cs.start), float(rs.start),
                          float(cs.stop - cs.start), float(rs.stop - rs.start))
        rows, cols = np.nonzero(labels == idx)
        cy, cx = rows.mean() + 0.5, cols.mean() + 0.5
        conf = npix / (box.w * box.h)
        dist = math.hypot(cx - bed_cx, cy - bed_cy)
        candidates.append((dist, box, conf))
    if not candidates:
        return []
    patient_idx = min(range(len(candidates)), key=lambda i: candidates[i][0])
    out = []
    for i, (_, box, conf) in enumerate(candidates):
        cls = ObjectClass.PATIENT if i == patient_idx else ObjectClass.WORKER
        out.append(Detection(box, cls, conf))
    return out
