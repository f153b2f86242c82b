"""Axis-aligned bounding boxes, detection records, and box geometry.

Boxes use image-raster conventions: (x, y) is the top-left corner,
y grows downward, coordinates are real-valued pixels.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum


class ObjectClass(str, Enum):
    PATIENT = "patient"
    WORKER = "worker"


@dataclass(frozen=True, slots=True)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        # the area is checked too: two subnormal sides can multiply to 0
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and 0 < self.w < math.inf and 0 < self.h < math.inf and self.w * self.h > 0):
            raise ValueError(f"box needs finite values and a positive area, got {self}")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def clamped(self, width: float, height: float) -> "BoundingBox | None":
        """Clip to [0, width] x [0, height]; None if nothing remains."""
        x0 = max(self.x, 0.0)
        y0 = max(self.y, 0.0)
        w = min(self.right, float(width)) - x0
        h = min(self.bottom, float(height)) - y0
        if w <= 0 or h <= 0 or w * h <= 0:
            return None
        return BoundingBox(x0, y0, w, h)


def area(b: BoundingBox) -> float:
    return b.w * b.h


def intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    iw = min(a.right, b.right) - max(a.x, b.x)
    ih = min(a.bottom, b.bottom) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih


def iou(a: BoundingBox, b: BoundingBox) -> float:
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    return inter / union


def pixel_span(b: BoundingBox, width: int, height: int) -> tuple[slice, slice] | None:
    """Rows/cols slices of the pixels whose integer index lies in the box.

    Pixel (r, c) is covered iff x <= c < x+w and y <= r < y+h.  For
    integer boxes this selects exactly w*h pixels.  Returns None when
    the box misses the frame entirely.
    """
    c0 = max(0, math.ceil(b.x))
    c1 = min(width, math.ceil(b.right))
    r0 = max(0, math.ceil(b.y))
    r1 = min(height, math.ceil(b.bottom))
    if c1 <= c0 or r1 <= r0:
        return None
    return slice(r0, r1), slice(c0, c1)


@dataclass(frozen=True, slots=True)
class Detection:
    box: BoundingBox
    cls: ObjectClass
    confidence: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(slots=True)
class FrameDetections:
    timestamp: float
    detections: list[Detection] = field(default_factory=list)

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")

    def of_class(self, cls: ObjectClass, conf_min: float = 0.0) -> list[Detection]:
        return [d for d in self.detections if d.cls == cls and d.confidence >= conf_min]

    def patients(self, conf_min: float = 0.0) -> list[Detection]:
        return self.of_class(ObjectClass.PATIENT, conf_min)

    def workers(self, conf_min: float = 0.0) -> list[Detection]:
        return self.of_class(ObjectClass.WORKER, conf_min)

    def best_patient(self, conf_min: float = 0.0) -> Detection | None:
        """Highest-confidence patient detection, if any."""
        patients = self.patients(conf_min)
        if not patients:
            return None
        return max(patients, key=lambda d: d.confidence)


def time_key(t: float) -> int:
    """A timestamp to the microsecond: the key every timestamp join matches on."""
    return round(t / 1e-6)


def parse_number(value) -> float:
    """A number read from a JSON input file: an int or a float, so a bool
    or a string such as "2" is not read as one.  ValueError otherwise
    (OverflowError for an integer beyond a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def parse_time(value) -> float:
    """A timestamp read from an input file: a finite, non-negative number
    of seconds that `time_key` can key.  ValueError otherwise."""
    try:
        t = parse_number(value)
        if math.isfinite(t) and t >= 0:
            time_key(t)  # OverflowError where the microsecond key would be infinite
            return t
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"timestamp must be finite, non-negative and small enough to join on, "
                     f"got {value!r}")


def parse_box(value) -> BoundingBox:
    """A box read from an input file: a JSON array of four numbers
    [x, y, w, h].  ValueError otherwise, so a string such as "1234" is not
    read as its characters (OverflowError for an integer beyond a float)."""
    if not (isinstance(value, list) and len(value) == 4):
        raise ValueError(f"box must be an array of four numbers [x, y, w, h], got {value!r}")
    # a list, not `map`: arguments from an iterator of unknown length are a
    # ten-slot tuple shrunk to four, which lands on CPython's free list
    return BoundingBox(*[parse_number(v) for v in value])


def match_detections(timeline: Sequence, dets: list[FrameDetections]) -> list[FrameDetections]:
    """Pair each timeline item (anything with a `.timestamp`) with the
    detections of the same time key; missing -> empty.  Detection frames
    the join leaves out are warned about."""
    by_key = {time_key(d.timestamp): d for d in dets}
    joined = [by_key.get(time_key(f.timestamp), FrameDetections(f.timestamp)) for f in timeline]
    used = {id(fd) for fd in joined}
    orphans = [d.timestamp for d in dets if id(d) not in used]
    if orphans:
        warnings.warn(f"{len(orphans)} detection frames match no frame time, "
                      f"the first at t={orphans[0]}")
    return joined
