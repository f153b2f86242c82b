"""Clinical metrics over a detection/flow session: nursing time,
physical interaction, the relaxed motion score, and alignment of motion
with recorded sedation-agitation scores.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .boxes import BoundingBox, FrameDetections, area, intersection_area
from .errors import FormatError
from .flow import FlowField, magnitude_stats, mask_worker_regions


@dataclass(frozen=True)
class InteractionEvent:
    timestamp: float
    patient_box: BoundingBox
    worker_box: BoundingBox
    overlap_ratio: float


@dataclass(frozen=True, slots=True)
class MotionSample:
    timestamp: float
    raw: float
    smoothed: float
    gap: bool = False  # true when no usable patient box this second


@dataclass(frozen=True)
class RikerRecord:
    timestamp: float
    score: int

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError(f"time must be finite, got {self.timestamp}")
        if not 1 <= self.score <= 7:
            raise ValueError(f"score must be 1..7, got {self.score}")


@dataclass(frozen=True)
class RikerGroup:
    score: int
    mean: float
    q25: float
    q50: float
    q75: float
    n: int


@dataclass
class InteractionSummary:
    indicators: list[int]  # 0/1 per frame
    events: list[InteractionEvent]
    missing_patient_times: list[float]


@dataclass
class SessionReport:
    nursing_time_s: float
    interaction_time_s: float
    events: list[InteractionEvent]
    motion: list[MotionSample]
    per_second_worker_counts: list[int]
    per_second_interaction: list[int] = field(default_factory=list)  # not in report.json
    gaps: list[float] = field(default_factory=list)
    riker: list[RikerGroup] = field(default_factory=list)


def count_workers(frame_dets: FrameDetections, conf_min: float = 0.5) -> int:
    """Per-frame worker tally above a confidence cutoff."""
    if not 0.0 <= conf_min <= 1.0:
        raise ValueError("conf_min must be in [0, 1]")
    return len(frame_dets.workers(conf_min))


def physical_interaction(patient: BoundingBox, worker: BoundingBox,
                         tau: float = 0.1) -> tuple[int, float]:
    """Overlap fraction of the patient box, thresholded at tau (inclusive)."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    ratio = intersection_area(patient, worker) / area(patient)
    return (1 if ratio >= tau else 0), ratio


def interaction_time(series: Iterable[FrameDetections], tau: float = 0.1,
                     conf_min: float = 0.5) -> InteractionSummary:
    """Per-frame indicator of a patient/worker overlap above tau.

    A frame flags 1 regardless of worker count; every satisfying pair
    becomes an event.  Frames without a patient flag 0 and are reported
    as gaps.  Interaction seconds are the flagged frames times dt.
    """
    indicators: list[int] = []
    events: list[InteractionEvent] = []
    missing: list[float] = []
    for frame in series:
        patient = frame.best_patient(conf_min)
        if patient is None:
            missing.append(frame.timestamp)
            indicators.append(0)
            continue
        before = len(events)
        for worker in frame.workers(conf_min):
            indicator, ratio = physical_interaction(patient.box, worker.box, tau)
            if indicator:
                events.append(InteractionEvent(frame.timestamp, patient.box,
                                               worker.box, ratio))
        indicators.append(int(len(events) > before))
    return InteractionSummary(indicators, events, missing)


def motion_step(flow: FlowField, span: tuple[slice, slice], workers: list[BoundingBox]) -> float:
    """Unrelaxed motion of one frame: magnitude mean+std of `flow`, the
    field over the patient's pixel `span`, with the pixels of worker
    boxes zeroed.  Zeroing the magnitude gives the bits of zeroing dx and
    dy, since hypot(0, 0) is exactly 0.0."""
    mean, std = magnitude_stats(mask_worker_regions(flow.magnitude(), span, workers))
    return mean + std


def relax(prev: float, timestamp: float, raw: float | None, alpha: float) -> MotionSample:
    """The motion sample at `timestamp`: alpha*raw + (1-alpha)*prev, or
    for a gap (`raw` None) prev kept."""
    if raw is None:
        return MotionSample(timestamp, 0.0, prev, gap=True)
    return MotionSample(timestamp, raw, alpha * raw + (1.0 - alpha) * prev)


def align_riker(motion: list[MotionSample], records: list[RikerRecord],
                window: float = 300.0) -> list[RikerGroup]:
    """Group windowed motion means by recorded score.

    For each record the smoothed samples within +/-window seconds are
    averaged; per score value the record means are summarized as mean
    and quartiles (boxplot statistics).  Records whose window holds no
    samples are left out.
    """
    if not 0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window}")
    ts = np.array([s.timestamp for s in motion if not s.gap])
    smoothed = np.array([s.smoothed for s in motion if not s.gap])
    by_score: dict[int, list[float]] = {}
    for rec in records:
        values = smoothed[np.abs(ts - rec.timestamp) <= window]
        if values.size:
            by_score.setdefault(rec.score, []).append(float(np.mean(values)))
    groups = []
    for score in sorted(by_score):
        means = by_score[score]
        q25, q50, q75 = np.percentile(means, [25.0, 50.0, 75.0])
        groups.append(RikerGroup(score, float(np.mean(means)),
                                 float(q25), float(q50), float(q75), len(means)))
    return groups


def read_riker_csv(text: str) -> list[RikerRecord]:
    """Parse "t,score" CSV text; t in seconds since session start."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or [c.strip() for c in rows[0]] != ["t", "score"]:
        raise FormatError('expected header "t,score"')
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            records.append(RikerRecord(float(row[0]), int(row[1])))
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad record {row!r}: {exc}", line=lineno) from exc
    return records

