"""Clinical metrics over a detection/flow session: nursing time,
physical interaction, the relaxed motion score, and alignment of motion
with recorded sedation-agitation scores.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import BoundingBox, FrameDetections, area, intersection_area, pixel_span
from .errors import FormatError
from .flow import FlowField, magnitude_stats, mask_worker_regions


@dataclass(frozen=True)
class InteractionEvent:
    timestamp: float
    patient_box: BoundingBox
    worker_box: BoundingBox
    overlap_ratio: float


@dataclass(frozen=True)
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
    seconds: float
    events: list[InteractionEvent]
    missing_patient_times: list[float]


@dataclass
class SessionReport:
    nursing_time_s: float
    interaction_time_s: float
    events: list[InteractionEvent]
    motion: list[MotionSample]
    per_second_worker_counts: list[int]
    gaps: list[float] = field(default_factory=list)
    riker: list[RikerGroup] = field(default_factory=list)


def count_workers(frame_dets: FrameDetections, conf_min: float = 0.5) -> int:
    """Per-frame worker tally above a confidence cutoff."""
    if not 0.0 <= conf_min <= 1.0:
        raise ValueError("conf_min must be in [0, 1]")
    return len(frame_dets.workers(conf_min))


def nursing_time(series: list[FrameDetections], dt: float = 1.0,
                 conf_min: float = 0.5) -> float:
    """Total worker-presence seconds: sum of per-frame counts times dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return sum(count_workers(f, conf_min) for f in series) * dt


def physical_interaction(patient: BoundingBox, worker: BoundingBox,
                         tau: float = 0.1) -> tuple[int, float]:
    """Overlap fraction of the patient box, thresholded at tau (inclusive)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    ratio = intersection_area(patient, worker) / area(patient)
    return (1 if ratio >= tau else 0), ratio


def interaction_time(series: list[FrameDetections], dt: float = 1.0,
                     tau: float = 0.1, conf_min: float = 0.5) -> InteractionSummary:
    """Seconds with at least one patient/worker overlap above tau.

    A frame is binary regardless of worker count; every satisfying pair
    becomes an event.  Frames without a patient contribute nothing and
    are reported as gaps.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    seconds = 0.0
    events: list[InteractionEvent] = []
    missing: list[float] = []
    for frame in series:
        patient = frame.best_patient(conf_min)
        if patient is None:
            missing.append(frame.timestamp)
            continue
        hit = False
        for worker in frame.workers(conf_min):
            indicator, ratio = physical_interaction(patient.box, worker.box, tau)
            if indicator:
                hit = True
                events.append(InteractionEvent(frame.timestamp, patient.box,
                                               worker.box, ratio))
        if hit:
            seconds += dt
    return InteractionSummary(seconds, events, missing)


def motion_step(prev_motion: float, flow: FlowField, patient: BoundingBox,
                workers: list[BoundingBox], alpha: float = 0.7,
                timestamp: float = 0.0) -> MotionSample:
    """One step of the relaxed motion recurrence.

    Flow inside worker overlaps is zeroed, magnitude mean+std are taken
    over the patient box, and the result is blended with the previous
    motion: alpha*raw + (1-alpha)*prev.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    clamped = patient.clamped(flow.width, flow.height)
    span = pixel_span(clamped, flow.width, flow.height) if clamped else None
    if span is None:
        return MotionSample(timestamp, 0.0, prev_motion, gap=True)
    masked = mask_worker_regions(flow, clamped, workers)
    region = np.zeros((flow.height, flow.width), dtype=bool)
    region[span] = True
    mean, std = magnitude_stats(masked, region)
    raw = mean + std
    return relax(prev_motion, MotionSample(timestamp, raw, raw), alpha)


def relax(prev_motion: float, sample: MotionSample, alpha: float) -> MotionSample:
    """The relaxation alone: alpha*raw + (1-alpha)*prev; a gap keeps prev."""
    if sample.gap:
        return MotionSample(sample.timestamp, 0.0, prev_motion, gap=True)
    return MotionSample(sample.timestamp, sample.raw,
                        alpha * sample.raw + (1.0 - alpha) * prev_motion)


def align_riker(motion: list[MotionSample], records: list[RikerRecord],
                window: float = 300.0) -> tuple[list[RikerGroup], list[RikerRecord]]:
    """Group windowed motion means by recorded score.

    For each record the smoothed samples within +/-window seconds are
    averaged; per score value the record means are summarized as mean
    and quartiles (boxplot statistics).  Records whose window holds no
    samples are returned separately.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    by_score: dict[int, list[float]] = {}
    excluded: list[RikerRecord] = []
    for rec in records:
        values = [s.smoothed for s in motion
                  if not s.gap and abs(s.timestamp - rec.timestamp) <= window]
        if not values:
            excluded.append(rec)
            continue
        by_score.setdefault(rec.score, []).append(float(np.mean(values)))
    groups = []
    for score in sorted(by_score):
        means = by_score[score]
        q25, q50, q75 = np.percentile(means, [25.0, 50.0, 75.0])
        groups.append(RikerGroup(score, float(np.mean(means)),
                                 float(q25), float(q50), float(q75), len(means)))
    return groups, excluded


def read_riker_csv(source) -> list[RikerRecord]:
    """Read "t,score" records; t in seconds since session start."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text()
    else:
        text = source
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["t", "score"]:
        raise FormatError('expected header "t,score"')
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            records.append(RikerRecord(float(row[0]), int(row[1])))
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad record {row!r}: {exc}", line=lineno) from exc
    return records


def report_to_dict(report: SessionReport) -> dict:
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
