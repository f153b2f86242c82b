"""End-to-end session analysis: frames + detections -> SessionReport."""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from .analytics import (MotionSample, RikerRecord, SessionReport, align_riker,
                        count_workers, interaction_time, motion_step, relax)
from .boxes import Detection, FrameDetections, match_detections, pixel_span
from .flow import FlowParams, PolyExpansion, estimate_flow, expand_pyramid
from .frames import ThermalFrame, auto_window, normalize_to_gray

# A detector returns one frame's detections.
Detector = Callable[[ThermalFrame], list[Detection]]


@dataclass
class SessionConfig:
    tau: float = 0.1            # interaction overlap threshold
    alpha: float = 0.7          # motion relaxation factor
    dt: float = 1.0             # seconds between frames
    conf_min: float = 0.5       # detection confidence cutoff
    flow: FlowParams = field(default_factory=FlowParams)
    riker_window: float = 300.0
    contrast_window: tuple[float, float] | None = None  # None -> auto

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.conf_min <= 1.0:
            raise ValueError("conf_min must be in [0, 1]")
        if not 0.0 < self.riker_window < math.inf:
            raise ValueError(f"riker window must be positive and finite, got {self.riker_window}")
        if self.contrast_window is not None:
            lo, hi = self.contrast_window
            if not -math.inf < lo < hi < math.inf:
                raise ValueError("contrast window needs finite lo < hi")


def _patient_span(fd: FrameDetections, shape: tuple[int, int],
                  conf_min: float) -> tuple[slice, slice] | None:
    """The pixels a frame of `shape` (rows, cols) scores: its best patient
    clamped to the frame, as a `pixel_span`; None, a gap, without one."""
    patient = fd.best_patient(conf_min)
    clamped = patient and patient.box.clamped(shape[1], shape[0])
    return pixel_span(clamped, shape[1], shape[0]) if clamped else None


def pair_motion(prev_pyr: list[PolyExpansion], cur_pyr: list[PolyExpansion],
                fd: FrameDetections, span: tuple[slice, slice], config: SessionConfig) -> float:
    """Unrelaxed motion of one frame pair: magnitude mean + std of the flow
    over the current patient's pixel `span`, worker pixels zeroed.  It
    reads no other pair, so pairs can run concurrently."""
    flow = estimate_flow(prev_pyr, cur_pyr, config.flow, span)
    return motion_step(flow, span, [d.box for d in fd.workers(config.conf_min)])


def _motion_series(session: Iterable[tuple[ThermalFrame, FrameDetections]],
                   config: SessionConfig) -> list[MotionSample]:
    """The relaxed motion series over one pass of (frame, detections).

    This thread decides each frame's patient span and builds each
    pyramid a pair needs once; a frame whose span is a gap builds none.
    The pairs run on a pool of `os.cpu_count()` threads with at most
    that many in flight, and their scalars are relaxed in frame order.
    """
    size = os.cpu_count() or 1
    pending: deque[tuple[float, Future | None]] = deque()  # in frame order; None is a gap
    motion: list[MotionSample] = []

    def settle(limit: int) -> None:
        while len(pending) > limit:
            timestamp, future = pending.popleft()
            motion.append(relax(motion[-1].smoothed if motion else 0.0, timestamp,
                                None if future is None else future.result(), config.alpha))

    def pyramid(frame):
        return expand_pyramid(normalize_to_gray(frame, *window), config.flow)

    with ThreadPoolExecutor(size) as pool:
        prev_frame = prev_pyr = window = None
        for k, (frame, fd) in enumerate(session):
            if k == 1:
                if min(prev_frame.temps.shape) < config.flow.poly_n:
                    raise ValueError(f"frames of shape {prev_frame.temps.shape} are smaller "
                                     f"than the expansion window {config.flow.poly_n}")
                window = config.contrast_window or auto_window(prev_frame)
            if k > 0:
                span = _patient_span(fd, frame.temps.shape, config.conf_min)
                cur_pyr = future = None
                if span is not None:
                    settle(size - 1)  # the pyramids built next use the core this frees
                    prev_pyr = prev_pyr or pyramid(prev_frame)
                    cur_pyr = pyramid(frame)
                    future = pool.submit(pair_motion, prev_pyr, cur_pyr, fd, span, config)
                pending.append((fd.timestamp, future))
                prev_pyr = cur_pyr
            prev_frame = frame
        settle(0)
    return motion


def analyze_session(frames: Iterable[ThermalFrame], dets: list[FrameDetections] | Detector,
                    config: SessionConfig | None = None,
                    riker: list[RikerRecord] | None = None,
                    compute_motion: bool = True,
                    timeline: Sequence | None = None) -> SessionReport:
    """Run the full analytics over a session, reading each frame once.

    `frames` may be a list or a one-pass stream such as `load_sequence`;
    no frame is kept beyond the flow pairs in flight.  `dets` is either
    per-frame detections, joined to `timeline` by timestamp, or a
    detector run on each frame as it streams by.  `timeline` holds one
    item with a `.timestamp` per frame (the manifest's entries); it
    defaults to `frames`, which must then be a list.

    The motion score is flow between consecutive normalized frames,
    masked to the current patient box with worker overlaps zeroed, and
    relaxed with factor alpha.  Flow and pyramids run only for pairs
    whose current patient covers a pixel, since every other sample is
    a gap; pairs run on a thread pool sized by `os.cpu_count()`, so
    memory is bounded by the pool size, not the session length, and the
    relaxation then runs over the pairs' scalars in frame order.
    """
    config = config or SessionConfig()
    if callable(dets):
        per_frame = []

        def detected():
            for frame in frames:
                per_frame.append(FrameDetections(frame.timestamp, dets(frame)))
                yield frame, per_frame[-1]
        session = detected()
    else:
        per_frame = match_detections(frames if timeline is None else timeline, dets)
        session = zip(frames, per_frame, strict=True)

    if compute_motion:
        motion = _motion_series(session, config)
    else:
        motion = []
        for _ in session:  # validates every frame and runs the detector
            pass

    counts = [count_workers(fd, config.conf_min) for fd in per_frame]
    summary = interaction_time(per_frame, config.tau, config.conf_min)
    groups = align_riker(motion, riker, config.riker_window) if riker else []
    return SessionReport(
        nursing_time_s=sum(counts) * config.dt,
        interaction_time_s=sum(summary.indicators) * config.dt,
        events=summary.events,
        motion=motion,
        per_second_worker_counts=counts,
        per_second_interaction=summary.indicators,
        gaps=sorted(set(summary.missing_patient_times)),
        riker=groups,
    )
