"""End-to-end session analysis: frames + detections -> SessionReport."""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from .analytics import (MotionSample, RikerRecord, SessionReport, align_riker,
                        count_workers, interaction_time, motion_step, relax)
from .boxes import Detection, FrameDetections
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
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= self.conf_min <= 1.0:
            raise ValueError("conf_min must be in [0, 1]")
        if self.riker_window <= 0:
            raise ValueError("riker window must be positive")
        if self.contrast_window is not None:
            lo, hi = self.contrast_window
            if lo >= hi:
                raise ValueError("contrast window needs lo < hi")


def match_detections(frames: Sequence, dets: list[FrameDetections],
                     tol: float = 1e-6) -> list[FrameDetections]:
    """Pair each frame (anything with a `.timestamp`) with its detections
    by timestamp; missing -> empty."""
    by_t = {round(d.timestamp / tol): d for d in dets}
    return [by_t.get(round(f.timestamp / tol), FrameDetections(f.timestamp))
            for f in frames]


def pair_motion(prev_pyr: list[PolyExpansion], cur_pyr: list[PolyExpansion],
                fd: FrameDetections, config: SessionConfig) -> MotionSample:
    """Unrelaxed motion of one frame pair whose current frame has a patient.

    Flow between the two frames' pyramids, worker overlaps zeroed, then
    magnitude mean + std over the patient box.  It reads no other pair,
    so pairs can run concurrently.
    """
    flow = estimate_flow(prev_pyr, cur_pyr, config.flow)
    workers = [d.box for d in fd.workers(config.conf_min)]
    # alpha 1 keeps no memory; the relaxation runs later, in frame order
    return motion_step(0.0, flow, fd.best_patient(config.conf_min).box, workers, 1.0,
                       timestamp=fd.timestamp)


def _motion_series(session: Iterable[tuple[ThermalFrame, FrameDetections]],
                   config: SessionConfig) -> list[MotionSample]:
    """The relaxed motion series over one pass of (frame, detections).

    This thread reads frames and builds each frame's pyramid once; the
    pairs run on a pool of `os.cpu_count()` threads with at most that
    many in flight, and their samples are relaxed in frame order.
    """
    size = os.cpu_count() or 1
    pending: deque[Future | MotionSample] = deque()  # unrelaxed, in frame order
    motion: list[MotionSample] = []

    def settle(limit: int) -> None:
        while len(pending) > limit:
            item = pending.popleft()
            if isinstance(item, Future):
                item = item.result()
            motion.append(relax(motion[-1].smoothed if motion else 0.0, item, config.alpha))

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
                if fd.best_patient(config.conf_min) is None:
                    pending.append(MotionSample(fd.timestamp, 0.0, 0.0, gap=True))
                    prev_pyr = None
                else:
                    settle(size - 1)  # the pyramids built next use the core this frees
                    if prev_pyr is None:
                        prev_pyr = pyramid(prev_frame)
                    cur_pyr = pyramid(frame)
                    pending.append(pool.submit(pair_motion, prev_pyr, cur_pyr, fd, config))
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
    relaxed with factor alpha.  Flow runs only for pairs whose current
    frame has a patient, since every other sample is a gap; pairs run
    on a thread pool sized by `os.cpu_count()`, so memory is bounded by
    the pool size, not the session length, and the relaxation then
    runs over the pairs' scalars in frame order.
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
    nursing = sum(counts) * config.dt
    summary = interaction_time(per_frame, config.dt, config.tau, config.conf_min)
    groups: list = []
    if riker:
        groups, _excluded = align_riker(motion, riker, config.riker_window)
    return SessionReport(
        nursing_time_s=nursing,
        interaction_time_s=summary.seconds,
        events=summary.events,
        motion=motion,
        per_second_worker_counts=counts,
        gaps=sorted(set(summary.missing_patient_times)),
        riker=groups,
    )
