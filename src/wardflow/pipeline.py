"""End-to-end session analysis: frames + detections -> SessionReport."""

from __future__ import annotations

from dataclasses import dataclass, field

from .analytics import (MotionSample, RikerRecord, SessionReport, align_riker,
                        count_workers, interaction_time, motion_step)
from .boxes import FrameDetections
from .flow import FlowParams, estimate_flow, expand_pyramid
from .frames import ThermalFrame, auto_window, normalize_to_gray


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


def match_detections(frames: list[ThermalFrame], dets: list[FrameDetections],
                     tol: float = 1e-6) -> list[FrameDetections]:
    """Pair each frame with its detections by timestamp; missing -> empty."""
    by_t = {round(d.timestamp / tol): d for d in dets}
    return [by_t.get(round(f.timestamp / tol), FrameDetections(f.timestamp))
            for f in frames]


def analyze_session(frames: list[ThermalFrame], dets: list[FrameDetections],
                    config: SessionConfig | None = None,
                    riker: list[RikerRecord] | None = None,
                    compute_motion: bool = True) -> SessionReport:
    """Run the full analytics over an in-memory session.

    The motion recurrence is sequential over frames: flow between
    consecutive normalized frames, masked to the current patient box
    with worker overlaps zeroed, relaxed with factor alpha.  Flow runs
    only for pairs whose current frame has a patient, since every other
    sample is a gap, and each frame is expanded once for the pairs it
    belongs to.
    """
    config = config or SessionConfig()
    per_frame = match_detections(frames, dets)
    counts = [count_workers(fd, config.conf_min) for fd in per_frame]
    nursing = sum(counts) * config.dt
    summary = interaction_time(per_frame, config.dt, config.tau, config.conf_min)

    motion: list[MotionSample] = []
    gaps = list(summary.missing_patient_times)
    if compute_motion and len(frames) >= 2:
        if min(frames[0].temps.shape) < config.flow.poly_n:
            raise ValueError(f"frames of shape {frames[0].temps.shape} are smaller than "
                             f"the expansion window {config.flow.poly_n}")
        window = config.contrast_window or auto_window(frames[0])

        def pyramid(frame):
            return expand_pyramid(normalize_to_gray(frame, *window), config.flow)

        prev_motion = 0.0
        prev_pyr = None  # pyramid of frames[k - 1], when already built
        for k in range(1, len(frames)):
            fd = per_frame[k]
            patient = fd.best_patient(config.conf_min)
            if patient is None:
                sample = MotionSample(fd.timestamp, 0.0, prev_motion, gap=True)
                prev_pyr = None
            else:
                if prev_pyr is None:
                    prev_pyr = pyramid(frames[k - 1])
                cur_pyr = pyramid(frames[k])
                flow = estimate_flow(prev_pyr, cur_pyr, config.flow)
                prev_pyr = cur_pyr
                workers = [d.box for d in fd.workers(config.conf_min)]
                sample = motion_step(prev_motion, flow, patient.box, workers,
                                     config.alpha, timestamp=fd.timestamp)
            motion.append(sample)
            prev_motion = sample.smoothed

    groups: list = []
    if riker:
        groups, _excluded = align_riker(motion, riker, config.riker_window)
    return SessionReport(
        nursing_time_s=nursing,
        interaction_time_s=summary.seconds,
        events=summary.events,
        motion=motion,
        per_second_worker_counts=counts,
        gaps=sorted(set(gaps)),
        riker=groups,
    )
