"""End-to-end session analysis: frames + detections -> SessionReport."""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace

from .analytics import (MotionSample, RikerRecord, SessionReport, align_riker,
                        count_workers, interaction_time, motion_step, relax)
from .boxes import FrameDetections, match_detections, pixel_span
from .flow import FlowParams, Pyramid, estimate_flow, image_pyramid
from .frames import ThermalFrame, auto_window, normalize_to_gray

# The paper's Farneback settings, the only ones the motion score uses.
FLOW = FlowParams()

# Frames with fewer pixels run their pairs on the calling thread: a small
# pair spends most of its time in Python that holds the interpreter lock,
# so a pool only adds hand-offs.  Set at the measured crossover, where a
# pooled and an inline `analyze` took about the same time on two cores.
_POOL_MIN_PIXELS = 160 * 120


@dataclass
class SessionConfig:
    tau: float = 0.1            # interaction overlap threshold
    alpha: float = 0.7          # motion relaxation factor
    dt: float = 1.0             # seconds between frames
    conf_min: float = 0.5       # detection confidence cutoff
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


def pair_motion(prev_pyr: Pyramid, cur_pyr: Pyramid,
                fd: FrameDetections, span: tuple[slice, slice], config: SessionConfig) -> float:
    """Unrelaxed motion of one frame pair: magnitude mean + std of the flow
    over the current patient's pixel `span`, worker pixels zeroed.  It
    reads no other pair, so pairs can run concurrently."""
    flow = estimate_flow(prev_pyr, cur_pyr, FLOW, span)
    return motion_step(flow, span, [d.box for d in fd.workers(config.conf_min)])


def _settled(fn, *args) -> Future:
    """A completed future holding `fn(*args)`'s result or exception."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _motion_series(session: Iterable[tuple[ThermalFrame, FrameDetections]], config: SessionConfig,
                   motion: list[MotionSample]) -> Iterator[FrameDetections]:
    """Each frame's detections of one pass of (frame, detections), handed
    on as read, while the relaxed motion series is appended to `motion`.

    This thread decides each frame's patient span and builds the image
    pyramid of each frame a pair reads once; a frame whose span is a gap
    builds none.  Each pair expands the levels of its two pyramids only
    where it reads them, and leaves its second frame's expansions on that
    frame's pyramid, where the next pair cuts its first frame's from them
    (`estimate_flow`).
    The pairs run on a pool of `os.cpu_count()` threads, and their
    scalars are relaxed in frame order with at most that many samples,
    pairs or gaps, waiting.  On one core, or when the first frame has
    fewer than `_POOL_MIN_PIXELS` pixels, each pair runs on this thread
    before the next frame is read, and the pool starts no thread.
    """
    size = os.cpu_count() or 1
    pending: deque[tuple[float, Future | None]] = deque()  # in frame order; None is a gap

    def settle(limit: int) -> None:
        while len(pending) > limit:
            timestamp, future = pending.popleft()
            motion.append(relax(motion[-1].smoothed if motion else 0.0, timestamp,
                                None if future is None else future.result(), config.alpha))

    def pyramid(frame):
        return image_pyramid(normalize_to_gray(frame, *window), FLOW)

    with ThreadPoolExecutor(size) as pool:
        prev_frame = prev_pyr = window = None
        for k, (frame, fd) in enumerate(session):
            if k == 1:
                if min(prev_frame.temps.shape) < FLOW.poly_n:
                    raise ValueError(f"frames of shape {prev_frame.temps.shape} are smaller "
                                     f"than the expansion window {FLOW.poly_n}")
                window = config.contrast_window or auto_window(prev_frame)
                if prev_frame.temps.size < _POOL_MIN_PIXELS:
                    size = 1
                submit = pool.submit if size > 1 else _settled
            if k > 0:
                settle(size - 1)  # bounds the wait; a pyramid built next uses the core this frees
                span = _patient_span(fd, frame.temps.shape, config.conf_min)
                cur_pyr = future = None
                if span is not None:
                    prev_pyr = prev_pyr or pyramid(prev_frame)
                    cur_pyr = pyramid(frame)
                    future = submit(pair_motion, prev_pyr, cur_pyr, fd, span, config)
                pending.append((fd.timestamp, future))
                prev_pyr = cur_pyr
            prev_frame = frame
            yield fd
        settle(0)


def joined(frames: Iterable[ThermalFrame], timeline: Sequence,
           dets: list[FrameDetections]) -> Iterator[tuple[ThermalFrame, FrameDetections]]:
    """The session stream of `frames` and per-frame detections `dets`,
    joined by timestamp to `timeline` (one item with a `.timestamp` per
    frame, such as the manifest's entries) by `match_detections` when the
    stream is first read."""
    yield from zip(frames, match_detections(timeline, dets), strict=True)


def analyze_session(session: Iterable[tuple[ThermalFrame, FrameDetections]],
                    config: SessionConfig | None = None,
                    riker: list[RikerRecord] | None = None,
                    compute_motion: bool = True) -> SessionReport:
    """Run the full analytics over a session, reading each pair once.

    `session` is one pass of (frame, detections) pairs in time order, as
    a list or a stream such as `joined` over `load_sequence`; no frame and
    no detections are kept beyond the flow pairs in flight.

    The motion score is flow between consecutive normalized frames,
    masked to the current patient box with worker overlaps zeroed, and
    relaxed with factor alpha.  Flow and pyramids run only for pairs
    whose current patient covers a pixel, since every other sample is
    a gap; pairs run on a thread pool sized by `os.cpu_count()`, or on
    this thread for small frames or one core (`_motion_series`), so
    memory is bounded by the pool size, not the session length, and the
    relaxation then runs over the pairs' scalars in frame order.  The
    per-second counts, flags and totals are `tally`'s.
    """
    config = config or SessionConfig()
    motion: list[MotionSample] = []
    dets = _motion_series(session, config, motion) if compute_motion else (fd for _, fd in session)
    return replace(tally(dets, config), motion=motion,
                   riker=align_riker(motion, riker, config.riker_window) if riker else [])


def tally(series: Iterable[FrameDetections], config: SessionConfig) -> SessionReport:
    """The per-second rule, in one pass over a detection series: worker
    counts, interaction flags and events, patient gaps, and the nursing
    and interaction seconds (counts and flags summed, times `dt`).  The
    report has no motion and no Riker groups."""
    counts: list[int] = []
    def counted():  # counts each frame as `interaction_time` reads it
        for fd in series:
            counts.append(count_workers(fd, config.conf_min))
            yield fd
    summary = interaction_time(counted(), config.tau, config.conf_min)
    return SessionReport(
        nursing_time_s=sum(counts) * config.dt,
        interaction_time_s=sum(summary.indicators) * config.dt,
        events=summary.events,
        motion=[],
        per_second_worker_counts=counts,
        per_second_interaction=summary.indicators,
        gaps=sorted(set(summary.missing_patient_times)),
    )
