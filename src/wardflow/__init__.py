"""Frame-sequence analytics for thermal ward monitoring.

Turns thermal temperature grids plus per-frame patient/worker
detections into nursing time, physical-interaction events, and a
relaxed patient-motion score, with detector-evaluation tooling
(mAP, counting accuracy, time errors) alongside.
"""

from .analytics import (InteractionEvent, MotionSample, RikerRecord,
                        SessionReport, align_riker, count_workers,
                        interaction_time, motion_step, physical_interaction)
from .boxes import (BoundingBox, Detection, FrameDetections, ObjectClass,
                    area, intersection_area, iou)
from .detect import blob_detect, parse_detections_jsonl
from .errors import FormatError, UnsupportedError, ValidationError, WardflowError
from .evaluation import (average_precision, counting_accuracy, format_duration,
                         mean_ap, time_error)
from .flow import (FlowField, FlowParams, estimate_flow, image_pyramid,
                   magnitude_stats, mask_worker_regions, poly_expand)
from .frames import (SequenceManifest, ThermalFrame, auto_window,
                     normalize_to_gray, read_npy_frame, write_npy_frame)
from .pipeline import SessionConfig, analyze_session, tally
from .synth import ActorScript, Keyframe, Scenario, render

__version__ = "0.1.0"

__all__ = [
    "ActorScript", "BoundingBox", "Detection", "FlowField", "FlowParams",
    "FormatError", "FrameDetections", "InteractionEvent", "Keyframe",
    "MotionSample", "ObjectClass", "RikerRecord", "Scenario",
    "SequenceManifest", "SessionConfig", "SessionReport", "ThermalFrame",
    "UnsupportedError", "ValidationError", "WardflowError", "align_riker",
    "analyze_session", "area", "auto_window", "average_precision",
    "blob_detect", "count_workers", "counting_accuracy", "estimate_flow",
    "format_duration", "image_pyramid", "interaction_time",
    "intersection_area", "iou", "magnitude_stats", "mask_worker_regions",
    "mean_ap", "motion_step", "normalize_to_gray", "parse_detections_jsonl",
    "physical_interaction", "poly_expand", "read_npy_frame", "render",
    "tally", "time_error", "write_npy_frame",
]
