"""Synthetic thermal sessions with exact ground truth.

Actors are warm rectangles moving along keyframed paths over a cool
background, so every derived quantity (worker counts, interaction
seconds, patient displacement) is known from the script itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import physical_interaction
from .boxes import (BoundingBox, Detection, FrameDetections, ObjectClass, parse_box,
                    pixel_span)
from .detect import detections_to_jsonl
from .errors import FormatError
from .frames import (FrameEntry, SequenceManifest, ThermalFrame, check_resolution,
                     save_manifest, write_npy_frame)

# Overlap threshold of the interaction truth; the analytics' default tau.
TRUTH_TAU = 0.1


@dataclass
class Keyframe:
    t: float
    box: BoundingBox


@dataclass
class ActorScript:
    """A box path, linearly interpolated between keyframes.

    The actor exists only within [enter, exit); outside that window
    box_at returns None.
    """

    keyframes: list[Keyframe]
    enter: float = 0.0
    exit: float = math.inf

    def __post_init__(self):
        if not self.keyframes:
            raise ValueError("script needs at least one keyframe")
        times = [k.t for k in self.keyframes]
        if not all(map(math.isfinite, times)) or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"keyframe times must be finite and strictly increasing, got {times}")
        if math.isnan(self.enter) or math.isnan(self.exit):
            raise ValueError(f"enter and exit must be numbers, got {self.enter} and {self.exit}")

    def box_at(self, t: float) -> BoundingBox | None:
        if not self.enter <= t < self.exit:
            return None
        ks = self.keyframes
        if t <= ks[0].t:
            return ks[0].box
        if t >= ks[-1].t:
            return ks[-1].box
        for a, b in zip(ks, ks[1:]):
            if a.t <= t <= b.t:
                frac = (t - a.t) / (b.t - a.t)
                return BoundingBox(
                    a.box.x + frac * (b.box.x - a.box.x),
                    a.box.y + frac * (b.box.y - a.box.y),
                    a.box.w + frac * (b.box.w - a.box.w),
                    a.box.h + frac * (b.box.h - a.box.h),
                )
        return ks[-1].box


@dataclass
class Scenario:
    duration: float
    patient: ActorScript
    workers: list[ActorScript] = field(default_factory=list)
    resolution: tuple[int, int] = (384, 288)
    background_c: float = 22.0
    body_c: float = 36.0
    noise_sigma_c: float = 0.1

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        w, h = check_resolution(self.resolution)
        if not 0 <= self.noise_sigma_c < math.inf:
            raise ValueError(f"noise_sigma_c must be finite and >= 0, got {self.noise_sigma_c}")
        for script in [self.patient, *self.workers]:
            for kf in script.keyframes:
                box = kf.box
                if box.x < 0 or box.y < 0 or box.right > w or box.bottom > h:
                    raise ValueError(f"keyframe box {box} exceeds resolution {w}x{h}")


@dataclass
class GroundTruthBundle:
    frames: list[FrameDetections]      # scripted boxes, confidence 1.0
    worker_counts: list[int]           # m_t per second
    interaction: list[int]             # PI indicator per second
    displacement: list[float]          # patient center shift per second


def _script_from_dict(doc: dict) -> ActorScript:
    keyframes = [Keyframe(float(k["t"]), parse_box(k["box"]))
                 for k in doc["keyframes"]]
    return ActorScript(keyframes,
                       enter=float(doc.get("enter", 0.0)),
                       exit=float(doc.get("exit", math.inf)))


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        return Scenario(
            duration=float(doc["duration"]),
            patient=_script_from_dict(doc["patient"]),
            workers=[_script_from_dict(w) for w in doc.get("workers", [])],
            resolution=tuple(doc.get("resolution", (384, 288))),
            background_c=float(doc.get("background_c", 22.0)),
            body_c=float(doc.get("body_c", 36.0)),
            noise_sigma_c=float(doc.get("noise_sigma_c", 0.1)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def render(scenario: Scenario, seed: int = 0) -> tuple[list[ThermalFrame], GroundTruthBundle]:
    """Render one frame per second plus exact ground truth.

    Deterministic for a fixed (scenario, seed).  The interaction truth
    uses the same overlap rule as the analytics, evaluated on the
    scripted boxes at `TRUTH_TAU`.
    """
    rng = np.random.default_rng(seed)
    w, h = scenario.resolution
    frames: list[ThermalFrame] = []
    truth_frames: list[FrameDetections] = []
    counts: list[int] = []
    interaction: list[int] = []
    displacement: list[float] = []
    prev_center = None
    for t in range(int(scenario.duration)):
        temps = np.full((h, w), scenario.background_c)
        dets: list[Detection] = []
        patient_box = scenario.patient.box_at(t)
        worker_boxes = []
        for script in scenario.workers:
            box = script.box_at(t)
            if box is not None:
                worker_boxes.append(box)
        for box in ([patient_box] if patient_box else []) + worker_boxes:
            span = pixel_span(box, w, h)
            if span is not None:
                temps[span] = scenario.body_c
        if scenario.noise_sigma_c > 0:
            temps = temps + rng.normal(0.0, scenario.noise_sigma_c, size=temps.shape)
        frames.append(ThermalFrame(temps, float(t)))

        if patient_box is not None:
            dets.append(Detection(patient_box, ObjectClass.PATIENT, 1.0))
        dets.extend(Detection(b, ObjectClass.WORKER, 1.0) for b in worker_boxes)
        truth_frames.append(FrameDetections(float(t), dets))
        counts.append(len(worker_boxes))
        pi = 0
        if patient_box is not None:
            pi = int(any(physical_interaction(patient_box, b, TRUTH_TAU)[0]
                         for b in worker_boxes))
        interaction.append(pi)
        center = patient_box.center if patient_box is not None else None
        if prev_center is None or center is None:
            displacement.append(0.0)
        else:
            displacement.append(math.hypot(center[0] - prev_center[0],
                                           center[1] - prev_center[1]))
        prev_center = center
    return frames, GroundTruthBundle(truth_frames, counts, interaction, displacement)


def export_session(frames: list[ThermalFrame], truth: GroundTruthBundle, out_dir) -> None:
    """Write the NPY sequence, manifest (dt 1.0, as `render` writes one
    frame per second), and truth files for the CLI path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, frame in enumerate(frames):
        name = f"frame_{i:05d}.npy"
        (out / name).write_bytes(write_npy_frame(frame))
        entries.append(FrameEntry(name, frame.timestamp))
    resolution = (frames[0].width, frames[0].height) if frames else None
    save_manifest(SequenceManifest(entries, 1.0, resolution), out / "manifest.json")
    (out / "truth_dets.jsonl").write_text(detections_to_jsonl(truth.frames))
    (out / "truth.json").write_text(json.dumps({
        "worker_counts": truth.worker_counts,
        "interaction": truth.interaction,
        "displacement": truth.displacement,
    }, indent=2) + "\n")
