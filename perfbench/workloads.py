"""Seeded inputs for the three benchmark sessions.

Each workload function turns a seed into the only files the program
receives: a scenario JSON for ``synth``, a Riker CSV for ``analyze`` and
a noisy detector JSONL that ``eval`` scores against the truth
detections.  The same seed always gives byte-identical files.  Truth boxes for the noisy
detector come from this module's own keyframe interpolation, so the
inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 5

# Acceptance criterion 9's session: 300 s at 96x72 without sensor noise.
SCENARIO_300S = {
    "duration": 300,
    "resolution": [96, 72],
    "noise_sigma_c": 0.0,
    "patient": {"keyframes": [{"t": 0, "box": [10, 16, 24, 30]},
                              {"t": 150, "box": [16, 16, 24, 30]},
                              {"t": 300, "box": [10, 16, 24, 30]}]},
    "workers": [
        {"enter": 30, "exit": 120, "keyframes": [{"t": 0, "box": [50, 16, 14, 30]}]},
        {"enter": 90, "exit": 100, "keyframes": [{"t": 0, "box": [70, 40, 14, 24]}]},
        {"enter": 200, "exit": 260, "keyframes": [{"t": 0, "box": [50, 40, 14, 24]}]},
        {"enter": 270, "exit": 280, "keyframes": [{"t": 0, "box": [30, 16, 14, 30]}]},
    ],
}

# hour-blob layout on 96x72: the bed, six bedside slots that touch neither
# the bed nor each other (so each worker is its own blob), and one contact
# slot that overlaps the patient by 4 px (ratio 0.148 >= tau = 0.1).
HOUR_BED = [8, 20, 22, 32]
HOUR_SLOTS = [[40, 4, 12, 22], [58, 4, 12, 22], [76, 4, 12, 22],
              [40, 40, 12, 22], [58, 40, 12, 22], [76, 40, 12, 22]]
HOUR_CONTACT = [26, 22, 12, 26]


@dataclass
class Workload:
    name: str
    seed: int                  # synth --seed
    scenario: dict
    noisy_dets: str            # JSONL that eval scores against truth_dets.jsonl
    riker_csv: str | None      # passed to analyze with --riker when set
    analyze_opts: list[str]    # analyze options that name no file
    truth_dets: bool           # analyze reads truth_dets.jsonl (else --blob)

    def files(self) -> dict[str, str]:
        """Generated input files by name."""
        out = {"scenario.json": json.dumps(self.scenario, indent=1) + "\n",
               "noisy_dets.jsonl": self.noisy_dets}
        if self.riker_csv is not None:
            out["riker.csv"] = self.riker_csv
        return out


def _box_at(script: dict, t: float) -> list[float] | None:
    """Linear keyframe interpolation inside [enter, exit)."""
    if not script.get("enter", 0.0) <= t < script.get("exit", math.inf):
        return None
    ks = script["keyframes"]
    if t <= ks[0]["t"]:
        return ks[0]["box"]
    for a, b in zip(ks, ks[1:]):
        if t <= b["t"]:
            frac = (t - a["t"]) / (b["t"] - a["t"])
            return [p + frac * (q - p) for p, q in zip(a["box"], b["box"])]
    return ks[-1]["box"]


def _truth_boxes(scenario: dict, t: float) -> list[tuple[str, list[float]]]:
    boxes = []
    patient = _box_at(scenario["patient"], t)
    if patient is not None:
        boxes.append(("patient", patient))
    for script in scenario.get("workers", []):
        box = _box_at(script, t)
        if box is not None:
            boxes.append(("worker", box))
    return boxes


def _clip(box, width: float, height: float) -> list[float]:
    x0, y0 = max(box[0], 0.0), max(box[1], 0.0)
    x1, y1 = min(box[0] + box[2], width), min(box[1] + box[3], height)
    return [round(x0, 2), round(y0, 2), round(x1 - x0, 2), round(y1 - y0, 2)]


def noisy_detections(scenario: dict, rng: random.Random) -> str:
    """A detector's output for every second of the scenario.

    Per class, exactly one true box in twenty is missed (a seeded choice).
    The others get a grade g, evenly spaced in [0, 1) in seeded order:
    the box moves by 6% * g of its width and height (seeded signs, so
    IoU >= 0.79) and is reported with confidence 1 - 0.4 * g, so better
    boxes rank first.  Each frame also gets 0-2 false positives with
    confidence below 0.45.  Fixed shares keep mAP steady across seeds.
    """
    width, height = scenario["resolution"]
    frames = [_truth_boxes(scenario, float(t)) for t in range(int(scenario["duration"]))]
    grade: dict[tuple[int, int], float] = {}
    for cls in ("patient", "worker"):
        keys = [(t, i) for t, boxes in enumerate(frames)
                for i, (c, _) in enumerate(boxes) if c == cls]
        kept = sorted(set(keys) - set(rng.sample(keys, round(0.05 * len(keys)))))
        levels = [(j + 0.5) / len(kept) for j in range(len(kept))]
        rng.shuffle(levels)
        grade.update(zip(kept, levels))
    lines = []
    for t, boxes in enumerate(frames):
        dets = []
        for i, (cls, (x, y, w, h)) in enumerate(boxes):
            g = grade.get((t, i))
            if g is None:
                continue
            sx, sy = rng.choice((-1, 1)) * 0.06 * g, rng.choice((-1, 1)) * 0.06 * g
            dets.append({"cls": cls, "conf": round(1.0 - 0.4 * g, 4),
                         "box": _clip([x + sx * w, y + sy * h, w, h], width, height)})
        for _ in range(rng.randint(0, 2)):
            w, h = rng.uniform(0.08, 0.2) * width, rng.uniform(0.08, 0.2) * height
            box = [rng.uniform(0.0, width - w), rng.uniform(0.0, height - h), w, h]
            dets.append({"cls": rng.choice(("patient", "worker")),
                         "conf": round(rng.uniform(0.05, 0.45), 4),
                         "box": _clip(box, width, height)})
        lines.append(json.dumps({"t": float(t), "dets": dets}))
    return "\n".join(lines) + "\n"


def hd_motion(seed: int, block: int = 10) -> Workload:
    """60 s at 384x288: still and agitated blocks, then an empty bed.

    Five blocks of `block` seconds alternate still and agitated (seeded
    order, per-second jitter of up to 4 px on each axis); the patient is
    gone for the sixth.  One worker leans over the bed for part of the
    session.  One Riker score per block, higher for agitated blocks.
    """
    rng = random.Random(seed)
    bx, by, bw, bh = 140, 100, 60, 110
    n_blocks = 6
    duration = n_blocks * block
    agitated_first = rng.random() < 0.5
    keyframes, riker = [], ["t,score"]
    for b in range(n_blocks - 1):
        agitated = (b % 2 == 0) == agitated_first
        for t in range(b * block, (b + 1) * block):
            dx, dy = (rng.uniform(-4, 4), rng.uniform(-4, 4)) if agitated else (0.0, 0.0)
            keyframes.append({"t": t, "box": [round(bx + dx, 2), round(by + dy, 2), bw, bh]})
        score = rng.choice((5, 6)) if agitated else rng.choice((3, 4))
        riker.append(f"{b * block + block / 2},{score}")
    enter = round(rng.uniform(0.05, 0.25) * duration, 2)
    stay = round(rng.uniform(0.3, 0.45) * duration, 2)
    away, near = [215, 100, 40, 110], [185, 100, 40, 110]
    worker = {"enter": enter, "exit": enter + stay, "keyframes": [
        {"t": enter, "box": away}, {"t": enter + stay / 4, "box": near},
        {"t": enter + 3 * stay / 4, "box": near}, {"t": enter + stay, "box": away}]}
    scenario = {"duration": duration, "resolution": [384, 288], "noise_sigma_c": 0.1,
                "patient": {"exit": duration - block, "keyframes": keyframes},
                "workers": [worker]}
    return Workload("hd-motion", seed, scenario, noisy_detections(scenario, rng),
                    "\n".join(riker) + "\n", ["--riker-window", str(block / 2)],
                    truth_dets=True)


def lowres_motion(seed: int, duration: int = 300) -> Workload:
    """Criterion 9's session; the seed drives synth and the noisy detector."""
    scenario = dict(SCENARIO_300S, duration=duration)
    return Workload("lowres-motion", seed, scenario,
                    noisy_detections(scenario, random.Random(seed)), None, [],
                    truth_dets=True)


def hour_blob(seed: int, duration: int = 3600, visits: int = 30) -> Workload:
    """An hour at 1 fps and 96x72, counted by the blob detector.

    Workers visit seeded bedside slots for 30-150 s; one visit in ten is
    a 10-20 s contact visit that merges with the patient blob, which
    bounds the blob counting error well below criterion 9's 5%.
    """
    rng = random.Random(seed)
    busy: dict[int, list[tuple[int, int]]] = {}
    workers = []
    for v in range(visits):
        contact = v < max(1, visits // 10)
        while True:
            stay = rng.randint(10, 20) if contact else rng.randint(30, 150)
            start = rng.randint(0, duration - stay - 1)
            slot = -1 if contact else rng.randrange(len(HOUR_SLOTS))
            if all(start >= end or start + stay <= begin
                   for begin, end in busy.get(slot, [])):
                break
        busy.setdefault(slot, []).append((start, start + stay))
        box = HOUR_CONTACT if contact else HOUR_SLOTS[slot]
        workers.append({"enter": start, "exit": start + stay,
                        "keyframes": [{"t": 0, "box": box}]})
    workers.sort(key=lambda w: w["enter"])
    scenario = {"duration": duration, "resolution": [96, 72], "noise_sigma_c": 0.1,
                "patient": {"keyframes": [{"t": 0, "box": HOUR_BED}]},
                "workers": workers}
    bed = ",".join(str(v) for v in HOUR_BED)
    return Workload("hour-blob", seed, scenario, noisy_detections(scenario, rng), None,
                    ["--blob", "--bed", bed, "--no-motion"],
                    truth_dets=False)


WORKLOADS = {"hd-motion": hd_motion, "lowres-motion": lowres_motion,
             "hour-blob": hour_blob}
