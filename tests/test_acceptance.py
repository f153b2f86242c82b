"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured figure (run with -s to see them live).
"""

import json
import time

import numpy as np
import pytest
from scipy import ndimage

from oracles import ap_bruteforce, parse_duration, raster_mask
from wardflow.boxes import (BoundingBox, Detection, FrameDetections,
                            ObjectClass, area, intersection_area, iou, pixel_span)
from wardflow.cli import main
from wardflow.evaluation import average_precision, format_duration, mean_ap, time_error
from wardflow.analytics import motion_step, physical_interaction, relax
from wardflow.flow import FlowField, FlowParams, estimate_flow, image_pyramid, poly_expand
from wardflow.pipeline import SessionConfig, tally


def _random_box(rng, grid=64):
    w = int(rng.integers(1, 32))
    h = int(rng.integers(1, 32))
    return BoundingBox(int(rng.integers(0, grid - w)),
                       int(rng.integers(0, grid - h)), w, h)


def test_criterion_1_box_geometry_oracle():
    """1000 random integer box pairs on a 64x64 grid vs rasterization."""
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    for _ in range(1000):
        a, b = _random_box(rng), _random_box(rng)
        ma, mb = raster_mask(a, 64, 64), raster_mask(b, 64, 64)
        assert area(a) == ma.sum()
        assert intersection_area(a, b) == (ma & mb).sum()
        assert iou(a, b) == (ma & mb).sum() / (ma | mb).sum()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 1: box geometry matches rasterization on 1000 pairs "
          f"({elapsed:.2f}s)")


def test_criterion_2_interaction_semantics():
    indicator, ratio = physical_interaction(BoundingBox(0, 0, 100, 100),
                                            BoundingBox(90, 0, 50, 100), tau=0.1)
    assert ratio == pytest.approx(0.10)
    assert indicator == 1
    rng = np.random.default_rng(101)
    patient = BoundingBox(30, 30, 40, 40)
    for _ in range(500):
        w = BoundingBox(float(rng.uniform(0, 90)), float(rng.uniform(0, 90)),
                        float(rng.uniform(1, 40)), float(rng.uniform(1, 40)))
        g = float(rng.uniform(0, 10))
        grown = BoundingBox(w.x - g, w.y - g, w.w + 2 * g, w.h + 2 * g)
        ind_a, _ = physical_interaction(patient, w)
        ind_b, _ = physical_interaction(patient, grown)
        assert ind_b >= ind_a
    print("PASS criterion 2: overlap ratio 0.10 -> indicator 1 at tau=0.1; "
          "monotone under growth on 500 cases")


def test_criterion_3_nursing_time_sum():
    rng = np.random.default_rng(102)
    worker = Detection(BoundingBox(0, 0, 10, 10), ObjectClass.WORKER, 0.9)
    counts = [int(rng.integers(0, 5)) for _ in range(200)]
    series = [FrameDetections(float(t), [worker] * m) for t, m in enumerate(counts)]

    def nursing_time(series, dt=1.0):
        return tally(series, SessionConfig(dt=dt)).nursing_time_s

    assert nursing_time(series, dt=1.0) == sum(counts)
    assert nursing_time(series, dt=2.5) == sum(counts) * 2.5
    total = nursing_time(series)
    for _ in range(100):
        cut = int(rng.integers(0, len(series) + 1))
        assert nursing_time(series[:cut]) + nursing_time(series[cut:]) == total
    print("PASS criterion 3: nursing time equals the hand sum; additive over "
          "100 random splits")


def test_criterion_4_motion_recurrence():
    patient = BoundingBox(4, 4, 20, 20)
    span = pixel_span(patient, 32, 32)
    flow = FlowField(np.full((20, 20), 2.0), np.zeros((20, 20)))  # the field over the span
    r, alpha, motion0 = 2.0, 0.7, 9.0
    motion = motion0
    for t in range(1, 51):
        motion = relax(motion, float(t), motion_step(flow, span, []), alpha).smoothed
        assert abs(abs(motion - r) - 0.3**t * abs(motion0 - r)) < 1e-12
    sample = relax(123.0, 0.0, motion_step(flow, span, []), 1.0)
    assert sample.smoothed == sample.raw
    print("PASS criterion 4: relaxation decays as 0.3^t to 1e-12 over 50 steps; "
          "alpha=1 reproduces raw")


def test_criterion_5_optical_flow():
    start = time.perf_counter()
    img0, _ = _shifted_pair(0, (0, 0))
    params = FlowParams()
    pyr0 = image_pyramid(img0, params)
    whole = (slice(0, img0.shape[0]), slice(0, img0.shape[1]))
    assert estimate_flow(pyr0, pyr0, params, whole).magnitude().max() < 0.05
    central = (slice(8, 56), slice(8, 56))
    shifts = [(1, 0), (-1, 2), (2, -2), (-2, -1), (3, 1), (-3, 4),
              (4, 0), (-4, -4), (0, 3), (1, -3)]
    worst = 0.0
    cases = 0
    for seed in range(20):
        shift = shifts[seed % len(shifts)]
        img, moved = _shifted_pair(seed, shift)
        flow = estimate_flow(image_pyramid(img, params), image_pyramid(moved, params), params,
                             whole)
        epe = float(np.hypot(flow.dx[central] - shift[0],
                             flow.dy[central] - shift[1]).mean())
        worst = max(worst, epe)
        cases += 1
        assert epe < 0.5, f"seed={seed} shift={shift} epe={epe}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 5: zero flow on identical frames; mean EPE < 0.5 px "
          f"on {cases} shifted images (worst {worst:.3f}, {elapsed:.1f}s)")


def _shifted_pair(seed, shift, size=64, margin=8):
    # both views are crops of one larger texture, so the motion between
    # them is a pure translation with no wrap-around seam
    rng = np.random.default_rng(seed)
    big = ndimage.gaussian_filter(rng.normal(size=(size + 2 * margin,) * 2), 3.0)
    big -= big.min()
    big = big / big.max() * 255.0
    sx, sy = shift
    img = big[margin:margin + size, margin:margin + size]
    moved = big[margin - sy:margin - sy + size, margin - sx:margin - sx + size]
    return img, moved


def test_criterion_6_polynomial_expansion():
    params = FlowParams()
    # an expansion's planes are, in order, bx, by, a11, a22 and axy
    e = poly_expand(np.full((16, 16), 7.0), params.poly_n, params.poly_sigma)
    assert e.shape == (16, 16, 5) and np.abs(e).max() < 1e-9
    X = np.tile(np.arange(24, dtype=float), (24, 1))
    interior = (slice(5, -5), slice(5, -5))
    e = poly_expand(3.0 * X, params.poly_n, params.poly_sigma)
    assert np.abs(e[interior][..., 0] - 3.0).max() < 1e-6
    assert np.abs(e[interior][..., 1]).max() < 1e-6
    e = poly_expand(X * X, params.poly_n, params.poly_sigma)
    assert np.abs(e[interior][..., 2] - 1.0).max() < 1e-3
    print("PASS criterion 6: expansion exact on constant, ramp (b=(3,0)), "
          "and quadratic (A11=1) images")


def test_criterion_7_average_precision_oracle():
    W = ObjectClass.WORKER
    gts = [FrameDetections(0.0, [Detection(BoundingBox(0, 0, 10, 10), W, 1.0)])]
    dets = [FrameDetections(0.0, [Detection(BoundingBox(0, 0, 10, 12), W, 0.9)])]
    assert average_precision(dets, gts, W, 0.5) == 1.0
    dets2 = [FrameDetections(0.0, [Detection(BoundingBox(40, 40, 5, 5), W, 0.9),
                                   Detection(BoundingBox(0, 0, 10, 10), W, 0.5)])]
    assert average_precision(dets2, gts, W, 0.5) == 0.5

    rng = np.random.default_rng(103)
    for _ in range(200):
        det_frames, gt_frames = [], []
        for t in range(2):
            def boxes(n_max):
                out = []
                for _ in range(int(rng.integers(0, n_max + 1))):
                    w, h = int(rng.integers(2, 12)), int(rng.integers(2, 12))
                    out.append(BoundingBox(int(rng.integers(0, 32 - w)),
                                           int(rng.integers(0, 32 - h)), w, h))
                return out
            gt_frames.append(FrameDetections(
                float(t), [Detection(b, W, 1.0) for b in boxes(5)]))
            det_frames.append(FrameDetections(
                float(t), [Detection(b, W, float(rng.random())) for b in boxes(8)]))
        for thr in (0.3, 0.5):
            assert (average_precision(det_frames, gt_frames, W, thr)
                    == ap_bruteforce(det_frames, gt_frames, W, thr))
    print("PASS criterion 7: AP equals brute-force PR enumeration on 200 random "
          "instances; anchor cases 1.0 and 0.5")


def test_criterion_8_table_anchors():
    assert format_duration(time_error(parse_duration("57m25s"),
                                      parse_duration("52m10s"))) == "5m15s"
    assert format_duration(time_error(parse_duration("13m38s"),
                                      parse_duration("14m10s"))) == "32s"
    P, W = ObjectClass.PATIENT, ObjectClass.WORKER
    gts = [FrameDetections(0.0, [Detection(BoundingBox(0, 0, 10, 10), P, 1.0),
                                 Detection(BoundingBox(30, 0, 8, 8), W, 1.0)])]
    table = mean_ap(gts, gts, (0.5, 0.7, 0.9))
    assert table.thresholds == (0.5, 0.7, 0.9)
    assert set(table.per_class) == {P, W}
    assert set(table.per_class[P]) == {0.5, 0.7, 0.9}
    assert set(table.class_averages) == {P, W}
    assert table.overall is not None
    print("PASS criterion 8: published time-table rows reproduce; mAP table has "
          "classes x {0.5,0.7,0.9} plus averages")


SCENARIO_300S = {
    "duration": 300,
    "resolution": [96, 72],
    "noise_sigma_c": 0.0,
    "patient": {"keyframes": [{"t": 0, "box": [10, 16, 24, 30]},
                              {"t": 150, "box": [16, 16, 24, 30]},
                              {"t": 300, "box": [10, 16, 24, 30]}]},
    "workers": [
        {"enter": 30, "exit": 120,
         "keyframes": [{"t": 0, "box": [50, 16, 14, 30]}]},
        {"enter": 90, "exit": 100,
         "keyframes": [{"t": 0, "box": [70, 40, 14, 24]}]},
        {"enter": 200, "exit": 260,
         "keyframes": [{"t": 0, "box": [50, 40, 14, 24]}]},
        # overlaps the patient for 10 s: exercises the interaction path and
        # costs the blob detector at most 10 merged seconds (<= 3.4%)
        {"enter": 270, "exit": 280,
         "keyframes": [{"t": 0, "box": [30, 16, 14, 30]}]},
    ],
}


def test_criterion_9_end_to_end_closed_loop(tmp_path):
    start = time.perf_counter()
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO_300S))
    session = tmp_path / "session"
    assert main(["synth", "--scenario", str(scenario_path),
                 "--seed", "5", "--out", str(session)]) == 0
    out = tmp_path / "report"
    assert main(["analyze", "--manifest", str(session / "manifest.json"),
                 "--dets", str(session / "truth_dets.jsonl"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    truth = json.loads((session / "truth.json").read_text())
    assert report["per_second_worker_counts"] == truth["worker_counts"]
    assert report["nursing_time_s"] == sum(truth["worker_counts"])
    assert report["interaction_time_s"] == sum(truth["interaction"])

    blob_out = tmp_path / "blob"
    assert main(["analyze", "--manifest", str(session / "manifest.json"),
                 "--blob", "--bed", "10,16,24,30", "--out", str(blob_out),
                 "--no-motion"]) == 0
    blob_report = json.loads((blob_out / "report.json").read_text())
    agree = sum(p == l for p, l in zip(blob_report["per_second_worker_counts"],
                                       truth["worker_counts"]))
    accuracy = agree / len(truth["worker_counts"])
    assert accuracy >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 9: closed loop exact on truth detections; blob "
          f"counting accuracy {accuracy:.3f} ({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    scenario = dict(SCENARIO_300S, duration=12)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    session = tmp_path / "session"
    assert main(["synth", "--scenario", str(scenario_path),
                 "--out", str(session)]) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--dets", str(session / "truth_dets.jsonl"),
                     "--out", str(out)]) == 0
        outs.append(out)
    for name in ("report.json", "motion.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print("PASS criterion 10: repeated runs produce byte-identical report.json "
          "and motion.csv")
