import json

import numpy as np
import pytest

import wardflow.flow
import wardflow.pipeline
from oracles import motion_raw_full_frame
from wardflow.analytics import RikerRecord
from wardflow.boxes import BoundingBox, Detection, FrameDetections, ObjectClass
from wardflow.detect import blob_detect
from wardflow.evaluation import counting_accuracy
from wardflow.flow import _dependency_cones, _inside, estimate_flow, image_pyramid
from wardflow.frames import auto_window, normalize_to_gray, write_npy_frame
from wardflow.pipeline import FLOW, SessionConfig, _patient_span, analyze_session, joined
from wardflow.synth import (ActorScript, Keyframe, Scenario, export_session,
                            render, scenario_from_dict)


def static_patient(box=BoundingBox(20, 30, 30, 40)):
    return ActorScript([Keyframe(0.0, box)])


def basic_scenario(duration=10, workers=(), noise=0.0, resolution=(96, 96)):
    return Scenario(duration=duration, patient=static_patient(),
                    workers=list(workers), resolution=resolution,
                    noise_sigma_c=noise)


class TestScripts:
    def test_interpolation(self):
        script = ActorScript([Keyframe(0.0, BoundingBox(0, 0, 10, 10)),
                              Keyframe(10.0, BoundingBox(20, 0, 10, 10))])
        assert script.box_at(5.0) == BoundingBox(10, 0, 10, 10)

    def test_presence_window(self):
        script = ActorScript([Keyframe(0.0, BoundingBox(0, 0, 5, 5))],
                             enter=3.0, exit=7.0)
        assert script.box_at(2.0) is None
        assert script.box_at(3.0) is not None
        assert script.box_at(7.0) is None

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            Scenario(duration=5,
                     patient=ActorScript([Keyframe(0.0, BoundingBox(90, 90, 20, 20))]),
                     resolution=(96, 96))


class TestRender:
    def test_deterministic(self):
        scenario = basic_scenario(duration=4, noise=0.1)
        frames1, _ = render(scenario, seed=7)
        frames2, _ = render(scenario, seed=7)
        for a, b in zip(frames1, frames2):
            assert write_npy_frame(a) == write_npy_frame(b)

    def test_seed_changes_noise(self):
        scenario = basic_scenario(duration=2, noise=0.1)
        a, _ = render(scenario, seed=1)
        b, _ = render(scenario, seed=2)
        assert not np.array_equal(a[0].temps, b[0].temps)

    def test_static_patient_truth(self):
        _, truth = render(basic_scenario(duration=6), seed=0)
        assert truth.worker_counts == [0] * 6
        assert truth.interaction == [0] * 6
        assert truth.displacement == [0.0] * 6

    def test_zero_noise_exact_rectangle(self):
        frames, _ = render(basic_scenario(duration=1), seed=0)
        temps = frames[0].temps
        assert np.all(temps[30:70, 20:50] == 36.0)
        assert temps[0, 0] == 22.0

    def test_worker_approach_interaction_window(self):
        # worker overlaps 20% of the patient area during seconds 10..39
        patient_box = BoundingBox(20, 30, 30, 40)
        worker = ActorScript([Keyframe(0.0, BoundingBox(44, 30, 20, 40))],
                             enter=10.0, exit=40.0)
        scenario = Scenario(duration=60, patient=static_patient(patient_box),
                            workers=[worker], resolution=(96, 96),
                            noise_sigma_c=0.0)
        _, truth = render(scenario, seed=0)
        assert sum(truth.interaction) == 30
        assert truth.interaction[10] == 1 and truth.interaction[9] == 0
        assert truth.worker_counts[10:40] == [1] * 30

    def test_oscillating_patient_displacement(self):
        keyframes = [Keyframe(float(t), BoundingBox(20.0 + (t % 8 if t % 8 < 4 else 8 - t % 8),
                                                    30, 30, 40))
                     for t in range(17)]
        scenario = Scenario(duration=16, patient=ActorScript(keyframes),
                            resolution=(96, 96), noise_sigma_c=0.0)
        _, truth = render(scenario, seed=0)
        assert truth.displacement[0] == 0.0
        assert all(d == pytest.approx(1.0) for d in truth.displacement[1:])

    def test_from_dict_roundtrip(self):
        doc = {
            "duration": 5,
            "resolution": [96, 96],
            "noise_sigma_c": 0.0,
            "patient": {"keyframes": [{"t": 0, "box": [20, 30, 30, 40]}]},
            "workers": [{"enter": 1, "exit": 4,
                         "keyframes": [{"t": 0, "box": [60, 30, 20, 40]}]}],
        }
        scenario = scenario_from_dict(doc)
        _, truth = render(scenario, seed=0)
        assert truth.worker_counts == [0, 1, 1, 1, 0]


class TestClosedLoop:
    def make_scenario(self):
        patient_box = BoundingBox(20, 30, 30, 40)
        near = ActorScript([Keyframe(0.0, BoundingBox(44, 30, 20, 40))],
                           enter=5.0, exit=15.0)
        far = ActorScript([Keyframe(0.0, BoundingBox(70, 5, 15, 20))],
                          enter=10.0, exit=25.0)
        return Scenario(duration=30, patient=static_patient(patient_box),
                        workers=[near, far], resolution=(96, 96),
                        noise_sigma_c=0.0)

    def test_truth_detections_reproduce_metrics(self):
        scenario = self.make_scenario()
        _, truth = render(scenario, seed=0)
        frames, _ = render(scenario, seed=0)
        report = analyze_session(joined(frames, frames, truth.frames), SessionConfig(),
                                 compute_motion=False)
        assert report.per_second_worker_counts == truth.worker_counts
        assert report.nursing_time_s == sum(truth.worker_counts)
        assert report.interaction_time_s == sum(truth.interaction)

    def test_blob_detector_counting(self):
        # actors kept apart so warm blobs never merge
        a = ActorScript([Keyframe(0.0, BoundingBox(60, 30, 20, 40))],
                        enter=5.0, exit=15.0)
        b = ActorScript([Keyframe(0.0, BoundingBox(70, 5, 15, 20))],
                        enter=10.0, exit=25.0)
        scenario = Scenario(duration=30, patient=static_patient(),
                            workers=[a, b], resolution=(96, 96),
                            noise_sigma_c=0.0)
        frames, truth = render(scenario, seed=0)
        bed = BoundingBox(20, 30, 30, 40)
        pred = [len([d for d in blob_detect(f, 30.0, 25.0, bed)
                     if d.cls.value == "worker"])
                for f in frames]
        assert counting_accuracy(pred, truth.worker_counts) >= 0.95


class TestMotionEngine:
    GAPS = {3, 4, 8}  # seconds whose detections lose the patient

    def make_session(self):
        keyframes = [Keyframe(float(t), BoundingBox(12.0 + 2 * (t % 3), 10, 20, 26))
                     for t in range(10)]
        worker = ActorScript([Keyframe(0.0, BoundingBox(28, 8, 14, 30))],
                             enter=5.0, exit=9.0)
        scenario = Scenario(duration=10, patient=ActorScript(keyframes),
                            workers=[worker], resolution=(64, 48), noise_sigma_c=0.2)
        frames, truth = render(scenario, seed=4)
        dets = [FrameDetections(fd.timestamp,
                                fd.workers(0.5) if k in self.GAPS else fd.detections)
                for k, fd in enumerate(truth.frames)]
        return frames, dets

    def test_skips_gap_pairs_and_builds_each_pyramid_once(self, monkeypatch):
        frames, dets = self.make_session()
        config = SessionConfig()
        window = auto_window(frames[0])
        pyramids = [image_pyramid(normalize_to_gray(f, *window), FLOW) for f in frames]
        whole = (slice(0, frames[0].height), slice(0, frames[0].width))
        expected = {}
        for k in range(1, len(frames)):
            if k not in self.GAPS:
                # the whole-frame field and the full-frame motion reference
                flow = estimate_flow(pyramids[k - 1], pyramids[k], FLOW, whole)
                workers = [d.box for d in dets[k].workers(config.conf_min)]
                patient = dets[k].best_patient(config.conf_min).box
                expected[k] = motion_raw_full_frame(flow, patient, workers)

        flows, built, expanded = [], [], []  # expanded: (image, region) per expansion
        boxes = {}  # id of a second frame's pyramid -> the boxes its pair left
        flow, pyramid, expand = (wardflow.pipeline.estimate_flow, wardflow.pipeline.image_pyramid,
                                 wardflow.flow.poly_expand)

        def flowed(prev_pyr, cur_pyr, *args):
            flows.append(args)
            field = flow(prev_pyr, cur_pyr, *args)
            boxes[id(cur_pyr)] = [box for _, (box, _) in sorted(cur_pyr.expanded.items())]
            return field

        monkeypatch.setattr(wardflow.pipeline, "estimate_flow", flowed)
        monkeypatch.setattr(wardflow.pipeline, "image_pyramid",
                            lambda *args: built.append(pyramid(*args)) or built[-1])

        def recorded(image, poly_n, poly_sigma, region):
            expanded.append((image, region))
            return expand(image, poly_n, poly_sigma, region)

        monkeypatch.setattr(wardflow.flow, "poly_expand", recorded)
        report = analyze_session(zip(frames, dets, strict=True), config)

        assert [s.gap for s in report.motion] == [k in self.GAPS for k in range(1, 10)]
        for k, sample in enumerate(report.motion, start=1):
            if not sample.gap:
                assert sample.raw == expected[k]
        assert len(flows) == len(expected)
        frames_used = sorted({j for k in expected for j in (k - 1, k)})
        assert len(frames_used) == 9  # frame 3 sits between two gap pairs
        assert len(built) == len(frames_used)  # each frame's pyramid is built once

        # A frame no pair warped has each level expanded once, on its cone.
        # A frame pair k warped has each level expanded on the boxes its
        # warps read, each the union of the last and a new read; pair k + 1
        # cuts its cone from the last box, or expands the cone where that
        # box does not cover it.
        shapes = [level.shape for level in built[0].levels]
        cut = own = 0
        for j, pyr in zip(frames_used, built):
            cones = [None] * len(shapes)  # the cones of the pair that reads frame j first
            if j + 1 in expected:
                span = _patient_span(dets[j + 1], shapes[0], config.conf_min)
                cones = _dependency_cones(shapes, span, FLOW)
            for k, (level, steps) in enumerate(zip(pyr.levels, cones)):
                regions = [region for image, region in expanded if image is level]
                if j not in expected:
                    assert regions == [steps[0]], (j, k)
                    continue
                box = boxes[id(pyr)][k]
                if steps is not None and not _inside(steps[0], box):
                    assert regions.pop() == steps[0], (j, k)
                    own += 1
                else:
                    cut += steps is not None
                assert regions[-1] == box, (j, k)
                assert all(_inside(a, b) and a != b for a, b in zip(regions, regions[1:])), (j, k)
        assert cut >= 1 and own >= 1, (cut, own)

    def test_list_and_one_pass_stream_give_one_report(self):
        # the session is read once: a list of pairs, which could be read
        # again, counts each frame once, as a generator must
        frames, dets = self.make_session()
        pairs = list(zip(frames, dets))
        riker = [RikerRecord(4.0, 3), RikerRecord(8.0, 5)]
        for compute_motion in (True, False):
            from_list = analyze_session(pairs, SessionConfig(), riker, compute_motion)
            from_stream = analyze_session((pair for pair in pairs), SessionConfig(), riker,
                                          compute_motion)
            assert from_list == from_stream
            assert len(from_list.per_second_worker_counts) == len(frames)
            assert len(from_list.motion) == (len(frames) - 1 if compute_motion else 0)
            assert bool(from_list.riker) == compute_motion

    def test_patient_outside_the_frame_runs_no_flow(self, monkeypatch):
        # a patient box with no pixel in the 64x48 frame gives the motion
        # of a frame without a patient, and no flow runs for its pair
        frames, dets = self.make_session()
        outside, moved, dropped = {2, 6}, [], []
        for k, fd in enumerate(dets):
            if k in outside:
                fd = FrameDetections(fd.timestamp, fd.workers(0.5))
                dropped.append(fd)
                fd = FrameDetections(fd.timestamp, fd.detections + [
                    Detection(BoundingBox(70, 10, 20, 26), ObjectClass.PATIENT)])
            else:
                dropped.append(fd)
            moved.append(fd)
        config = SessionConfig()
        reference = analyze_session(zip(frames, dropped, strict=True), config)

        calls = []
        flow = wardflow.pipeline.estimate_flow

        def counted(*args):
            calls.append(args[3])
            return flow(*args)

        monkeypatch.setattr(wardflow.pipeline, "estimate_flow", counted)
        report = analyze_session(zip(frames, moved, strict=True), config)
        assert report.motion == reference.motion
        assert [s.gap for s in report.motion] == [k in self.GAPS | outside for k in range(1, 10)]
        assert len(calls) == 9 - len(self.GAPS | outside)

def test_export_session(tmp_path):
    scenario = basic_scenario(duration=3)
    frames, truth = render(scenario, seed=0)
    export_session(frames, truth, tmp_path / "out")
    out = tmp_path / "out"
    assert json.loads((out / "manifest.json").read_text())["dt"] == 1.0
    assert (out / "frame_00000.npy").exists()
    assert (out / "truth_dets.jsonl").exists()
    doc = json.loads((out / "truth.json").read_text())
    assert doc["worker_counts"] == truth.worker_counts
