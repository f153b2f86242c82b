import json

import numpy as np
import pytest

import wardflow.pipeline
from oracles import align_riker_loop, motion_raw_full_frame
from wardflow.analytics import (MotionSample, RikerRecord, align_riker,
                                count_workers, interaction_time, motion_step,
                                physical_interaction, read_riker_csv, relax,
                                SessionReport)
from wardflow.boxes import (BoundingBox, Detection, FrameDetections, ObjectClass,
                            intersection_area, pixel_span)
from wardflow.cli import _analyze_files
from wardflow.errors import FormatError
from wardflow.flow import FlowField
from wardflow.frames import ThermalFrame
from wardflow.pipeline import (SessionConfig, _patient_span, analyze_session, pair_motion,
                               tally)


def frame(t, workers=(), patients=()):
    dets = [Detection(BoundingBox(*b), ObjectClass.WORKER, c) for b, c in workers]
    dets += [Detection(BoundingBox(*b), ObjectClass.PATIENT, c) for b, c in patients]
    return FrameDetections(t, dets)


W = ((0, 0, 10, 10), 0.9)


def session_report(series, dt=1.0):
    """The per-second rule applied to a detection series."""
    return tally(series, SessionConfig(dt=dt))


def nursing(series, dt=1.0):
    return session_report(series, dt).nursing_time_s


class TestCountWorkers:
    def test_cutoff(self):
        fd = frame(0, workers=[((0, 0, 5, 5), 0.9), ((10, 0, 5, 5), 0.6)])
        assert count_workers(fd, conf_min=0.5) == 2
        assert count_workers(fd, conf_min=0.7) == 1

    def test_patients_not_counted(self):
        fd = frame(0, patients=[((0, 0, 5, 5), 0.99)])
        assert count_workers(fd, conf_min=0.5) == 0


class TestNursingTime:
    def test_hand_sum(self):
        series = [frame(0, workers=[W]),
                  frame(1),
                  frame(2, workers=[W, (((20, 0, 5, 5)), 0.8), ((30, 0, 5, 5), 0.4)])]
        assert nursing(series, dt=1.0) == 3.0

    def test_empty(self):
        assert nursing([], dt=1.0) == 0.0

    def test_uniform_minute(self):
        series = [frame(t, workers=[W]) for t in range(60)]
        assert nursing(series, dt=1.0) == 60.0

    def test_dt_scales(self):
        series = [frame(0, workers=[W])]
        assert nursing(series, dt=0.5) == 0.5

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(0)
        series = [frame(t, workers=[W] * int(rng.integers(0, 4)))
                  for t in range(50)]
        total = nursing(series)
        for _ in range(20):
            cut = int(rng.integers(0, len(series)))
            assert nursing(series[:cut]) + nursing(series[cut:]) == total


class TestPhysicalInteraction:
    def test_boundary_inclusive(self):
        patient = BoundingBox(0, 0, 100, 100)
        worker = BoundingBox(90, 0, 50, 100)
        indicator, ratio = physical_interaction(patient, worker, tau=0.1)
        assert ratio == pytest.approx(0.10)
        assert indicator == 1

    def test_disjoint(self):
        assert physical_interaction(BoundingBox(0, 0, 10, 10),
                                    BoundingBox(50, 50, 10, 10)) == (0, 0.0)

    @pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf")])
    def test_tau_must_be_positive_and_finite(self, tau):
        with pytest.raises(ValueError):
            physical_interaction(BoundingBox(0, 0, 10, 10), BoundingBox(5, 5, 10, 10), tau)

    def test_worker_inside_half_area(self):
        patient = BoundingBox(0, 0, 20, 20)
        worker = BoundingBox(0, 0, 20, 10)
        indicator, ratio = physical_interaction(patient, worker)
        assert ratio == pytest.approx(0.5)
        assert indicator == 1

    def test_monotone_in_overlap(self):
        rng = np.random.default_rng(1)
        patient = BoundingBox(20, 20, 40, 40)
        for _ in range(100):
            w = BoundingBox(float(rng.uniform(0, 80)), float(rng.uniform(0, 80)),
                            float(rng.uniform(1, 30)), float(rng.uniform(1, 30)))
            grown = BoundingBox(w.x - 5, w.y - 5, w.w + 10, w.h + 10)
            ind_small, r_small = physical_interaction(patient, w)
            ind_big, r_big = physical_interaction(patient, grown)
            assert r_big >= r_small
            assert ind_big >= ind_small

    def test_scale_invariant(self):
        def scaled(b, s):  # about the origin
            return BoundingBox(b.x * s, b.y * s, b.w * s, b.h * s)

        rng = np.random.default_rng(2)
        for _ in range(50):
            p = BoundingBox(*rng.uniform(1, 40, size=4))
            w = BoundingBox(*rng.uniform(1, 40, size=4))
            s = float(rng.uniform(0.1, 10))
            ind1, r1 = physical_interaction(p, w)
            ind2, r2 = physical_interaction(scaled(p, s), scaled(w, s))
            assert r2 == pytest.approx(r1)
            assert ind1 == ind2


class TestInteractionTime:
    PATIENT = ((0, 0, 50, 50), 1.0)
    TOUCHING = ((40, 0, 30, 50), 0.9)   # ratio 0.2
    FAR = ((100, 100, 20, 20), 0.9)

    def test_counting(self):
        series = [frame(t, patients=[self.PATIENT],
                        workers=[self.TOUCHING if t < 4 else self.FAR])
                  for t in range(10)]
        summary = interaction_time(series)
        assert summary.indicators == [1] * 4 + [0] * 6
        assert len(summary.events) == 4
        assert session_report(series).interaction_time_s == 4.0

    def test_two_workers_one_second_two_events(self):
        series = [frame(0, patients=[self.PATIENT],
                        workers=[self.TOUCHING, ((0, 40, 50, 30), 0.8)])]
        summary = interaction_time(series)
        assert summary.indicators == [1]
        assert len(summary.events) == 2
        assert session_report(series).interaction_time_s == 1.0

    def test_no_workers(self):
        series = [frame(t, patients=[self.PATIENT]) for t in range(5)]
        summary = interaction_time(series)
        assert summary.indicators == [0] * 5
        assert summary.events == []
        assert session_report(series).interaction_time_s == 0.0

    def test_missing_patient_flagged(self):
        series = [frame(0, workers=[self.TOUCHING]),
                  frame(1, patients=[self.PATIENT], workers=[self.TOUCHING])]
        summary = interaction_time(series)
        assert summary.missing_patient_times == [0.0]
        assert summary.indicators == [0, 1]
        report = session_report(series)
        assert report.gaps == [0.0]
        assert report.interaction_time_s == 1.0

    def test_bounded_by_duration(self):
        series = [frame(t, patients=[self.PATIENT], workers=[self.TOUCHING, self.TOUCHING])
                  for t in range(7)]
        summary = interaction_time(series)
        assert summary.indicators == [1] * 7
        assert len(summary.events) == 14
        assert session_report(series).interaction_time_s == 7.0


def step(flow, patient, workers):
    """`motion_step` on the field over the span of a patient box inside
    the frame of the whole-frame `flow`."""
    height, width = flow.dx.shape
    span = pixel_span(patient, width, height)
    return motion_step(FlowField(flow.dx[span], flow.dy[span]), span, workers)


def motion_of_known_flow(monkeypatch, flow, fd):
    """The raw motion of one frame whose flow is the whole-frame `flow`
    (None for a gap), from the pipeline's span decision and `pair_motion`,
    and the spans `estimate_flow` was asked for."""
    asked = []

    def cropped(prev_pyr, cur_pyr, params, span):
        asked.append(span)
        return FlowField(flow.dx[span], flow.dy[span])

    monkeypatch.setattr(wardflow.pipeline, "estimate_flow", cropped)
    config = SessionConfig()
    span = _patient_span(fd, flow.dx.shape, config.conf_min)
    if span is None:
        return None, asked
    return pair_motion(None, None, fd, span, config), asked  # the stubbed flow reads no pyramid


class TestMotionStep:
    def test_uniform_flow(self):
        flow = FlowField(np.ones((40, 40)), np.zeros((40, 40)))
        sample = relax(0.0, 0.0, step(flow, BoundingBox(5, 5, 20, 20), []), 0.7)
        assert sample.raw == pytest.approx(1.0)
        assert sample.smoothed == pytest.approx(0.7)

    def test_zero_flow_decay(self):
        flow = FlowField(np.zeros((40, 40)), np.zeros((40, 40)))
        sample = relax(2.0, 0.0, step(flow, BoundingBox(5, 5, 20, 20), []), 0.7)
        assert sample.smoothed == pytest.approx(0.6)

    def test_alpha_one_no_memory(self):
        flow = FlowField(np.full((40, 40), 3.0), np.zeros((40, 40)))
        sample = relax(99.0, 0.0, step(flow, BoundingBox(5, 5, 20, 20), []), 1.0)
        assert sample.smoothed == sample.raw

    def test_worker_masking_removes_worker_motion(self):
        # all the motion sits inside the worker overlap, so masking it
        # out leaves a still patient
        dx = np.zeros((40, 40))
        dx[0:10, 0:20] = 5.0
        flow = FlowField(dx, np.zeros((40, 40)))
        patient = BoundingBox(0, 0, 20, 20)
        with_mask = step(flow, patient, [BoundingBox(0, 0, 20, 10)])
        without = step(flow, patient, [])
        assert with_mask == 0.0
        assert without > 0.0

    def test_degenerate_patient_carries_forward(self, monkeypatch):
        # a patient box with no pixel in the frame is a gap found before any flow
        flow = FlowField(np.zeros((40, 40)), np.zeros((40, 40)))
        raw, asked = motion_of_known_flow(monkeypatch, flow,
                                          frame(3.0, patients=[((100, 100, 5, 5), 0.9)]))
        sample = relax(1.25, 3.0, raw, 0.7)
        assert asked == []
        assert sample.gap
        assert sample.smoothed == 1.25
        assert sample.timestamp == 3.0

    def test_patient_covering_no_pixel_builds_no_pyramid(self, monkeypatch):
        # a patient inside the frame but between pixel centres is a gap
        # decided before any pyramid is built
        built = []

        def counted(*args, fn=wardflow.pipeline.image_pyramid):
            built.append(args)
            return fn(*args)

        monkeypatch.setattr(wardflow.pipeline, "image_pyramid", counted)
        rng = np.random.default_rng(3)
        frames = [ThermalFrame(rng.uniform(20.0, 37.0, size=(12, 16)), float(t))
                  for t in range(6)]
        series = [frame(float(t), patients=[((3.2, 3.2, 0.5, 0.5), 0.9)]) for t in range(6)]
        report = analyze_session(zip(frames, series, strict=True), SessionConfig())
        assert [s.gap for s in report.motion] == [True] * 5
        assert built == []

    def test_geometric_convergence(self):
        # constant raw r: |motion_t - r| == (1-alpha)^t |motion_0 - r|
        flow = FlowField(np.full((40, 40), 2.0), np.zeros((40, 40)))
        patient = BoundingBox(5, 5, 20, 20)
        alpha, r = 0.7, 2.0
        motion = 10.0
        for t in range(1, 30):
            motion = relax(motion, float(t), step(flow, patient, []), alpha).smoothed
            expected = (1 - alpha) ** t * abs(10.0 - r)
            assert abs(motion - r) == pytest.approx(expected, rel=1e-9)

    def test_span_matches_full_frame_reference(self, monkeypatch):
        # the span-only arithmetic of a pair (the span the pipeline
        # decides, the field over it, the mask and statistics) must give
        # the bits of the full-frame copy, mask and boolean region, for
        # every kind of box; a gap must not ask for flow
        rng = np.random.default_rng(21)
        seen = {"gap": 0, "zeroed": 0, "beside": 0}

        def box(x, y, w, h):
            return BoundingBox(float(x), float(y), float(w), float(h))

        for case in range(1500):
            height, width = (int(v) for v in rng.integers(1, 48, size=2))
            flow = FlowField(rng.normal(size=(height, width)), rng.normal(size=(height, width)))
            kind = case % 6
            if kind == 0:    # whole frame
                patient = box(0, 0, width, height)
            elif kind == 1:  # one pixel
                patient = box(rng.integers(0, width), rng.integers(0, height), 1, 1)
            elif kind == 2:  # wholly outside the frame: a gap
                patient = box(width + rng.uniform(0, 5), rng.uniform(-5, height),
                              rng.uniform(0.5, 10), rng.uniform(0.5, 10))
            else:            # fractional, possibly sticking out of the frame
                patient = box(rng.uniform(-0.3, 1.0) * width, rng.uniform(-0.3, 1.0) * height,
                              rng.uniform(0.1, 1.3) * width, rng.uniform(0.1, 1.3) * height)
            workers, beside = [], False
            for _ in range(rng.integers(0, 4)):
                how = rng.integers(0, 4)
                if how == 0:    # covers the patient fully
                    workers.append(box(patient.x - 1, patient.y - 1,
                                       patient.w + 2, patient.h + 2))
                elif how == 1:  # partly over the patient
                    workers.append(box(patient.x + rng.uniform(-1, 1) * patient.w,
                                       patient.y + rng.uniform(-1, 1) * patient.h,
                                       rng.uniform(0.2, 1.0) * patient.w,
                                       rng.uniform(0.2, 1.0) * patient.h))
                elif how == 2:  # away from the patient, to its right
                    workers.append(box(patient.right + rng.uniform(0, 3), patient.y,
                                       rng.uniform(0.5, 5), rng.uniform(0.5, 5)))
                else:           # wholly left of or above the patient, in the frame
                    w, h = rng.uniform(0.5, 5, size=2)
                    if rng.integers(0, 2):
                        workers.append(box(patient.x - w - rng.uniform(0, 2), patient.y, w, h))
                    else:
                        workers.append(box(patient.x, patient.y - h - rng.uniform(0, 2), w, h))
                    beside |= pixel_span(workers[-1], width, height) is not None
            expected = motion_raw_full_frame(flow, patient, workers)
            fd = FrameDetections(float(case), [Detection(patient, ObjectClass.PATIENT)]
                                 + [Detection(w, ObjectClass.WORKER) for w in workers])
            raw, asked = motion_of_known_flow(monkeypatch, flow, fd)
            if expected is None:
                seen["gap"] += 1
                assert raw is None
                assert asked == []
            else:
                assert len(asked) == 1
                assert raw.hex() == expected.hex(), (height, width, patient, workers)
                seen["zeroed"] += any(intersection_area(patient, w) > 0 for w in workers)
                seen["beside"] += beside
        assert seen["gap"] >= 250 and seen["zeroed"] >= 250 and seen["beside"] >= 150

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SessionConfig(alpha=1.5)


class TestAlignRiker:
    def samples(self, values, t0=0.0):
        return [MotionSample(t0 + i, v, v) for i, v in enumerate(values)]

    def test_constant_window(self):
        motion = self.samples([1.5] * 10)
        (g,) = align_riker(motion, [RikerRecord(5.0, 4)], window=3.0)
        assert (g.score, g.mean, g.q25, g.q50, g.q75, g.n) == (4, 1.5, 1.5, 1.5, 1.5, 1)

    def test_two_records_same_score(self):
        motion = self.samples([1.0] * 5) + self.samples([3.0] * 5, t0=100.0)
        records = [RikerRecord(2.0, 6), RikerRecord(102.0, 6)]
        groups = align_riker(motion, records, window=4.0)
        assert groups[0].mean == pytest.approx(2.0)
        assert groups[0].n == 2

    def test_empty_records(self):
        assert align_riker(self.samples([1.0]), [], window=10.0) == []

    def test_record_outside_session_excluded(self):
        motion = self.samples([1.0] * 5)
        assert align_riker(motion, [RikerRecord(500.0, 3)], window=10.0) == []
        (g,) = align_riker(motion, [RikerRecord(500.0, 3), RikerRecord(2.0, 3)], window=10.0)
        assert g.n == 1

    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            RikerRecord(0.0, 8)

    def test_matches_the_sample_scan_bitwise(self):
        # random sessions with gaps, records whose window edge falls exactly
        # on a sample, and records whose window holds no sample
        rng = np.random.default_rng(29)
        seen = {"edge": 0, "empty": 0}
        for _ in range(300):
            n = int(rng.integers(0, 60))
            scale = 10.0 ** rng.uniform(-6, 3)
            times = np.sort(rng.choice(200, size=n, replace=False)) * 0.5
            motion = [MotionSample(float(t), 0.0, float(v), gap=bool(g)) for t, v, g in
                      zip(times, rng.uniform(0, 1, n) * scale, rng.random(n) < 0.2)]
            window = float(rng.integers(1, 20)) * 0.25
            records = []
            for _ in range(int(rng.integers(0, 8))):
                how = rng.integers(0, 3)
                if how == 0 and n:    # a sample exactly on the window's edge
                    t = float(times[rng.integers(0, n)]) + window * rng.choice([-1.0, 1.0])
                elif how == 1:        # beyond every sample
                    t = 100.0 + window + float(rng.uniform(1, 50))
                else:
                    t = float(rng.uniform(-5, 105))
                records.append(RikerRecord(t, int(rng.integers(1, 8))))
            for rec in records:
                dist = [abs(s.timestamp - rec.timestamp) for s in motion if not s.gap]
                seen["edge"] += window in dist
                seen["empty"] += not any(d <= window for d in dist)
            got = align_riker(motion, records, window)
            expected = align_riker_loop(motion, records, window)
            assert [(g.score, g.n) for g in got] == [(g.score, g.n) for g in expected]
            for g, e in zip(got, expected):
                assert [v.hex() for v in (g.mean, g.q25, g.q50, g.q75)] == \
                    [v.hex() for v in (e.mean, e.q25, e.q50, e.q75)]
        assert seen["edge"] >= 100 and seen["empty"] >= 100


class TestRikerCsv:
    def test_parse(self):
        records = read_riker_csv("t,score\n0,3\n600,5\n")
        assert records == [RikerRecord(0.0, 3), RikerRecord(600.0, 5)]

    def test_bad_header(self):
        with pytest.raises(FormatError):
            read_riker_csv("time,value\n0,3\n")

    def test_bad_row_carries_line(self):
        with pytest.raises(FormatError) as err:
            read_riker_csv("t,score\n0,3\nx,y\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_carries_line(self, t):
        with pytest.raises(FormatError) as err:
            read_riker_csv(f"t,score\n0,3\n{t},3\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("window", [0.0, -1.0, float("nan"), float("inf")])
    def test_window_must_be_positive_and_finite(self, window):
        with pytest.raises(ValueError):
            align_riker([MotionSample(0.0, 1.0, 1.0)], [RikerRecord(0.0, 3)], window)


def test_report_dict_field_names():
    report = SessionReport(10.0, 4.0, [], [MotionSample(1.0, 0.5, 0.35)], [1, 2])
    doc = json.loads(_analyze_files(report, [0.0, 1.0])["report.json"])
    assert set(doc) == {"nursing_time_s", "interaction_time_s", "events",
                        "motion", "riker", "gaps", "per_second_worker_counts"}
    assert doc["motion"][0] == {"t": 1.0, "raw": 0.5, "smoothed": 0.35}
