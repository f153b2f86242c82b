import math

import numpy as np
import pytest

from oracles import raster_mask
from wardflow.boxes import (BoundingBox, Detection, FrameDetections,
                            ObjectClass, area, intersection_area, iou,
                            match_detections, pixel_span, time_key)


def random_int_box(rng, grid=64, max_extent=32):
    w = int(rng.integers(1, max_extent))
    h = int(rng.integers(1, max_extent))
    x = int(rng.integers(0, grid - w))
    y = int(rng.integers(0, grid - h))
    return BoundingBox(x, y, w, h)


class TestArea:
    def test_unit_square_block(self):
        assert area(BoundingBox(0, 0, 10, 10)) == 100

    def test_small(self):
        assert area(BoundingBox(5, 5, 2, 3)) == 6

    def test_matches_rasterization(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = random_int_box(rng)
            assert area(b) == raster_mask(b, 64, 64).sum()


class TestIntersection:
    def test_corner_overlap(self):
        assert intersection_area(BoundingBox(0, 0, 10, 10), BoundingBox(5, 5, 10, 10)) == 25

    def test_disjoint(self):
        assert intersection_area(BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 5, 5)) == 0.0

    def test_symmetric_and_self(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = random_int_box(rng), random_int_box(rng)
            assert intersection_area(a, b) == intersection_area(b, a)
            assert intersection_area(a, a) == area(a)

    def test_matches_rasterization(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_int_box(rng), random_int_box(rng)
            expected = (raster_mask(a, 64, 64) & raster_mask(b, 64, 64)).sum()
            assert intersection_area(a, b) == expected


class TestIou:
    def test_identical(self):
        b = BoundingBox(3, 4, 7, 9)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 5, 5), BoundingBox(20, 20, 5, 5)) == 0.0

    def test_half_shift(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_range_and_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_int_box(rng), random_int_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert (v == 1.0) == (a == b)

    def test_translation_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_int_box(rng), random_int_box(rng)
            dx, dy = rng.uniform(-20, 20, size=2)
            moved_a = BoundingBox(a.x + dx, a.y + dy, a.w, a.h)
            moved_b = BoundingBox(b.x + dx, b.y + dy, b.w, b.h)
            assert iou(moved_a, moved_b) == pytest.approx(iou(a, b))

    def test_matches_rasterization(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = random_int_box(rng), random_int_box(rng)
            ma, mb = raster_mask(a, 64, 64), raster_mask(b, 64, 64)
            inter = (ma & mb).sum()
            union = (ma | mb).sum()
            assert iou(a, b) == inter / union


class TestBoundingBox:
    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 5)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 5, -1)

    @pytest.mark.parametrize("fields", [(math.nan, 0, 5, 5), (0, -math.inf, 5, 5),
                                        (0, 0, math.inf, 5), (0, 0, 5, math.nan)])
    def test_non_finite_rejected(self, fields):
        with pytest.raises(ValueError):
            BoundingBox(*fields)

    def test_zero_area_rejected(self):
        # two subnormal sides multiply to an area of 0, which every ratio
        # over the box would divide by
        with pytest.raises(ValueError):
            BoundingBox(1, 1, 5e-324, 5e-324)
        # a valid box whose part inside the frame has an area of 0
        assert BoundingBox(-1e-160, 0, 1.2e-160, 1e-163).clamped(10, 10) is None

    def test_clamped(self):
        assert BoundingBox(-5, -5, 20, 20).clamped(10, 10) == BoundingBox(0, 0, 10, 10)
        assert BoundingBox(50, 50, 5, 5).clamped(10, 10) is None

    def test_pixel_span_integer_box(self):
        span = pixel_span(BoundingBox(2, 3, 4, 5), 64, 64)
        assert span == (slice(3, 8), slice(2, 6))

    def test_pixel_span_outside(self):
        assert pixel_span(BoundingBox(100, 100, 5, 5), 64, 64) is None

    def test_pixel_span_matches_raster(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = random_int_box(rng)
            mask = np.zeros((64, 64), dtype=bool)
            mask[pixel_span(b, 64, 64)] = True
            assert np.array_equal(mask, raster_mask(b, 64, 64))


class TestFrameDetections:
    def test_class_filters_and_best_patient(self):
        fd = FrameDetections(0.0, [
            Detection(BoundingBox(0, 0, 10, 10), ObjectClass.PATIENT, 0.4),
            Detection(BoundingBox(5, 5, 10, 10), ObjectClass.PATIENT, 0.9),
            Detection(BoundingBox(20, 0, 10, 10), ObjectClass.WORKER, 0.8),
        ])
        assert len(fd.patients()) == 2
        assert len(fd.workers(conf_min=0.9)) == 0
        assert fd.best_patient().confidence == 0.9
        assert fd.best_patient(conf_min=0.95) is None

    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError):
            Detection(BoundingBox(0, 0, 1, 1), ObjectClass.WORKER, 1.2)


class TestMatchDetections:
    def test_time_key_is_the_microsecond(self):
        assert time_key(0.1 + 3e-7) == time_key(0.1) == 100000
        assert time_key(0.1 + 6e-7) != time_key(0.1)

    def test_matched_items_are_the_given_objects(self):
        timeline = [FrameDetections(k * 0.1) for k in range(3)]
        dets = [FrameDetections(0.2 + 3e-7), FrameDetections(0.0)]
        joined = match_detections(timeline, dets)
        assert joined[0] is dets[1]
        assert joined[2] is dets[0]
        assert joined[1] is not timeline[1]
        assert joined[1].timestamp == 0.1 and joined[1].detections == []

    def test_unmatched_detection_frames_warn(self):
        timeline = [FrameDetections(float(t)) for t in range(3)]
        dets = [FrameDetections(1.0), FrameDetections(7.5), FrameDetections(9.0)]
        with pytest.warns(UserWarning, match=r"2 detection frames .* t=7\.5"):
            joined = match_detections(timeline, dets)
        assert [fd is dets[0] for fd in joined] == [False, True, False]

    def test_detection_frame_displaced_by_a_repeated_key_warns(self):
        dets = [FrameDetections(1.0), FrameDetections(1.0 + 1e-7)]
        with pytest.warns(UserWarning, match=r"1 detection frames .* t=1\.0$"):
            (joined,) = match_detections([FrameDetections(1.0)], dets)
        assert joined is dets[1]
