import numpy as np
import pytest

from oracles import ap_bruteforce, parse_duration
from wardflow.boxes import BoundingBox, Detection, FrameDetections, ObjectClass
from wardflow.evaluation import (average_precision, counting_accuracy,
                                 format_duration, mean_ap, time_error)


def det_frame(t, entries):
    return FrameDetections(t, [Detection(BoundingBox(*b), cls, conf)
                               for b, cls, conf in entries])


P, W = ObjectClass.PATIENT, ObjectClass.WORKER


def random_instance(rng, n_gt_max=5, n_det_max=8, n_frames=3):
    """Random small instance on a 32x32 grid, one class."""
    gts, dets = [], []
    for t in range(n_frames):
        gt_entries = []
        for _ in range(int(rng.integers(0, n_gt_max + 1))):
            w, h = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            x, y = int(rng.integers(0, 32 - w)), int(rng.integers(0, 32 - h))
            gt_entries.append(((x, y, w, h), W, 1.0))
        det_entries = []
        for _ in range(int(rng.integers(0, n_det_max + 1))):
            w, h = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            x, y = int(rng.integers(0, 32 - w)), int(rng.integers(0, 32 - h))
            det_entries.append(((x, y, w, h), W, float(rng.random())))
        gts.append(det_frame(t, gt_entries))
        dets.append(det_frame(t, det_entries))
    return dets, gts


class TestAveragePrecision:
    def test_single_perfect_match(self):
        gts = [det_frame(0, [((0, 0, 10, 10), W, 1.0)])]
        dets = [det_frame(0, [((0, 0, 10, 14), W, 0.9)])]  # IoU ~0.71
        assert average_precision(dets, gts, W, 0.5) == 1.0

    def test_false_above_true_gives_half(self):
        gts = [det_frame(0, [((0, 0, 10, 10), W, 1.0)])]
        dets = [det_frame(0, [((20, 20, 5, 5), W, 0.9),    # IoU 0, ranked first
                              ((0, 0, 10, 10), W, 0.5)])]
        assert average_precision(dets, gts, W, 0.5) == 0.5

    def test_no_ground_truth_is_undefined(self):
        gts = [det_frame(0, [])]
        dets = [det_frame(0, [((0, 0, 5, 5), W, 0.9)])]
        assert average_precision(dets, gts, W, 0.5) is None

    def test_duplicate_detection_on_one_gt_is_fp(self):
        # the duplicate ranks between two true positives, so its false
        # positive lowers the precision at which the second truth is found
        gts = [det_frame(0, [((0, 0, 10, 10), W, 1.0), ((20, 20, 10, 10), W, 1.0)])]
        dets = [det_frame(0, [((0, 0, 10, 10), W, 0.9),
                              ((0, 0, 10, 11), W, 0.8),
                              ((20, 20, 10, 10), W, 0.7)])]
        # recall 0.5 at precision 1, then recall 1 at precision 2/3
        assert average_precision(dets, gts, W, 0.5) == 0.5 * 1.0 + 0.5 * (2 / 3)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            dets, gts = random_instance(rng)
            for thr in (0.3, 0.5, 0.7):
                expected = ap_bruteforce(dets, gts, W, thr)
                got = average_precision(dets, gts, W, thr)
                assert got == expected

    def test_confidence_rescaling_invariant(self):
        rng = np.random.default_rng(7)
        dets, gts = random_instance(rng)
        base = average_precision(dets, gts, W, 0.5)
        scaled = [FrameDetections(f.timestamp,
                                  [Detection(d.box, d.cls, d.confidence * 0.5)
                                   for d in f.detections])
                  for f in dets]
        assert average_precision(scaled, gts, W, 0.5) == base


class TestMeanAp:
    def test_perfect_detector_all_ones(self):
        gts = [det_frame(0, [((0, 0, 10, 10), P, 1.0), ((30, 0, 8, 8), W, 1.0)]),
               det_frame(1, [((5, 5, 10, 10), P, 1.0), ((20, 20, 8, 8), W, 1.0)])]
        table = mean_ap(gts, gts, (0.5, 0.7, 0.9))
        for cls in (P, W):
            assert all(v == 1.0 for v in table.per_class[cls].values())
            assert table.class_averages[cls] == 1.0
        assert table.overall == 1.0

    def test_empty_detections_all_zero(self):
        gts = [det_frame(0, [((0, 0, 10, 10), P, 1.0), ((30, 0, 8, 8), W, 1.0)])]
        dets = [det_frame(0, [])]
        table = mean_ap(dets, gts, (0.5,))
        assert table.overall == 0.0

    def test_missing_class_excluded_with_warning(self):
        gts = [det_frame(0, [((0, 0, 10, 10), P, 1.0)])]
        with pytest.warns(UserWarning):
            table = mean_ap(gts, gts, (0.5,))
        assert W not in table.per_class
        assert table.overall == 1.0

    def test_duplicated_data_unchanged(self):
        rng = np.random.default_rng(3)
        dets, gts = random_instance(rng)
        doubled_dets = dets + [FrameDetections(f.timestamp + 100, f.detections)
                               for f in dets]
        doubled_gts = gts + [FrameDetections(f.timestamp + 100, f.detections)
                             for f in gts]
        with pytest.warns(UserWarning):
            one = mean_ap(dets, gts, (0.5,))
        with pytest.warns(UserWarning):
            two = mean_ap(doubled_dets, doubled_gts, (0.5,))
        assert one.per_class[W][0.5] == pytest.approx(two.per_class[W][0.5])

    def test_table_shape(self):
        gts = [det_frame(0, [((0, 0, 10, 10), P, 1.0), ((30, 0, 8, 8), W, 1.0)])]
        table = mean_ap(gts, gts, (0.5, 0.7, 0.9))
        assert table.thresholds == (0.5, 0.7, 0.9)
        assert set(table.per_class) == {P, W}
        assert set(table.per_class[P]) == {0.5, 0.7, 0.9}


class TestCountingAccuracy:
    def test_identical(self):
        assert counting_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_one_in_ten(self):
        pred = [1] * 10
        label = [1] * 9 + [2]
        assert counting_accuracy(pred, label) == 0.9

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = list(rng.integers(0, 3, size=50))
        b = list(rng.integers(0, 3, size=50))
        assert counting_accuracy(a, b) == counting_accuracy(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            counting_accuracy([1], [1, 2])


class TestTimeError:
    def test_nursing_row(self):
        # 57m25s predicted vs 52m10s labeled -> 5m15s
        err = time_error(parse_duration("57m25s"), parse_duration("52m10s"))
        assert format_duration(err) == "5m15s"

    def test_interaction_row(self):
        # 13m38s predicted vs 14m10s labeled -> 32s
        err = time_error(parse_duration("13m38s"), parse_duration("14m10s"))
        assert format_duration(err) == "32s"

    def test_equal_inputs(self):
        assert time_error(100.0, 100.0) == 0.0


class TestDurationFormat:
    @pytest.mark.parametrize("text,seconds", [
        ("57m25s", 3445), ("1h28m13s", 5293), ("1h00m21s", 3621),
        ("32s", 32), ("1h30m23s", 5423), ("5m15s", 315),
    ])
    def test_parse_and_reemit(self, text, seconds):
        assert parse_duration(text) == seconds
        assert format_duration(seconds) == text

    def test_bad_string(self):
        with pytest.raises(ValueError):
            parse_duration("later")

    def test_zero(self):
        assert format_duration(0) == "0s"
