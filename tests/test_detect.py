import numpy as np
import pytest

from oracles import flood_components
from wardflow.boxes import BoundingBox, ObjectClass
from wardflow.detect import blob_detect, detections_to_jsonl, parse_detections_jsonl
from wardflow.errors import FormatError
from wardflow.frames import ThermalFrame


class TestParseDetectionsJsonl:
    def test_single_patient(self):
        frames = parse_detections_jsonl(
            '{"t":0,"dets":[{"cls":"patient","conf":0.99,"box":[10,10,50,80]}]}')
        assert len(frames) == 1
        assert len(frames[0].patients()) == 1
        assert len(frames[0].workers()) == 0
        assert frames[0].detections[0].box == BoundingBox(10, 10, 50, 80)

    def test_empty_dets_valid(self):
        frames = parse_detections_jsonl('{"t":5,"dets":[]}')
        assert frames[0].timestamp == 5.0
        assert frames[0].detections == []

    def test_unknown_class_carries_line_number(self):
        text = ('{"t":0,"dets":[]}\n'
                '{"t":1,"dets":[{"cls":"visitor","conf":0.5,"box":[1,1,2,2]}]}')
        with pytest.raises(FormatError) as err:
            parse_detections_jsonl(text)
        assert err.value.line == 2

    def test_malformed_json_carries_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_detections_jsonl('{"t":0,"dets":[]}\n{oops')
        assert err.value.line == 2

    @pytest.mark.parametrize("second", ["2", "2.0", "2.0000001"])
    def test_repeated_timestamp_names_both_lines(self, second):
        text = f'{{"t":2,"dets":[]}}\n{{"t":3,"dets":[]}}\n{{"t":{second},"dets":[]}}'
        with pytest.raises(FormatError, match="repeats line 1") as err:
            parse_detections_jsonl(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-1"])
    def test_non_finite_or_negative_timestamp_rejected(self, t):
        with pytest.raises(FormatError) as err:
            parse_detections_jsonl(f'{{"t":{t},"dets":[]}}')
        assert err.value.line == 1

    @pytest.mark.parametrize("box", ["[NaN,0,5,5]", "[0,0,Infinity,5]", "[0,-Infinity,5,5]"])
    def test_non_finite_box_rejected(self, box):
        with pytest.raises(FormatError, match="finite") as err:
            parse_detections_jsonl(f'{{"t":0,"dets":[{{"cls":"patient","box":{box}}}]}}')
        assert err.value.line == 1

    def test_sorted_by_timestamp(self):
        text = '{"t":2,"dets":[]}\n{"t":0,"dets":[]}\n{"t":1,"dets":[]}'
        frames = parse_detections_jsonl(text)
        assert [f.timestamp for f in frames] == [0.0, 1.0, 2.0]

    def test_conf_defaults_to_one(self):
        frames = parse_detections_jsonl('{"t":0,"dets":[{"cls":"worker","box":[0,0,5,5]}]}')
        assert frames[0].detections[0].confidence == 1.0

    def test_boxes_clamped_to_resolution(self):
        frames = parse_detections_jsonl(
            '{"t":0,"dets":[{"cls":"worker","conf":1,"box":[90,90,50,50]}]}',
            resolution=(100, 100))
        assert frames[0].detections[0].box == BoundingBox(90, 90, 10, 10)

    def test_fully_outside_box_dropped(self):
        with pytest.warns(UserWarning, match=r"1 detections lie wholly outside .* t=0\.0"):
            frames = parse_detections_jsonl(
                '{"t":0,"dets":[{"cls":"worker","conf":1,"box":[200,200,5,5]}]}',
                resolution=(100, 100))
        assert frames[0].detections == []

    def test_dropped_boxes_counted_with_earliest_time(self):
        text = ('{"t":3,"dets":[{"cls":"worker","box":[-9,0,5,5]}]}\n'
                '{"t":1,"dets":[{"cls":"patient","box":[0,0,5,5]},'
                '{"cls":"worker","box":[0,100,5,5]},{"cls":"worker","box":[100,0,5,5]}]}\n')
        with pytest.warns(UserWarning, match=r"^3 detections .* the first at t=1\.0$"):
            frames = parse_detections_jsonl(text, resolution=(100, 100))
        assert [len(f.detections) for f in frames] == [1, 0]

    def test_roundtrip(self):
        text = ('{"t": 0.0, "dets": [{"cls": "patient", "conf": 0.75, '
                '"box": [1.0, 2.0, 3.0, 4.0]}]}\n')
        assert detections_to_jsonl(parse_detections_jsonl(text)) == text


def make_frame(temps):
    return ThermalFrame(np.asarray(temps, dtype=float))


class TestBlobDetect:
    def test_cold_frame_empty(self):
        frame = make_frame(np.full((20, 20), 22.0))
        assert blob_detect(frame, min_temp=30.0) == []

    def test_single_block_exact(self):
        temps = np.full((40, 40), 22.0)
        temps[10:30, 5:25] = 36.0
        dets = blob_detect(make_frame(temps), min_temp=30.0)
        assert len(dets) == 1
        assert dets[0].box == BoundingBox(5, 10, 20, 20)
        assert dets[0].confidence == 1.0

    def test_two_blobs_match_flood_fill(self):
        temps = np.full((32, 32), 22.0)
        temps[2:8, 2:8] = 36.0
        temps[20:30, 15:28] = 37.0
        dets = blob_detect(make_frame(temps), min_temp=30.0)
        comps = flood_components(temps >= 30.0)
        assert len(dets) == len(comps) == 2
        expected = set()
        for pixels in comps:
            rows = [r for r, _ in pixels]
            cols = [c for _, c in pixels]
            expected.add((min(cols), min(rows),
                          max(cols) - min(cols) + 1, max(rows) - min(rows) + 1))
        got = {(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets}
        assert got == expected

    def test_component_count_matches_oracle_on_random_masks(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mask = rng.random((24, 24)) < 0.3
            temps = np.where(mask, 36.0, 22.0)
            dets = blob_detect(make_frame(temps), min_temp=30.0)
            assert len(dets) == len(flood_components(mask))

    def test_boxes_within_frame(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mask = rng.random((16, 24)) < 0.4
            temps = np.where(mask, 36.0, 22.0)
            for det in blob_detect(make_frame(temps), min_temp=30.0):
                assert det.box.x >= 0 and det.box.y >= 0
                assert det.box.right <= 24 and det.box.bottom <= 16

    def test_min_area_filters(self):
        temps = np.full((20, 20), 22.0)
        temps[1, 1] = 36.0          # single pixel
        temps[10:14, 10:14] = 36.0  # 16 pixels
        dets = blob_detect(make_frame(temps), min_temp=30.0, min_area=4)
        assert len(dets) == 1
        assert dets[0].box.w == 4

    def test_bed_region_assigns_patient(self):
        temps = np.full((40, 60), 22.0)
        temps[5:15, 5:15] = 36.0    # near bed
        temps[25:35, 45:55] = 36.0  # far corner
        bed = BoundingBox(0, 0, 20, 20)
        dets = blob_detect(make_frame(temps), min_temp=30.0, bed_region=bed)
        by_cls = {d.cls: d for d in dets}
        assert by_cls[ObjectClass.PATIENT].box.x == 5
        assert by_cls[ObjectClass.WORKER].box.x == 45

    def test_fill_ratio_confidence(self):
        temps = np.full((20, 20), 22.0)
        # L-shape: 3x3 block plus a 3-pixel arm -> 12 of 6x3=18 box pixels
        temps[2:5, 2:5] = 36.0
        temps[5:8, 2] = 36.0
        dets = blob_detect(make_frame(temps), min_temp=30.0)
        assert len(dets) == 1
        assert dets[0].confidence == pytest.approx(12 / 18)
