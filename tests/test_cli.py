import csv
import gc
import json
import os
import threading
import tracemalloc
import weakref
from collections import Counter

import pytest

import wardflow.boxes
import wardflow.cli
import wardflow.evaluation
import wardflow.frames
import wardflow.pipeline
from wardflow.cli import main
from wardflow.detect import parse_detections_jsonl
from wardflow.frames import load_manifest, load_sequence
from wardflow.pipeline import SessionConfig, analyze_session, joined

SCENARIO = {
    "duration": 8,
    "resolution": [64, 64],
    "noise_sigma_c": 0.0,
    "patient": {"keyframes": [{"t": 0, "box": [10, 20, 24, 30]},
                              {"t": 8, "box": [14, 20, 24, 30]}]},
    "workers": [{"enter": 2, "exit": 6,
                 "keyframes": [{"t": 0, "box": [30, 20, 16, 30]}]}],
}


@pytest.fixture
def session(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    out = tmp_path / "session"
    assert main(["synth", "--scenario", str(scenario_path),
                 "--seed", "3", "--out", str(out)]) == 0
    return out


def run_analyze(session, out, extra=()):
    return main(["analyze", "--manifest", str(session / "manifest.json"),
                 "--dets", str(session / "truth_dets.jsonl"),
                 "--out", str(out), *extra])


class TestSynth:
    def test_outputs(self, session):
        assert (session / "manifest.json").exists()
        assert (session / "truth.json").exists()
        assert len(list(session.glob("frame_*.npy"))) == 8

    def test_deterministic_bytes(self, session, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        out2 = tmp_path / "again"
        assert main(["synth", "--scenario", str(scenario_path),
                     "--seed", "3", "--out", str(out2)]) == 0
        for name in ["manifest.json", "truth_dets.jsonl", "frame_00003.npy"]:
            assert (session / name).read_bytes() == (out2 / name).read_bytes()

    def test_non_finite_keyframe_exit_3(self, tmp_path):
        scenario_path = tmp_path / "nan.json"
        scenario_path.write_text(json.dumps(dict(SCENARIO, patient={
            "keyframes": [{"t": 0, "box": [float("nan"), 20, 24, 30]}]})))
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("change", [
        {"duration": "inf"}, {"duration": "nan"}, {"duration": float("inf")},
        {"resolution": [64.5, 64]}, {"noise_sigma_c": float("nan")}, {"noise_sigma_c": -0.1},
        # a bool is no width, even where every box fits in one column
        {"resolution": [True, 64], "workers": [],
         "patient": {"keyframes": [{"t": 0, "box": [0, 0, 1, 10]}]}},
        {"patient": {"keyframes": [{"t": float("-inf"), "box": [10, 20, 24, 30]},
                                   {"t": 8, "box": [14, 20, 24, 30]}]}},
        {"patient": {"keyframes": [{"t": 0, "box": [10, 20, 24, 30]},
                                   {"t": float("inf"), "box": [14, 20, 24, 30]}]}},
        {"workers": [{"enter": float("nan"), "exit": 6,
                      "keyframes": [{"t": 0, "box": [30, 20, 16, 30]}]}]},
        {"workers": [{"enter": 2, "exit": float("nan"),
                      "keyframes": [{"t": 0, "box": [30, 20, 16, 30]}]}]},
        # a string is no box, though its four characters read as digits
        {"patient": {"keyframes": [{"t": 0, "box": "1234"}]}},
        # a string or a bool is no number, though float() reads one
        {"duration": "8"}, {"body_c": "36"}, {"background_c": "22"}, {"noise_sigma_c": False},
        {"patient": {"keyframes": [{"t": True, "box": [10, 20, 24, 30]}]}},
        {"workers": [{"enter": "2", "exit": 6,
                      "keyframes": [{"t": 0, "box": [30, 20, 16, 30]}]}]},
        {"workers": [{"enter": 0, "exit": True,
                      "keyframes": [{"t": 0, "box": [30, 20, 16, 30]}]}]}])
    def test_malformed_scenario_exit_3(self, tmp_path, change):
        # a declared value is honoured or rejected: a NaN or negative noise
        # is not rendered as no noise, an infinite last keyframe is not
        # ignored and a NaN window does not hide the actor
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(json.dumps(dict(SCENARIO, **change)))
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "o")]) == 3

    def test_missing_scenario_exit_2(self, tmp_path):
        assert main(["synth", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2


class TestAnalyze:
    def test_closed_loop_matches_truth(self, session, tmp_path):
        out = tmp_path / "report"
        assert run_analyze(session, out) == 0
        report = json.loads((out / "report.json").read_text())
        truth = json.loads((session / "truth.json").read_text())
        assert report["per_second_worker_counts"] == truth["worker_counts"]
        assert report["nursing_time_s"] == sum(truth["worker_counts"])
        assert report["interaction_time_s"] == sum(truth["interaction"])
        assert (out / "motion.csv").exists()
        assert (out / "events.csv").exists()
        svg = (out / "activity.svg").read_text()
        assert svg.startswith("<?xml") and "<svg" in svg
        assert (out / "motion.svg").read_text().count("<polyline") >= 2

    def test_deterministic_reports(self, session, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_analyze(session, out1) == 0
        assert run_analyze(session, out2) == 0
        for name in ["report.json", "motion.csv", "events.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_blob_mode(self, tmp_path):
        # separated actors: warm blobs stay distinct, so counts are exact
        scenario = dict(SCENARIO)
        scenario["workers"] = [{"enter": 2, "exit": 6,
                                "keyframes": [{"t": 0, "box": [44, 20, 14, 30]}]}]
        scenario_path = tmp_path / "sep.json"
        scenario_path.write_text(json.dumps(scenario))
        session = tmp_path / "sep_session"
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(session)]) == 0
        out = tmp_path / "blob"
        code = main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--blob", "--bed", "10,20,24,30", "--out", str(out),
                     "--no-motion"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        truth = json.loads((session / "truth.json").read_text())
        assert report["per_second_worker_counts"] == truth["worker_counts"]

    def test_tau_monotonicity(self, session, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_analyze(session, out1, ["--no-motion"]) == 0
        assert run_analyze(session, out2, ["--no-motion", "--tau", "0.5"]) == 0
        lo = json.loads((out1 / "report.json").read_text())["interaction_time_s"]
        hi = json.loads((out2 / "report.json").read_text())["interaction_time_s"]
        assert hi <= lo

    def test_empty_detections_ok(self, session, tmp_path):
        dets = tmp_path / "empty.jsonl"
        dets.write_text("")
        out = tmp_path / "empty_out"
        code = main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--dets", str(dets), "--out", str(out), "--no-motion"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["nursing_time_s"] == 0
        assert report["interaction_time_s"] == 0

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["analyze", "--manifest", str(tmp_path / "nope.json"),
                     "--blob", "--out", str(tmp_path / "o")]) == 2

    def test_malformed_dets_exit_3(self, session, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json")
        assert main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--dets", str(bad), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("line", [
        '{"t": 0, "dets": 5}', '{"t": 0, "dets": [5]}',
        '{"t": 0, "dets": []}\n{"t": 0, "dets": []}',
        '{"t": 0, "dets": [{"cls": "patient", "box": [NaN, 0, 5, 5]}]}',
        '{"t": 0, "dets": [{"cls": "worker", "box": [0, 0, Infinity, 5]}]}'])
    def test_malformed_dets_entries_exit_3(self, session, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        assert main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--dets", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert main(["eval", "--dets", str(bad), "--gt", str(session / "truth_dets.jsonl"),
                     "--out", str(tmp_path / "e")]) == 3

    @pytest.mark.parametrize("resolution", [5, ["a", "b"], [None, None], [64, 64, 1],
                                            [64, 63], [64.9, 64.5], [64.0, 64]])
    def test_malformed_manifest_resolution_exit_3(self, session, tmp_path, resolution):
        # a size that matches the frames only once truncated is no size
        doc = json.loads((session / "manifest.json").read_text())
        doc["resolution"] = resolution
        manifest = session / "bad_manifest.json"
        manifest.write_text(json.dumps(doc))
        assert main(["analyze", "--manifest", str(manifest), "--dets",
                     str(session / "truth_dets.jsonl"), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("size, declared", [((1, 20), [True, 20]), ((24, 1), [24, True])])
    def test_manifest_resolution_bool_exit_3(self, tmp_path, size, declared):
        # a bool is no size, even on frames one pixel wide or high, where
        # it would match as the number 1
        w, h = size
        scenario = {"duration": 2, "resolution": [w, h], "noise_sigma_c": 0.0,
                    "patient": {"keyframes": [{"t": 0, "box": [0, 0, 1, 1]}]}}
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        session = tmp_path / "session"
        assert main(["synth", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(session)]) == 0
        doc = json.loads((session / "manifest.json").read_text())
        doc["resolution"] = declared
        (session / "manifest.json").write_text(json.dumps(doc))
        assert main(["analyze", "--manifest", str(session / "manifest.json"), "--dets",
                     str(session / "truth_dets.jsonl"), "--no-motion",
                     "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dt", [None, [1], "abc", float("nan"), float("inf"), "2", True])
    def test_malformed_manifest_dt_exit_3(self, session, tmp_path, dt):
        doc = json.loads((session / "manifest.json").read_text())
        doc["dt"] = dt
        manifest = session / "bad_manifest.json"
        manifest.write_text(json.dumps(doc))
        assert main(["analyze", "--manifest", str(manifest), "--dets",
                     str(session / "truth_dets.jsonl"), "--out", str(tmp_path / "o")]) == 3

    def test_overflowing_total_exit_4(self, session, tmp_path):
        # a finite dt whose nursing total overflows: no "Infinity" is written
        doc = json.loads((session / "manifest.json").read_text())
        doc["dt"] = 1e308
        manifest = session / "bad_manifest.json"
        manifest.write_text(json.dumps(doc))
        assert main(["analyze", "--manifest", str(manifest), "--dets",
                     str(session / "truth_dets.jsonl"), "--out", str(tmp_path / "o")]) == 4
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t", [float("nan"), "nan", float("inf"), -1.0, 1e308, "7"])
    @pytest.mark.parametrize("source", ["dets", "blob"])
    def test_malformed_manifest_time_exit_3(self, session, tmp_path, t, source):
        doc = json.loads((session / "manifest.json").read_text())
        doc["frames"][-1]["t"] = t
        manifest = session / "bad_manifest.json"
        manifest.write_text(json.dumps(doc))
        detector = ["--dets", str(session / "truth_dets.jsonl")] if source == "dets" else ["--blob"]
        assert main(["analyze", "--manifest", str(manifest), *detector,
                     "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    def test_frames_sharing_a_time_key_exit_3(self, session, tmp_path):
        # 1.0 and 1.0000001 are one microsecond key, so the one worker line
        # at t=1 would count for both frames
        doc = json.loads((session / "manifest.json").read_text())
        doc["frames"] = doc["frames"][:3]
        doc["frames"][2]["t"] = 1.0000001
        manifest = session / "bad_manifest.json"
        manifest.write_text(json.dumps(doc))
        dets = tmp_path / "one.jsonl"
        dets.write_text('{"t": 1, "dets": [{"cls": "worker", "box": [30, 20, 16, 30]}]}\n')
        assert main(["analyze", "--manifest", str(manifest), "--dets", str(dets),
                     "--no-motion", "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    def test_riker_groups_in_report(self, session, tmp_path):
        riker = tmp_path / "riker.csv"
        riker.write_text("t,score\n4,3\n")
        assert run_analyze(session, tmp_path / "o", ["--riker", str(riker),
                                                     "--riker-window", "10"]) == 0
        (group,) = json.loads((tmp_path / "o" / "report.json").read_text())["riker"]
        assert (group["score"], group["n"]) == (3, 1)

    def test_riker_header_only_without_newline_ok(self, session, tmp_path):
        # one line of CSV text is still CSV text, not a file name
        riker = tmp_path / "riker.csv"
        riker.write_text("t,score")
        assert run_analyze(session, tmp_path / "o", ["--no-motion", "--riker", str(riker)]) == 0
        assert json.loads((tmp_path / "o" / "report.json").read_text())["riker"] == []

    def test_empty_riker_file_exit_3(self, session, tmp_path):
        riker = tmp_path / "riker.csv"
        riker.write_text("")
        assert run_analyze(session, tmp_path / "o", ["--no-motion", "--riker", str(riker)]) == 3

    def test_frames_below_expansion_window_exit_4_without_patient(self, tmp_path):
        # no pair needs flow here, but motion on frames this small is still a
        # configuration error
        scenario = {"duration": 3, "resolution": [4, 4], "noise_sigma_c": 0.0,
                    "patient": {"keyframes": [{"t": 0, "box": [1, 1, 2, 2]}]}}
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(json.dumps(scenario))
        session = tmp_path / "tiny"
        assert main(["synth", "--scenario", str(scenario_path), "--out", str(session)]) == 0
        dets = tmp_path / "no_patient.jsonl"
        dets.write_text("".join(f'{{"t": {t}, "dets": []}}\n' for t in range(3)))
        assert main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--dets", str(dets), "--out", str(tmp_path / "o")]) == 4

    def test_manifest_dt_scales_times(self, tmp_path):
        scenario = dict(SCENARIO, duration=4, workers=[
            {"keyframes": [{"t": 0, "box": [30, 20, 16, 30]}]}])
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario))
        session = tmp_path / "session"
        assert main(["synth", "--scenario", str(scenario_path), "--out", str(session)]) == 0
        doc = json.loads((session / "manifest.json").read_text())
        doc["dt"] = 0.5
        (session / "manifest.json").write_text(json.dumps(doc))
        assert run_analyze(session, tmp_path / "o", ["--no-motion"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["per_second_worker_counts"] == [1, 1, 1, 1]
        assert report["nursing_time_s"] == 2.0
        assert report["interaction_time_s"] == 2.0

    def test_bad_config_exit_4(self, session, tmp_path):
        assert run_analyze(session, tmp_path / "o", ["--alpha", "1.5"]) == 4
        assert run_analyze(session, tmp_path / "o", ["--tau", "-1"]) == 4

    @pytest.mark.parametrize("option", ["--tau=nan", "--tau=inf", "--riker-window=nan",
                                        "--riker-window=inf", "--riker-window=0",
                                        "--alpha=nan", "--window=nan,40", "--window=20,inf"])
    def test_non_finite_setting_exit_4(self, session, tmp_path, option):
        assert run_analyze(session, tmp_path / "o", ["--no-motion", option]) == 4
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["--blob-min-temp=nan", "--blob-min-area=nan",
                                        "--blob-min-area=inf", "--bed=nan,0,5,5",
                                        "--bed=0,0,inf,5", "--bed=0,0,5"])
    def test_non_finite_blob_setting_exit_4(self, session, tmp_path, option):
        assert main(["analyze", "--manifest", str(session / "manifest.json"), "--blob",
                     "--no-motion", option, "--out", str(tmp_path / "o")]) == 4
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_riker_time_exit_3(self, session, tmp_path, t):
        riker = tmp_path / "riker.csv"
        riker.write_text(f"t,score\n{t},3\n")
        assert run_analyze(session, tmp_path / "o", ["--no-motion", "--riker", str(riker)]) == 3

    @pytest.mark.parametrize("change", [
        {"t": 1e308},                                                 # no microsecond key
        {"t": 10**400},                                               # no float at all
        {"dets": [{"cls": "patient", "box": [4, 4, 10**400, 5]}]},
        {"dets": [{"cls": ["patient"], "box": [4, 4, 5, 5]}]},        # unhashable class
        {"dets": [{"cls": "patient", "box": [4, 4, 5e-324, 5e-324]},  # an area of 0
                  {"cls": "worker", "box": [0, 0, 20, 20]}]},
        {"dets": [{"cls": "worker", "box": "1234"}]},                 # not four digits
        {"dets": [{"cls": "worker", "box": [True, 2, 3, 4]}]},        # a bool is no number
        {"t": True}, {"t": "1"},                                      # nor is a string
        {"dets": [{"cls": "worker", "conf": "0.9", "box": [4, 4, 5, 5]}]},
        {"dets": [{"cls": "worker", "conf": True, "box": [4, 4, 5, 5]}]},
    ])
    def test_malformed_detection_exit_3(self, session, tmp_path, change):
        # each of these ended in a traceback, or was read as a number, before;
        # the line edited is t=1, so a true read as 1 repeats no time
        lines = (session / "truth_dets.jsonl").read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), **change})
        dets = tmp_path / "bad.jsonl"
        dets.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--dets", str(dets), "--out", str(tmp_path / "a")]) == 3
        assert main(["eval", "--dets", str(dets), "--gt", str(session / "truth_dets.jsonl"),
                     "--out", str(tmp_path / "e")]) == 3

    def test_detections_outside_frame_warn(self, session, tmp_path):
        lines = []
        for line in (session / "truth_dets.jsonl").read_text().splitlines():
            obj = json.loads(line)
            if obj["t"] in (2.0, 5.0):
                obj["dets"].append({"cls": "worker", "conf": 0.9, "box": [70, 10, 5, 5]})
            lines.append(json.dumps(obj))
        dets = tmp_path / "outside.jsonl"
        dets.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match=r"2 detections lie wholly outside .* t=2\.0"):
            assert main(["analyze", "--manifest", str(session / "manifest.json"),
                         "--dets", str(dets), "--no-motion", "--out", str(tmp_path / "a")]) == 0
        assert run_analyze(session, tmp_path / "b", ["--no-motion"]) == 0
        assert ((tmp_path / "a" / "report.json").read_bytes()
                == (tmp_path / "b" / "report.json").read_bytes())


def small_session(tmp_path, frames, absent=()):
    """A session of `frames` seconds at 64x48 whose detections drop the
    patient in the `absent` seconds."""
    scenario = {"duration": frames, "resolution": [64, 48], "noise_sigma_c": 0.2,
                "patient": {"keyframes": [{"t": 0, "box": [10, 10, 20, 26]},
                                          {"t": frames, "box": [16, 12, 20, 26]}]},
                "workers": [{"enter": 2, "keyframes": [{"t": 0, "box": [26, 8, 14, 30]}]}]}
    scenario_path = tmp_path / f"scenario{frames}.json"
    scenario_path.write_text(json.dumps(scenario))
    session = tmp_path / f"session{frames}"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(session)]) == 0
    lines = []
    for line in (session / "truth_dets.jsonl").read_text().splitlines():
        obj = json.loads(line)
        if obj["t"] in absent:
            obj["dets"] = [d for d in obj["dets"] if d["cls"] != "patient"]
        lines.append(json.dumps(obj))
    (session / "dets.jsonl").write_text("\n".join(lines) + "\n")
    return session


class LiveCount:
    """How many tracked objects are alive, and the most at once."""

    def __init__(self):
        self.alive = self.peak = 0

    def track(self, obj):
        # a pyramid is a list, which takes no weak reference; its finest
        # level lives exactly as long
        self.alive += 1
        self.peak = max(self.peak, self.alive)
        weakref.finalize(obj[0] if isinstance(obj, list) else obj, self._drop)
        return obj

    def _drop(self):
        self.alive -= 1


# The frame-size rule on each side of small_session's 64x48 frames: with
# more than one core, its pairs run on the calling thread under the first
# value and on the pool under the second.
PATHS = {"inline": 64 * 48 + 1, "pooled": 64 * 48}


class TestStreamingEngine:
    def test_pool_size_does_not_change_outputs(self, tmp_path, monkeypatch):
        session = small_session(tmp_path, 12, absent={0, 1, 5, 6, 11})
        outputs = []
        for path, pool_min in PATHS.items():
            monkeypatch.setattr(wardflow.pipeline, "_POOL_MIN_PIXELS", pool_min)
            for size in (1, 4):
                monkeypatch.setattr(os, "cpu_count", lambda: size)
                out = tmp_path / f"{path}{size}"
                assert main(["analyze", "--manifest", str(session / "manifest.json"),
                             "--dets", str(session / "dets.jsonl"), "--out", str(out)]) == 0
                outputs.append([(out / name).read_bytes() for name in ("report.json", "motion.csv")])
        assert all(output == outputs[0] for output in outputs)
        report = json.loads(outputs[0][0])
        assert report["gaps"] == [0.0, 1.0, 5.0, 6.0, 11.0]
        assert sum(s["raw"] > 0 for s in report["motion"]) == 7

    def test_frame_size_and_cores_choose_inline_or_pool(self, tmp_path, monkeypatch):
        # Below the size rule, or on one core, every pair runs on this thread
        # and the pool starts no thread; otherwise the pool runs them.
        assert 96 * 72 < wardflow.pipeline._POOL_MIN_PIXELS <= 384 * 288
        session = small_session(tmp_path, 12, absent={5})
        pair_motion = wardflow.pipeline.pair_motion
        ran_on = []  # (on this thread, threads alive) per pair

        def recorded(*args):
            ran_on.append((threading.current_thread() is threading.main_thread(),
                           threading.active_count()))
            return pair_motion(*args)

        monkeypatch.setattr(wardflow.pipeline, "pair_motion", recorded)
        outputs = []
        for path, pool_min, size in [("default", wardflow.pipeline._POOL_MIN_PIXELS, 2),
                                     ("one core", PATHS["pooled"], 1),
                                     ("pooled", PATHS["pooled"], 2)]:
            monkeypatch.setattr(wardflow.pipeline, "_POOL_MIN_PIXELS", pool_min)
            monkeypatch.setattr(os, "cpu_count", lambda: size)
            ran_on.clear()
            threads = threading.active_count()
            out = tmp_path / path
            assert main(["analyze", "--manifest", str(session / "manifest.json"),
                         "--dets", str(session / "dets.jsonl"), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("report.json", "motion.csv")])
            assert len(ran_on) == 10, path
            if path == "pooled":
                assert not any(here for here, _ in ran_on)
            else:
                assert ran_on == [(True, threads)] * 10, path
        assert outputs[0] == outputs[1] == outputs[2]

    def test_peak_memory_flat_in_session_length(self, tmp_path, monkeypatch):
        # Working memory is bounded by the pool, not the session length.
        # The patient is away for most of the long session so the test stays
        # quick; its frames are still read, and would pile up if held.
        sessions = {}
        for frames, absent in ((60, ()), (600, range(60, 540))):
            session = small_session(tmp_path, frames, absent=set(absent))
            sessions[frames] = (session, load_manifest(session / "manifest.json"),
                                parse_detections_jsonl((session / "dets.jsonl").read_text(),
                                                       (64, 48)))

        def analyze(frames):
            session, manifest, dets = sessions[frames]
            report = analyze_session(joined(load_sequence(manifest, session), manifest.frames,
                                            dets), SessionConfig())
            assert len(report.motion) == frames - 1

        # On one core each pair runs on this thread before the next frame is
        # read, so the traced peak compares bytes: only the motion series may
        # grow.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        peaks = []
        for frames in sessions:
            gc.collect()
            tracemalloc.start()
            try:
                analyze(frames)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

        # On more threads the pool's timing moves the bytes, so count the
        # whole pyramids and frames alive at once: a pair in flight holds the
        # whole pyramid it warps and only the cone of the one before, this
        # thread the pyramid it builds, and the frame pair being read.
        expand, read = wardflow.pipeline.expand_pyramid, wardflow.frames.read_npy_frame
        for path, pool_min in PATHS.items():
            monkeypatch.setattr(wardflow.pipeline, "_POOL_MIN_PIXELS", pool_min)
            for size in (2, 4):
                monkeypatch.setattr(os, "cpu_count", lambda: size)
                alive = []
                for frames in sessions:
                    pyramids, images = LiveCount(), LiveCount()
                    monkeypatch.setattr(wardflow.pipeline, "expand_pyramid",
                                        lambda *args: pyramids.track(expand(*args)))
                    monkeypatch.setattr(wardflow.frames, "read_npy_frame",
                                        lambda *args: images.track(read(*args)))
                    analyze(frames)
                    alive.append((pyramids.peak, images.peak))
                assert alive[0] == alive[1], (path, size)
                most = size if path == "pooled" else 1
                assert alive[0][0] <= most and alive[0][1] <= 3, (path, size, alive[0])

    def test_peeked_frame_is_freed_once_read(self, tmp_path):
        # the stream that reads the resolution off the first frame holds
        # that frame only until it is handed on
        session = small_session(tmp_path, 3)
        frames = load_sequence(load_manifest(session / "manifest.json"), session)
        resolution, stream = wardflow.cli._peek_resolution(frames)
        assert resolution == (64, 48)
        first = weakref.ref(next(stream))
        assert next(stream).timestamp == 1.0
        gc.collect()
        assert first() is None

    def test_gap_samples_settle_within_the_pool(self, tmp_path, monkeypatch):
        # a run of gaps queues no sample per frame: each gap is relaxed
        # within a pool's worth of frames of its frame being read
        size = 2
        monkeypatch.setattr(os, "cpu_count", lambda: size)
        session = small_session(tmp_path, 40, absent=set(range(5, 35)))
        manifest = load_manifest(session / "manifest.json")
        dets = parse_detections_jsonl((session / "dets.jsonl").read_text(), (64, 48))
        relax = wardflow.pipeline.relax
        for pool_min in PATHS.values():
            monkeypatch.setattr(wardflow.pipeline, "_POOL_MIN_PIXELS", pool_min)
            read = []

            def frames():
                for frame in load_sequence(manifest, session):
                    read.append(frame.timestamp)
                    yield frame

            relaxed_after = {}  # timestamp -> frames read when its sample was relaxed

            def recorded(prev, timestamp, raw, alpha):
                relaxed_after[timestamp] = len(read)
                return relax(prev, timestamp, raw, alpha)

            monkeypatch.setattr(wardflow.pipeline, "relax", recorded)
            report = analyze_session(joined(frames(), manifest.frames, dets), SessionConfig())
            gaps = [s.timestamp for s in report.motion if s.gap]
            assert gaps == [float(t) for t in range(5, 35)]
            for t in gaps:
                assert relaxed_after[t] <= read.index(t) + 1 + size, (pool_min, t)

    def test_truncated_frame_exits_3_and_stops_the_pool(self, tmp_path, monkeypatch):
        session = small_session(tmp_path, 40)
        frame = session / "frame_00030.npy"
        frame.write_bytes(frame.read_bytes()[:-100])
        for path, pool_min in PATHS.items():
            monkeypatch.setattr(wardflow.pipeline, "_POOL_MIN_PIXELS", pool_min)
            threads = threading.active_count()
            out = tmp_path / path
            assert main(["analyze", "--manifest", str(session / "manifest.json"),
                         "--dets", str(session / "dets.jsonl"), "--out", str(out)]) == 3
            assert not (out / "report.json").exists()
            assert threading.active_count() == threads

    @pytest.mark.parametrize("source", [["--dets", "dets.jsonl"], ["--blob", "--no-motion"]])
    def test_each_frame_read_once(self, tmp_path, monkeypatch, source):
        session = small_session(tmp_path, 10)
        reads = Counter()
        read = wardflow.frames.read_npy_frame

        def counted(data, timestamp):
            reads[timestamp] += 1
            return read(data, timestamp)

        monkeypatch.setattr(wardflow.frames, "read_npy_frame", counted)
        argv = [str(session / a) if a.endswith(".jsonl") else a for a in source]
        assert main(["analyze", "--manifest", str(session / "manifest.json"), *argv,
                     "--out", str(tmp_path / "o")]) == 0
        assert reads == Counter(float(t) for t in range(10))


@pytest.fixture
def tenth_session(tmp_path):
    """10 frames at t = k * 0.1 with dt 0.1, all with interaction, and
    detections stamped 3e-7 s after each frame (inside the join's microsecond)."""
    scenario = dict(SCENARIO, duration=10, workers=[
        {"keyframes": [{"t": 0, "box": [30, 20, 16, 30]}]}])
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    session = tmp_path / "tenth"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(session)]) == 0
    doc = json.loads((session / "manifest.json").read_text())
    doc["dt"] = 0.1
    for k, entry in enumerate(doc["frames"]):
        entry["t"] = k * 0.1
    (session / "manifest.json").write_text(json.dumps(doc))
    truth, shifted = [], []
    for k, line in enumerate((session / "truth_dets.jsonl").read_text().splitlines()):
        obj = json.loads(line)
        truth.append(json.dumps(dict(obj, t=k * 0.1)))
        shifted.append(json.dumps(dict(obj, t=k * 0.1 + 3e-7)))
    (session / "gt.jsonl").write_text("\n".join(truth) + "\n")
    (session / "dets.jsonl").write_text("\n".join(shifted) + "\n")
    return session


class TestPerSecondRule:
    def test_activity_chart_plots_joined_interaction(self, tenth_session, tmp_path,
                                                     monkeypatch):
        charts = []
        monkeypatch.setattr(wardflow.cli, "render_chart",
                            lambda panels: charts.append(panels) or "<svg/>")
        assert main(["analyze", "--manifest", str(tenth_session / "manifest.json"),
                     "--dets", str(tenth_session / "dets.jsonl"), "--no-motion",
                     "--out", str(tmp_path / "o")]) == 0
        (activity,) = charts
        assert activity[0].series[0].ys == [1.0] * 10
        assert activity[1].series[0].ys == [1.0] * 10

    def test_analyze_and_eval_agree_on_interaction_seconds(self, tenth_session, tmp_path):
        assert main(["analyze", "--manifest", str(tenth_session / "manifest.json"),
                     "--dets", str(tenth_session / "dets.jsonl"), "--no-motion",
                     "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert len(report["events"]) == 10
        assert main(["eval", "--dets", str(tenth_session / "dets.jsonl"),
                     "--gt", str(tenth_session / "gt.jsonl"), "--dt", "0.1",
                     "--out", str(tmp_path / "e")]) == 0
        doc = json.loads((tmp_path / "e" / "eval.json").read_text())
        assert report["interaction_time_s"] == 1.0
        assert doc["interaction_time"]["predicted_s"] == 1.0
        assert doc["interaction_time"]["label_s"] == 1.0

    def test_unmatched_detections_warn(self, session, tmp_path):
        dets = tmp_path / "extra.jsonl"
        dets.write_text((session / "truth_dets.jsonl").read_text()
                        + '{"t": 99.5, "dets": []}\n')
        with pytest.warns(UserWarning, match=r"1 detection frames .* t=99\.5"):
            assert main(["analyze", "--manifest", str(session / "manifest.json"),
                         "--dets", str(dets), "--no-motion", "--out", str(tmp_path / "a")]) == 0
        with pytest.warns(UserWarning, match=r"1 detection frames .* t=99\.5"):
            assert main(["eval", "--dets", str(dets),
                         "--gt", str(session / "truth_dets.jsonl"),
                         "--out", str(tmp_path / "e")]) == 0


class TestEval:
    def test_perfect_predictions(self, session, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--dets", str(session / "truth_dets.jsonl"),
                     "--gt", str(session / "truth_dets.jsonl"),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "eval.json").read_text())
        assert doc["map_overall"] == 1.0
        assert doc["worker_counting_accuracy"] == 1.0
        assert doc["interaction_counting_accuracy"] == 1.0
        assert doc["nursing_time"]["error_s"] == 0.0
        map_csv = (out / "map.csv").read_text().splitlines()
        assert map_csv[0] == "metric,patient,worker,overall"
        assert map_csv[1].startswith("mAP@0.5,")
        assert map_csv[-1].startswith("average,")
        for name in ["accuracy.csv", "nursing_time.csv", "interaction_time.csv"]:
            assert (out / name).exists()

    def test_shifted_predictions_zero_at_high_iou(self, session, tmp_path):
        shifted = tmp_path / "shifted.jsonl"
        lines = []
        for line in (session / "truth_dets.jsonl").read_text().splitlines():
            obj = json.loads(line)
            for d in obj["dets"]:
                d["box"][0] += 50.0
            lines.append(json.dumps(obj))
        shifted.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        code = main(["eval", "--dets", str(shifted),
                     "--gt", str(session / "truth_dets.jsonl"),
                     "--thresholds", "0.9", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "eval.json").read_text())
        assert doc["map_overall"] == 0.0

    @pytest.mark.parametrize("option", ["--tau=nan", "--tau=inf", "--dt=0", "--dt=-1",
                                        "--dt=nan", "--dt=inf", "--conf-min=nan"])
    def test_bad_setting_exit_4(self, session, tmp_path, option):
        # the same SessionConfig check as analyze
        assert main(["eval", "--dets", str(session / "truth_dets.jsonl"),
                     "--gt", str(session / "truth_dets.jsonl"), option,
                     "--out", str(tmp_path / "o")]) == 4
        assert not (tmp_path / "o").exists()

    def test_map_columns_hold_without_a_class(self, session, tmp_path):
        # with no patient in the ground truth the patient cells stay empty,
        # so the worker AP and the overall keep their own columns
        workers = tmp_path / "workers.jsonl"
        lines = []
        for line in (session / "truth_dets.jsonl").read_text().splitlines():
            obj = json.loads(line)
            obj["dets"] = [d for d in obj["dets"] if d["cls"] == "worker"]
            lines.append(json.dumps(obj))
        workers.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        with pytest.warns(UserWarning, match="no ground truth for class patient"):
            assert main(["eval", "--dets", str(workers), "--gt", str(workers),
                         "--thresholds", "0.5,0.75", "--out", str(out)]) == 0
        assert (out / "map.csv").read_text().splitlines() == [
            "metric,patient,worker,overall",
            "mAP@0.5,,1.0000,",
            "mAP@0.75,,1.0000,",
            "average,,1.0000,1.0000",
        ]
        assert json.loads((out / "eval.json").read_text())["map"] == {
            "worker": {"0.5": 1.0, "0.75": 1.0}}

    def test_joins_the_two_files_once(self, session, tmp_path, monkeypatch):
        calls = []
        join = wardflow.boxes.match_detections

        def counted(*args):
            calls.append(args)
            return join(*args)

        for module in (wardflow.boxes, wardflow.cli, wardflow.evaluation, wardflow.pipeline):
            if getattr(module, "match_detections", None) is join:
                monkeypatch.setattr(module, "match_detections", counted)
        assert main(["eval", "--dets", str(session / "truth_dets.jsonl"),
                     "--gt", str(session / "truth_dets.jsonl"), "--out", str(tmp_path / "e")]) == 0
        assert len(calls) == 1

    def test_name_with_a_comma_keeps_its_cell(self, session, tmp_path):
        name = 'ward 3, bed "2"'
        out = tmp_path / "e"
        assert main(["eval", "--dets", str(session / "truth_dets.jsonl"),
                     "--gt", str(session / "truth_dets.jsonl"), "--name", name,
                     "--out", str(out)]) == 0
        for file in ["accuracy.csv", "nursing_time.csv", "interaction_time.csv"]:
            with open(out / file, newline="") as f:
                header, *rows = csv.reader(f)
            assert rows and all(len(row) == len(header) for row in rows), file
            assert [row[0] for row in rows] == [name], file

    def test_bad_thresholds_exit_4(self, session, tmp_path):
        assert main(["eval", "--dets", str(session / "truth_dets.jsonl"),
                     "--gt", str(session / "truth_dets.jsonl"),
                     "--thresholds", "1.5", "--out", str(tmp_path / "o")]) == 4
