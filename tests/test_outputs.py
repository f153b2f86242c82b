"""Every file `analyze` and `eval` write, byte for byte, against the
line-by-line formatting in `oracles.py`."""

import json

import pytest

from oracles import analyze_files, eval_files
from wardflow.analytics import read_riker_csv
from wardflow.boxes import BoundingBox, FrameDetections
from wardflow.cli import main
from wardflow.detect import blob_detect, parse_detections_jsonl
from wardflow.evaluation import DEFAULT_IOU_THRESHOLDS
from wardflow.frames import load_manifest, load_sequence
from wardflow.pipeline import SessionConfig, analyze_session, joined

SCENARIO = {"duration": 10, "resolution": [64, 48], "noise_sigma_c": 0.2,
            "patient": {"keyframes": [{"t": 0, "box": [10, 10, 20, 26]},
                                      {"t": 10, "box": [16, 12, 20, 26]}]},
            "workers": [{"enter": 2, "exit": 8,
                         "keyframes": [{"t": 0, "box": [26, 8, 14, 30]}]}]}
GAP = (3.0, 8.0)  # seconds whose detections lose the patient
RIKER = "t,score\n2,3\n7,5\n"


@pytest.fixture
def session(tmp_path):
    """A synthetic session whose detections have interaction events, two
    patient gaps, shifted and less confident boxes on odd seconds, and
    one line that matches no frame."""
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    session = tmp_path / "session"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(session)]) == 0
    lines = []
    for line in (session / "truth_dets.jsonl").read_text().splitlines():
        obj = json.loads(line)
        if obj["t"] in GAP:
            obj["dets"] = [d for d in obj["dets"] if d["cls"] != "patient"]
        if int(obj["t"]) % 2:
            for d in obj["dets"]:
                d["box"][0] += 1.5
                d["conf"] = 0.8
        lines.append(json.dumps(obj))
    lines.append(json.dumps({"t": 99.5, "dets": [{"cls": "worker", "box": [1, 1, 4, 4]}]}))
    (session / "dets.jsonl").write_text("\n".join(lines) + "\n")
    (session / "riker.csv").write_text(RIKER)
    return session


def written(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def encoded(files):
    return {name: text.encode() for name, text in files.items()}


def test_analyze_dets_files(session, tmp_path):
    out = tmp_path / "a"
    with pytest.warns(UserWarning, match=r"1 detection frames .* t=99\.5"):
        assert main(["analyze", "--manifest", str(session / "manifest.json"),
                     "--dets", str(session / "dets.jsonl"), "--riker",
                     str(session / "riker.csv"), "--riker-window", "3",
                     "--out", str(out)]) == 0
    manifest = load_manifest(session / "manifest.json")
    with pytest.warns(UserWarning, match=r"1 detection frames .* t=99\.5"):
        report = analyze_session(
            joined(load_sequence(manifest, session), manifest.frames,
                   parse_detections_jsonl((session / "dets.jsonl").read_text(), (64, 48))),
            SessionConfig(riker_window=3.0), read_riker_csv(RIKER))
    assert report.events and report.riker and report.gaps == list(GAP)
    files = written(out)
    assert len(files) == 5
    assert files == encoded(analyze_files(report, [e.timestamp for e in manifest.frames]))


def test_analyze_blob_files(session, tmp_path):
    out = tmp_path / "b"
    assert main(["analyze", "--manifest", str(session / "manifest.json"), "--blob",
                 "--bed", "10,10,20,26", "--out", str(out)]) == 0
    manifest = load_manifest(session / "manifest.json")
    bed = BoundingBox(10, 10, 20, 26)
    report = analyze_session(((frame, FrameDetections(frame.timestamp,
                                                      blob_detect(frame, 30.0, 25.0, bed)))
                              for frame in load_sequence(manifest, session)), SessionConfig())
    assert report.motion
    files = written(out)
    assert len(files) == 5
    # the chart renderer is shared with the reference, so pin its axis label here
    assert files["activity.svg"].count(b">time (s)</text>") == 2
    assert files["motion.svg"].count(b">time (s)</text>") == 1
    assert files == encoded(analyze_files(report, [e.timestamp for e in manifest.frames]))


def test_eval_files(session, tmp_path):
    out = tmp_path / "e"
    with pytest.warns(UserWarning, match=r"1 detection frames .* t=99\.5"):
        assert main(["eval", "--dets", str(session / "dets.jsonl"),
                     "--gt", str(session / "truth_dets.jsonl"), "--out", str(out)]) == 0
    dets = parse_detections_jsonl((session / "dets.jsonl").read_text())
    gts = parse_detections_jsonl((session / "truth_dets.jsonl").read_text())
    with pytest.warns(UserWarning, match=r"1 detection frames .* t=99\.5"):
        expected = eval_files(dets, gts, DEFAULT_IOU_THRESHOLDS, "video1", 0.5, 0.1, 1.0)
    assert 0.0 < json.loads(expected["eval.json"])["map_overall"] < 1.0
    files = written(out)
    assert len(files) == 5
    assert files == encoded(expected)
