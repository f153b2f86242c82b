"""Input contract: mutated detection JSONL, Riker CSV, manifest, NPY
frame and scenario inputs never end `analyze`, `eval` or `synth` in a
traceback, only in a documented exit code (0 success, 2 I/O, 3 format,
4 config)."""

import copy
import json
import math
import re
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wardflow.cli import main

EXIT_CODES = {0, 2, 3, 4}

SCENARIO = {
    "duration": 4,
    "resolution": [24, 20],
    "noise_sigma_c": 0.1,
    "patient": {"keyframes": [{"t": 0, "box": [4, 4, 10, 10]},
                              {"t": 4, "box": [6, 5, 10, 10]}]},
    "workers": [{"enter": 1, "exit": 3, "keyframes": [{"t": 0, "box": [10, 2, 8, 12]}]}],
}
RIKER = "t,score\n0,3\n2,5\n"

# pieces of the two formats and values at the edge of what they allow
TOKENS = ['{', '}', '[', ']', '"', ':', ',', '\n', '-', '.', '0', '1', '7', '8', 'e',
          '1e308', '1e-320', '1e309', 'NaN', 'Infinity', '-Infinity', 'null', 'true',
          '[]', '{}', '""', '"patient"', '"worker"', '"t"', '"dets"', '"box"', '"cls"',
          '"conf"', '[1, 2, 3, 4]', ' ', '\t', '\x00', 'é', '٧']

EDITS = st.lists(st.tuples(
    st.sampled_from(["insert", "delete", "replace", "repeat_line"]),
    st.floats(0.0, 1.0),
    st.integers(1, 12),
    st.one_of(st.sampled_from(TOKENS), st.text(max_size=6)),
), min_size=1, max_size=6)


# numbers first (they pass the type checks), non-finite and extreme ones
# included, then any JSON value
NUMBERS = st.one_of(st.floats(), st.integers(-2**70, 2**70),
                    st.sampled_from([1e308, -1e308, 5e-324, 1e-320, 0.0, -0.0, 0.5, 1.0,
                                     10**400]))
JSON_VALUES = st.one_of(NUMBERS, st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.sampled_from(["t", "dets", "cls", "conf", "box"]),
                                            inner, max_size=4)),
    max_leaves=8))

# (line, field, detection, box element, new value): one value of a
# parsed JSONL line replaced, so the line stays valid JSON
VALUE_EDITS = st.lists(st.tuples(
    st.integers(0, 10), st.sampled_from(["t", "dets", "det", "cls", "conf", "box", "coord"]),
    st.integers(0, 3), st.integers(0, 3), JSON_VALUES,
), max_size=4)

# (entry, field, new value) of the manifest: a frame entry's "t" or
# "path", the entry itself, one resolution element, or a top-level field
MANIFEST_EDITS = st.lists(st.tuples(
    st.integers(0, 5), st.sampled_from(["t", "path", "entry", "size", "dt", "resolution",
                                        "frames"]),
    st.one_of(JSON_VALUES, st.sampled_from(["nan", "inf", "-1", "1e308", "frame_00000.npy"])),
), max_size=4)

# A scenario is rendered as declared, so its numbers stay small: a large
# finite duration or resolution is a valid request for a large render
# (10**400 is no float, and no array dimension, so it renders nothing).
SCENARIO_NUMBERS = st.one_of(st.floats(-64, 64), st.integers(-64, 64),
                             st.sampled_from([math.nan, math.inf, -math.inf, 32.5]))
SCENARIO_VALUES = st.one_of(
    SCENARIO_NUMBERS, st.lists(SCENARIO_NUMBERS, max_size=5),
    st.sampled_from(["inf", "nan", "-1", "4", "x", None, True, {}, 10**400]))

# (field, script or keyframe index, new value) of the scenario
SCENARIO_EDITS = st.lists(st.tuples(
    st.sampled_from(["duration", "resolution", "size", "noise_sigma_c", "background_c",
                     "body_c", "patient", "workers", "enter", "exit", "t", "box", "coord"]),
    st.integers(0, 3), SCENARIO_VALUES,
), min_size=1, max_size=4)

# (part, where, value) edits of one NPY frame's bytes: a header byte, the
# header length field, the shape or descr text, a truncation, or one
# payload float
NPY_EDITS = st.lists(st.one_of(
    st.tuples(st.just("header_byte"), st.floats(0.0, 1.0), st.integers(0, 255)),
    st.tuples(st.just("header_len"), st.floats(0.0, 1.0), st.integers(0, 2**16 - 1)),
    st.tuples(st.just("shape"), st.floats(0.0, 1.0), st.one_of(
        st.sampled_from(["20, 24", "24, 20", "0, 24", "20,", "20, 24, 1", "", "-20, 24",
                         "99999999999, 2", "2, 240", "020, 24", "20, 24.0"]),
        st.text("0123456789, -", max_size=10))),
    st.tuples(st.just("descr"), st.floats(0.0, 1.0), st.sampled_from(
        ["<f4", "<f8", ">f8", "<i4", "|b1", "<f2", "<c16", "O", "", "<f8'", "f8"])),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0), st.just(None)),
    st.tuples(st.just("payload"), st.floats(0.0, 1.0), st.one_of(
        st.floats(), st.sampled_from([36.0, -20.0, 120.0, -20.5, 120.5, 1e308])))),
    min_size=1, max_size=4)


def edit_npy(data, edits):
    """`data` with each edit applied; a shape or descr edit rewrites the
    header and its length field, as a writer of that header would."""
    for part, where, value in edits:
        header_end = 10 + int.from_bytes(data[8:10], "little")  # 10 on a cut file
        if part == "header_byte":
            at = int(where * min(header_end, len(data) - 1))
            data = data[:at] + bytes([value]) + data[at + 1:]
        elif part == "header_len":
            data = data[:8] + struct.pack("<H", value) + data[10:]
        elif part in ("shape", "descr"):
            pattern = r"'shape': \(([^)]*)\)" if part == "shape" else r"'descr': '([^']*)'"
            header = data[10:header_end].decode("latin1")
            found = re.search(pattern, header)
            if found:
                header = header[:found.start(1)] + value + header[found.end(1):]
                data = (data[:8] + struct.pack("<H", len(header)) + header.encode("latin1")
                        + data[header_end:])
        elif part == "truncate":
            data = data[:int(where * len(data))]
        elif len(data) >= header_end + 8:
            at = header_end + 8 * int(where * ((len(data) - header_end) // 8 - 1))
            data = data[:at] + struct.pack("<d", value) + data[at + 8:]
    return data


# (row, column, new cell) of the Riker CSV
CELL_EDITS = st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 2),
    st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=6)),
), max_size=4)


def edit_values(text, edits):
    lines = [json.loads(line) for line in text.splitlines()]
    for k, name, i, j, value in edits:
        obj = lines[k % len(lines)]
        dets = obj["dets"]
        if name in ("t", "dets"):
            obj[name] = value
        elif not isinstance(dets, list) or not dets or not isinstance(dets[i % len(dets)], dict):
            continue
        elif name == "det":
            dets[i % len(dets)] = value
        elif name == "coord" and isinstance(dets[i % len(dets)].get("box"), list):
            box = dets[i % len(dets)]["box"]
            box[j % len(box)] = value
        elif name != "coord":
            dets[i % len(dets)][name] = value
    return "\n".join(json.dumps(obj) for obj in lines) + "\n"


def edit_manifest(text, edits):
    doc = json.loads(text)
    for k, name, value in edits:
        frames = doc["frames"]
        if name in ("dt", "resolution", "frames"):
            doc[name] = value
        elif name == "size":
            if isinstance(doc.get("resolution"), list) and doc["resolution"]:
                doc["resolution"][k % len(doc["resolution"])] = value
        elif not isinstance(frames, list) or not frames:
            continue
        elif name == "entry":
            frames[k % len(frames)] = value
        elif isinstance(frames[k % len(frames)], dict):
            frames[k % len(frames)][name] = value
    return json.dumps(doc) + "\n"


def edit_scenario(edits):
    doc = copy.deepcopy(SCENARIO)
    for name, k, value in edits:
        if name in ("duration", "resolution", "noise_sigma_c", "background_c", "body_c",
                    "patient", "workers"):
            doc[name] = value
            continue
        if name == "size":
            if isinstance(doc.get("resolution"), list) and doc["resolution"]:
                doc["resolution"][k % len(doc["resolution"])] = value
            continue
        workers = doc["workers"] if isinstance(doc["workers"], list) else []
        script = [doc["patient"], *workers][k % (1 + len(workers))]
        if not isinstance(script, dict):
            continue
        if name in ("enter", "exit"):
            script[name] = value
            continue
        keyframes = script.get("keyframes")
        if not isinstance(keyframes, list) or not keyframes:
            continue
        keyframe = keyframes[k % len(keyframes)]
        if not isinstance(keyframe, dict):
            continue
        if name != "coord":
            keyframe[name] = value
        elif isinstance(keyframe.get("box"), list) and keyframe["box"]:
            keyframe["box"][k % len(keyframe["box"])] = value
    return json.dumps(doc)


def reject_constant(name):
    raise AssertionError(f"{name} written into a JSON output")


def edit_cells(text, edits):
    rows = [line.split(",") for line in text.splitlines()]
    for r, c, cell in edits:
        row = rows[r % len(rows)]
        if c < len(row):
            row[c] = cell
        else:
            row.append(cell)
    return "\n".join(",".join(row) for row in rows) + "\n"


def mutate(text, edits):
    for op, where, length, piece in edits:
        at = int(where * len(text))
        if op == "insert":
            text = text[:at] + piece + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + length:]
        elif op == "replace":
            text = text[:at] + piece + text[at + len(piece):]
        else:
            lines = text.splitlines(keepends=True)
            if lines:
                k = min(int(where * len(lines)), len(lines) - 1)
                lines.insert(k, lines[k])
            text = "".join(lines)
    return text


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert main(["synth", "--scenario", str(root / "scenario.json"), "--seed", "1",
                 "--out", str(root / "session")]) == 0
    return root / "session"


def run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


CONTRACT = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@CONTRACT
@given(values=VALUE_EDITS, cells=CELL_EDITS,
       dets_edits=st.one_of(st.just([]), EDITS), riker_edits=st.one_of(st.just([]), EDITS))
def test_analyze_exits_with_a_documented_code(session, values, cells, dets_edits, riker_edits):
    dets = mutate(edit_values((session / "truth_dets.jsonl").read_text(), values), dets_edits)
    riker = mutate(edit_cells(RIKER, cells), riker_edits)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dets.jsonl").write_text(dets, encoding="utf-8", errors="surrogatepass")
        (tmp / "riker.csv").write_text(riker, encoding="utf-8", errors="surrogatepass")
        code = run(["analyze", "--manifest", str(session / "manifest.json"),
                    "--dets", str(tmp / "dets.jsonl"), "--riker", str(tmp / "riker.csv"),
                    "--riker-window", "2", "--out", str(tmp / "out")])
    assert code in EXIT_CODES


@CONTRACT
@given(values=VALUE_EDITS, dets_edits=st.one_of(st.just([]), EDITS),
       which=st.sampled_from(["dets", "gt", "both"]))
def test_eval_exits_with_a_documented_code(session, values, dets_edits, which):
    truth = (session / "truth_dets.jsonl").read_text()
    mutated = mutate(edit_values(truth, values), dets_edits)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("dets", "gt"):
            text = mutated if which in (name, "both") else truth
            (tmp / f"{name}.jsonl").write_text(text, encoding="utf-8", errors="surrogatepass")
        code = run(["eval", "--dets", str(tmp / "dets.jsonl"), "--gt", str(tmp / "gt.jsonl"),
                    "--out", str(tmp / "out")])
    assert code in EXIT_CODES


@CONTRACT
@example(values=[(3, "t", 1e308)], text_edits=[], source="dets")
@example(values=[(3, "t", "nan")], text_edits=[], source="blob")
@given(values=MANIFEST_EDITS, text_edits=st.one_of(st.just([]), EDITS),
       source=st.sampled_from(["dets", "blob"]))
def test_analyze_manifest_exits_with_a_documented_code(session, values, text_edits, source):
    manifest = mutate(edit_manifest((session / "manifest.json").read_text(), values), text_edits)
    # frame paths resolve against the manifest's directory, the session's
    mutated = session / "mutated_manifest.json"
    mutated.write_text(manifest, encoding="utf-8", errors="surrogatepass")
    detector = (["--dets", str(session / "truth_dets.jsonl")] if source == "dets"
                else ["--blob", "--blob-min-area", "4"])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = run(["analyze", "--manifest", str(mutated), *detector, "--out", str(out)])
        assert code in EXIT_CODES
        if code == 0:
            json.loads((out / "report.json").read_text(), parse_constant=reject_constant)


@CONTRACT
@given(frame=st.integers(0, 3), edits=NPY_EDITS, source=st.sampled_from(["dets", "blob"]))
def test_analyze_npy_exits_with_a_documented_code(session, frame, edits, source):
    manifest = json.loads((session / "manifest.json").read_text())
    entry = manifest["frames"][frame]
    (session / "mutated.npy").write_bytes(edit_npy((session / entry["path"]).read_bytes(), edits))
    entry["path"] = "mutated.npy"
    (session / "npy_manifest.json").write_text(json.dumps(manifest))
    detector = (["--dets", str(session / "truth_dets.jsonl")] if source == "dets"
                else ["--blob", "--blob-min-area", "4"])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = run(["analyze", "--manifest", str(session / "npy_manifest.json"), *detector,
                    "--out", str(out)])
        assert code in EXIT_CODES
        if code == 0:
            json.loads((out / "report.json").read_text(), parse_constant=reject_constant)


@CONTRACT
@example(edits=[("duration", 0, "inf")])
@example(edits=[("size", 0, True), ("patient", 0, {"keyframes": [{"t": 0, "box": [0, 0, 1, 4]}]}),
                ("workers", 0, [])])
@example(edits=[("size", 0, 32.5)])
@given(edits=SCENARIO_EDITS)
def test_synth_exits_with_a_documented_code(edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.json").write_text(edit_scenario(edits))
        code = run(["synth", "--scenario", str(tmp / "scenario.json"),
                    "--out", str(tmp / "out")])
    assert code in EXIT_CODES
