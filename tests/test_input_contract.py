"""Input contract: mutated detection JSONL and Riker CSV text never end
`analyze` or `eval` in a traceback, only in a documented exit code
(0 success, 2 I/O, 3 format, 4 config)."""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
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
                    st.sampled_from([1e308, -1e308, 5e-324, 1e-320, 0.0, -0.0, 0.5, 1.0]))
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
