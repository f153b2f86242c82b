"""The benchmark's own checks: deterministic inputs, a tracer that leaves
wardflow as it found it, and a small session through every workload's
code path.  Run with ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import BINDINGS  # noqa: E402
from tracer import Tracer, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_MAIN = run.import_wardflow()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Small enough for a few seconds per workload, large enough that every
# command, check and span of the full workload runs.
SMALL = {"hd-motion": {"block": 2}, "lowres-motion": {"duration": 40},
         "hour-blob": {"duration": 600, "visits": 5}}


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    build = WORKLOADS[name]
    assert build(3).files() == build(3).files()
    assert build(3).noisy_dets != build(4).noisy_dets


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_traced_block_restores_every_binding():
    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in BINDINGS]
    with pytest.raises(RuntimeError):
        with traced(Tracer(), BINDINGS):
            rebound = [getattr(importlib.import_module(m), a) for m, a, _, _ in BINDINGS]
            assert all(r.__wrapped__ is o for r, o in zip(rebound, originals))
            raise RuntimeError("leave the block early")
    after = [getattr(importlib.import_module(m), a) for m, a, _, _ in BINDINGS]
    assert all(a is o for a, o in zip(after, originals))


def test_self_times_add_up_to_the_span():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    assert tr.calls["inner"] == 2
    assert tr.self_time["outer"] + tr.total["inner"] == pytest.approx(tr.total["outer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_small_session_runs_every_path(name, trace, tmp_path):
    info, result = run.run(CLI_MAIN, name, 11, 0, trace, tmp_path, sizes=SMALL[name])
    assert result["correct"], info["failures"]
    assert result["attempted"] == (6 if trace else 4)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert (metrics["flow.pairs"] == 0) == (name == "hour-blob")
        assert (metrics["detect.blob_calls"] > 0) == (name == "hour-blob")
        if name == "hd-motion":
            flow = metrics["flow.estimate_s"] + metrics["flow.mask_s"] + metrics["flow.stats_s"]
            assert flow >= 0.9 * metrics["cli.analyze_s"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "hd-motion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
