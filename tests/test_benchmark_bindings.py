"""The benchmark's traced run rebinds module globals of wardflow by name
(perfbench/layers.py BINDINGS); a rename in wardflow must not leave one
of them dangling, and none may survive as a global nothing calls."""

import importlib
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import wardflow.analytics
from wardflow.boxes import BoundingBox, pixel_span
from wardflow.cli import main
from wardflow.flow import FlowField

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_names_a_module_global(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.BINDINGS
    for module, name, _span, _note in layers.BINDINGS:
        assert callable(getattr(importlib.import_module(module), name)), f"{module}.{name}"


def test_every_binding_is_called_on_the_benchmark_path(monkeypatch, tmp_path):
    # synth -> analyze --dets --riker -> analyze --blob -> eval, as the
    # benchmark runs it: a binding no command calls would leave its span
    # empty.  Each counter hook reads the call it wraps as the traced run
    # does, so a changed signature fails here too.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bindings = importlib.import_module("layers").BINDINGS
    keys = [(module, name) for module, name, _span, _note in bindings]
    calls = Counter()
    tracer = SimpleNamespace(counts=Counter())  # what a hook reads of the tracer
    for module, name, _span, note in bindings:
        def counted(*args, fn=getattr(importlib.import_module(module), name),
                    key=(module, name), note=note, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            if note is not None:
                note(tracer, args, result)
            return result
        monkeypatch.setattr(importlib.import_module(module), name, counted)
    scenario = {"duration": 6, "resolution": [32, 24], "noise_sigma_c": 0.1,
                "patient": {"keyframes": [{"t": 0, "box": [4, 6, 12, 10]},
                                          {"t": 6, "box": [6, 7, 12, 10]}]},
                "workers": [{"enter": 1, "exit": 4,
                             "keyframes": [{"t": 0, "box": [14, 4, 8, 14]}]}]}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "riker.csv").write_text("t,score\n1,3\n4,5\n")
    session = tmp_path / "session"
    manifest, dets = str(session / "manifest.json"), str(session / "truth_dets.jsonl")
    assert main(["synth", "--scenario", str(tmp_path / "scenario.json"),
                 "--out", str(session)]) == 0
    assert main(["analyze", "--manifest", manifest, "--dets", dets,
                 "--riker", str(tmp_path / "riker.csv"), "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", "--manifest", manifest, "--blob", "--out", str(tmp_path / "b")]) == 0
    assert main(["eval", "--dets", dets, "--gt", dets, "--out", str(tmp_path / "e")]) == 0
    assert [key for key in keys if not calls[key]] == []
    assert tracer.counts["flow.pixel_iters"] > 0


def test_motion_step_calls_the_mask_and_stats_globals(monkeypatch):
    # the flow.mask and flow.stats spans time these two names; a motion
    # step that stopped calling them would leave both spans empty
    calls = {"mask_worker_regions": 0, "magnitude_stats": 0}
    for name in calls:
        def counted(*args, fn=getattr(wardflow.analytics, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(wardflow.analytics, name, counted)
    patient = BoundingBox(2, 3, 10, 12)
    flow = FlowField(np.ones((12, 10)), np.zeros((12, 10)))  # the field over the patient
    raw = wardflow.analytics.motion_step(flow, pixel_span(patient, 30, 20),
                                         [BoundingBox(8, 0, 6, 6)])
    assert raw > 0.0
    assert calls == {"mask_worker_regions": 1, "magnitude_stats": 1}
