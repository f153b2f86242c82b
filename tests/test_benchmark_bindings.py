"""The benchmark's traced run rebinds module globals of wardflow by name
(perfbench/layers.py BINDINGS); a rename in wardflow must not leave one
of them dangling."""

import importlib
from pathlib import Path

import numpy as np

import wardflow.analytics
from wardflow.boxes import BoundingBox, pixel_span
from wardflow.flow import FlowField

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_names_a_module_global(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.BINDINGS
    for module, name, _span, _note in layers.BINDINGS:
        assert callable(getattr(importlib.import_module(module), name)), f"{module}.{name}"


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
