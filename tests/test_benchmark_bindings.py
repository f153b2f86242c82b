"""The benchmark's traced run rebinds module globals of wardflow by name
(perfbench/layers.py BINDINGS); a rename in wardflow must not leave one
of them dangling."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_names_a_module_global(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.BINDINGS
    for module, name, _span, _note in layers.BINDINGS:
        assert callable(getattr(importlib.import_module(module), name)), f"{module}.{name}"
