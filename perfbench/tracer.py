"""Per-layer spans recorded from outside the program.

The tracer rebinds the name a calling module looks up (for example
``wardflow.pipeline.estimate_flow``) to a timing wrapper, and puts every
original back when the ``traced`` block ends, also on error.  Nothing in
``wardflow`` itself changes.  Spans nest: a span's self time is its
duration minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span totals, self times, call counts and named counters in memory."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self._child = []  # time covered by child spans, one slot per open span

    def _enter(self) -> None:
        self._child.append(0.0)

    def _exit(self, name: str, elapsed: float) -> None:
        covered = self._child.pop()
        if self._child:
            self._child[-1] += elapsed
        self.total[name] += elapsed
        self.self_time[name] += elapsed - covered
        self.calls[name] += 1
        self.durations[name].append(elapsed)

    @contextmanager
    def span(self, name: str):
        self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, perf_counter() - start)

    def wrap(self, name: str, fn, note=None):
        """A stand-in for `fn` that records a span; `note(tracer, args, result)`
        adds counters after the span has closed."""
        def traced(*args, **kwargs):
            self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, perf_counter() - start)
            if note is not None:
                note(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced


@contextmanager
def traced(tracer: Tracer, bindings):
    """Rebind each (module, attribute, span, note) for the block's duration."""
    saved = []
    try:
        for module_name, attr, span_name, note in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, note))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
