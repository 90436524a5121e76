"""In-memory spans around the public functions of the peerpred layers.

:func:`install` replaces every public module-level function of the layer
modules, and a few named methods, by a wrapper that records a span (name,
start, end, parent span, job id) while the tracer is on.  A function is
rebound in every ``peerpred`` module namespace that holds it, so calls made
through ``from .mechanism import welfare_metrics`` in another module are
traced too.  Nothing here changes the program's results.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("cli", "io", "priors", "strategy", "scoring", "divergence", "mechanism", "equilibrium", "audits")

# Methods traced besides module functions, as (module, class, method, span name).
# The scoring rules share one span name per method, so ``scoring.weighted_score``
# counts the calls of every rule.
METHODS = (
    ("priors", "LatentStatePrior", "sample_signals", "priors.LatentStatePrior.sample_signals"),
    *(
        ("scoring", cls, meth, f"scoring.{meth}")
        for cls in ("LogRule", "QuadraticRule")
        for meth in ("point_score", "expected_score", "weighted_score", "self_score")
    ),
)


class Tracer:
    """Spans of one thread, kept in memory.

    A span is the tuple (id, parent id, job id, name, start ns, end ns).
    Spans are recorded only while ``on`` is true.
    """

    def __init__(self):
        self.on = False
        self.job = None
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, args, kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.job, name, start, end))

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _wrap(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(tracer: Tracer):
    """Wrap the layer functions and methods."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"peerpred.{layer}"]
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrapped[obj] = _wrap(tracer, obj, f"{layer}.{attr}")
    for modname, module in list(sys.modules.items()):
        if modname == "peerpred" or modname.startswith("peerpred."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
    for layer, cls_name, meth, span_name in METHODS:
        cls = getattr(sys.modules[f"peerpred.{layer}"], cls_name)
        setattr(cls, meth, _wrap(tracer, getattr(cls, meth), span_name))


def layer_totals(spans: list[tuple]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds).

    Self time is the span's duration minus the time covered by its child
    spans; children of one span never overlap, since spans come from one
    thread.
    """
    covered = defaultdict(int)
    for _sid, parent, _job, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for sid, _parent, _job, name, start, end in spans:
        calls[name] += 1
        self_ns[name] += end - start - covered[sid]
    return {name: (calls[name], self_ns[name] / 1e9) for name in calls}


def write_spans(path, phases: list[tuple[str, list[tuple]]]):
    """Write spans as JSON lines: [phase, id, parent, job, name, start_ns, end_ns]."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases:
            for span in spans:
                fh.write(json.dumps([phase, *span]) + "\n")
