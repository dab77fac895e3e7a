"""Spans around the public functions of sepsets, timed from outside.

``instrument`` wraps every public function of each sepsets module and
rebinds the wrapper wherever a module holds the function. Modules
import names directly (``sepsets.cli`` calls its own ``check_elimination``
binding, ``sepsets.axioms`` its own ``score_vector``), so wrapping only
the defining module would miss most calls.

A span is ``[name, start_ns, end_ns, parent_index]``. Spans stay in
memory until the caller writes them out. ``self_times`` and
``layer_totals`` turn them into per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("subset_algebra", "importance", "separability", "axioms", "sample_space", "dataset_eval", "cli")
# Time the tracer spends on its own bookkeeping, kept out of the callers' self time.
TRACER_SPAN = "trace.fingerprint"


class Tracer:
    """Collects nested spans and per-job counts in one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._scored: set = set()
        self._projections: dict = {}

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1]])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def start_job(self) -> int:
        """Open a root span; repeats are counted within one job."""
        self._scored.clear()
        return self.open("job")

    def note_score(self, method: str, values: np.ndarray) -> None:
        """Count a scoring call that repeats a (rule, table contents) pair of this job.

        Contents are compared through a fixed random projection, which
        costs about a tenth of hashing the table; distinct tables collide
        only with negligible probability.
        """
        index = self.open(TRACER_SPAN)
        size = values.shape[0]
        if size not in self._projections:
            self._projections[size] = np.random.default_rng(size).uniform(0.5, 1.0, size)
        key = (method, size, float(values @ self._projections[size]))
        self.counts["importance.score_vector.repeats"] += key in self._scored
        self._scored.add(key)
        self.close(index)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _wrap_score_vector(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(method, table):
        index = tracer.open(f"importance.score_vector.{method.value}")
        try:
            tracer.note_score(method.value, table.values)
            return fn(method, table)
        finally:
            tracer.close(index)

    return traced


def instrument(tracer: Tracer):
    """Wrap sepsets' public functions for ``tracer``; returns an undo callable."""
    wrappers = {}
    for short in MODULES:
        module = importlib.import_module(f"sepsets.{short}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if (short, name) == ("importance", "score_vector"):
                wrappers[fn] = _wrap_score_vector(tracer, fn)
            else:
                wrappers[fn] = _wrap(tracer, f"{short}.{name}", fn)
    replaced = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "sepsets" and not module_name.startswith("sepsets."):
            continue
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, name, wrappers[value])
                replaced.append((module, name, value))

    def undo() -> None:
        for module, name, value in replaced:
            setattr(module, name, value)

    return undo


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for child_start, child_end in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans: list) -> tuple[dict, dict]:
    """Totals per span name (self seconds, inclusive seconds, calls) and
    self seconds per module, the part of a span's name before the first dot.
    """
    per_name: dict = defaultdict(lambda: {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0})
    per_module: dict = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        totals = per_name[name]
        totals["self_s"] += own / 1e9
        totals["inclusive_s"] += (end - start) / 1e9
        totals["calls"] += 1
        per_module[name.split(".", 1)[0]] += own / 1e9
    return dict(per_name), dict(per_module)
