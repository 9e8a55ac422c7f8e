"""Span recorder for the traced benchmark run.

The recorder wraps public planarz functions in the module where each one is
looked up at call time, so the package itself is not modified. Modules are
reached through ``sys.modules`` because the package attribute ``pfaffian``
is the function, which shadows the module of the same name. A target that
the package no longer has is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters kept in memory for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.pfaffian_dims: list[int] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        out: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.duration
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return dict(out)


def _count_bp(rec, args, result):
    g = args[0]
    rec.count("bp.attempts")
    rec.count("bp.sweeps", result.iterations)
    rec.count("bp.updates", result.iterations * 2 * g.num_edges)
    rec.count("bp.converged", bool(result.converged))


def _count_pfaffian(rec, args, result):
    a = args[0]
    rec.pfaffian_dims.append(int(getattr(a, "data", a).shape[0]))


def _count_ext(rec, args, result):
    rec.count("planar.ext_vertices", result.num_vertices)


def _count_dummies(rec, args, result):
    rec.count("planar.dummy_edges", len(result.edges) - len(args[0].edges))


def _count_z_empty(rec, args, result):
    rec.count("series.terms")
    rec.count("series.nonzero_terms", result.sign != 0)


def _count_series(rec, args, result):
    rec.count("series.terms", len(result.terms))
    rec.count("series.nonzero_terms", sum(t.contribution.sign != 0 for t in result.terms))


# (module looked up in, attribute, span name, counter hook)
TARGETS = (
    ("planarz.bench", "factor_to_forney", "model.factor_to_forney", None),
    ("planarz.bench", "reduce_degree", "model.reduce_degree", None),
    ("planarz.bench", "two_core", "model.two_core", None),
    ("planarz.bench", "run_bp_multistart", "bp.multistart", None),
    ("planarz.bench", "run_bp", "bp.run_bp", _count_bp),
    ("planarz.bp", "run_bp", "bp.run_bp", _count_bp),
    ("planarz.bench", "z_empty", "series.z_empty", _count_z_empty),
    ("planarz.bench", "pfaffian_series", "series.pfaffian_series", _count_series),
    ("planarz.series", "fisher_extend", "planar.fisher_extend", _count_ext),
    ("planarz.series", "biconnect", "planar.biconnect", _count_dummies),
    ("planarz.series", "orient", "planar.orient", None),
    ("planarz.planar", "embed", "planar.embed", None),
    ("planarz.series", "tutte_matrix", "pfaffian.matrix_build", None),
    ("planarz.series", "kasteleyn_matrix", "pfaffian.matrix_build", None),
    ("planarz.series", "corrected_z", "pfaffian.corrected_z", None),
    ("planarz.pfaffian", "pfaffian", "pfaffian.pfaffian", _count_pfaffian),
)


def _wrap(rec: Recorder, fn, span_name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(span_name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Wrap every target in TARGETS the package has; yield the span names
    left absent.

    A span name is absent when none of its targets exists. The original
    functions are restored on exit.
    """
    undo = []
    present = set()
    try:
        for mod_name, attr, span_name, hook in TARGETS:
            mod = sys.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                continue
            setattr(mod, attr, _wrap(rec, fn, span_name, hook))
            undo.append((mod, attr, fn))
            present.add(span_name)
        yield sorted({t[2] for t in TARGETS} - present)
    finally:
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)
