"""Spans around the public functions that ``run_scenario`` reaches.

``Tracer.operation`` rebinds those functions on their modules for the
duration of one operation and restores them afterwards, so untraced
operations run the program unmodified.  Spans are kept in memory; a span's
self time is its duration minus the durations of its direct children
(calls are single-threaded and strictly nested).  Exact counts are taken at
the same call boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from nearscat import continuation, cylfun, formats, forward, indicator, pipeline

ROOT_SPAN = "pipeline.self"


@dataclass
class Span:
    name: str
    op: int
    sid: int
    parent: int | None
    start: float
    end: float = 0.0


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# -- exact counts; each returns an optional callable run after the operation --

def _count_lu_solve(c, args, kwargs, result):
    c["forward.lu_solve.calls"] += 1


def _count_incident(c, args, kwargs, result):
    c["forward.incident.points"] += np.asarray(_arg(args, kwargs, 0, "x")).size // 2


def _count_solve(c, args, kwargs, result):
    curve = _arg(args, kwargs, 0, "curve")
    bc, side = _arg(args, kwargs, 1, "bc"), _arg(args, kwargs, 2, "side")
    # S, K and K' are each assembled as M x M; the representation uses
    # S and K (exterior soft) or one of K, K' (every other variant).
    c["forward.kernel_entries"] += 3 * curve.n_nodes ** 2
    c["forward.operators_used"] += 2 if (side, bc) == ("exterior", "soft") else 1
    c["forward.operators_built"] += 3


def _count_bessel(c, args, kwargs, result):
    n_max = _arg(args, kwargs, 0, "n_max")
    t = np.asarray(_arg(args, kwargs, 1, "t"))
    c["cylfun.values"] += (n_max + 1) * t.size
    c["cylfun.args"] += t.size

    def distinct(c):                  # np.unique is deferred out of the spans
        c["cylfun.distinct_args"] += np.unique(t).size
    return distinct


def _count_indicator(c, args, kwargs, image):
    live = ~image.grid.mask
    c["indicator.points"] += int(live.sum())
    c["indicator.degenerate_points"] += int(
        np.count_nonzero(image.flags[live] == indicator.FLAG_DEGENERATE))


def _count_written(c, args, kwargs, result):
    c["formats.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_read(c, args, kwargs, result):
    c["formats.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, span name, counter).  Functions imported by name into
# another module are rebound where the caller looks them up.
TARGETS = [
    (pipeline, "simulate_ring", "forward.simulate_ring.self", None),
    (forward, "solve_densities", "forward.solve_densities.self", _count_solve),
    (forward, "evaluate_scattered", "forward.evaluate_scattered", None),
    (scipy.linalg, "lu_factor", "forward.lu_factor", None),
    (scipy.linalg, "lu_solve", "forward.lu_solve", _count_lu_solve),
    (forward, "incident_field", "forward.incident", _count_incident),
    (forward, "incident_gradient", "forward.incident", _count_incident),
    (indicator, "incident_field", "forward.incident", _count_incident),
    (indicator, "incident_gradient", "forward.incident", _count_incident),
    (pipeline, "add_noise", "noise.add_noise", None),
    (continuation, "compute_coefficients", "continuation.compute_coefficients", None),
    (indicator, "eval_field", "continuation.eval", None),
    (indicator, "eval_gradient", "continuation.eval", None),
    (cylfun, "bessel_j_all", "cylfun.bessel", _count_bessel),
    (cylfun, "bessel_y_all", "cylfun.bessel", _count_bessel),
    (indicator, "indicator_soft", "indicator.self", _count_indicator),
    (indicator, "indicator_hard", "indicator.self", _count_indicator),
    (formats, "write_ring_csv", "formats.ring_csv", _count_written),
    (formats, "read_ring_csv", "formats.ring_csv", _count_read),
    (formats, "write_grid_csv", "formats.grid_csv", _count_written),
    (formats, "read_grid_csv", "formats.grid_csv", _count_read),
    (formats, "write_pgm", "formats.pgm", _count_written),
    (formats, "read_pgm", "formats.pgm", _count_read),
    (formats, "sha256_file", "formats.sha256", None),
    (pipeline, "make_curve", "geometry.make_curve", None),
    (pipeline, "imaging_grid", "geometry.imaging_grid", None),
]

TIME_METRICS = sorted({name for _, _, name, _ in TARGETS} | {ROOT_SPAN})
COUNT_METRICS = {  # name -> unit
    "forward.lu_solve.calls": "count", "forward.incident.points": "count",
    "forward.kernel_entries": "count", "forward.operators_used_ratio": "ratio",
    "cylfun.values": "count", "cylfun.distinct_arg_ratio": "ratio",
    "indicator.points": "count", "indicator.degenerate_points": "count",
    "formats.bytes_written": "bytes", "formats.bytes_read": "bytes",
}
# scipy's onenormest draws its start vectors from numpy's global RNG, so the
# number of LU solves in the condition estimate varies between operations
# (ROADMAP item 3).  Reported as a median and left out of the repeat checks.
VARIABLE_COUNTS = {"forward.lu_solve.calls"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[Span] = []
        self._deferred: list = []

    def _open(self, name: str, op: int) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(name, op, len(self.spans), parent, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, count, op: int, counts: Counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                after = count(counts, args, kwargs, result)
                if after is not None:
                    self._deferred.append(after)
            return result
        return traced

    @contextmanager
    def operation(self, op: int):
        """Trace one operation: rebind every target, open the root span."""
        counts = self.counts[op] = Counter()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        for (mod, attr, fn), (_, _, name, count) in zip(saved, TARGETS):
            setattr(mod, attr, self._wrap(fn, name, count, op, counts))
        root = self._open(ROOT_SPAN, op)
        try:
            yield
        finally:
            self._close(root)
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            for after in self._deferred:
                after(counts)
            self._deferred.clear()

    # -- per-operation results -------------------------------------------------

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def self_times(self, op: int) -> dict[str, float]:
        """Self time summed per span name, every TIME_METRICS name present."""
        spans = self.op_spans(op)
        child = Counter()
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for s in spans:
            out[s.name] += (s.end - s.start) - child[s.sid]
        return out

    def op_time(self, op: int) -> float:
        root = next(s for s in self.op_spans(op) if s.parent is None)
        return root.end - root.start

    def check(self, op: int) -> list[str]:
        """Spans nest inside their parents and self times sum to the op time."""
        spans = {s.sid: s for s in self.op_spans(op)}
        problems = [f"span {s.name} escapes its parent {spans[s.parent].name}"
                    for s in spans.values() if s.parent is not None and not (
                        spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end)]
        total = sum(self.self_times(op).values())
        if abs(total - self.op_time(op)) > 1e-9 * max(1, len(spans)):
            problems.append(f"self times sum to {total!r}, op took {self.op_time(op)!r}")
        return problems

    def exact_counts(self, op: int) -> dict[str, float]:
        c = self.counts[op]
        out = {n: c[n] for n in COUNT_METRICS}
        out["forward.operators_used_ratio"] = (c["forward.operators_used"]
                                               / c["forward.operators_built"])
        out["cylfun.distinct_arg_ratio"] = c["cylfun.distinct_args"] / c["cylfun.args"]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            json.dump([s.__dict__ for s in self.spans], f)


def median_self_times(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    per_op = [tracer.self_times(op) for op in ops]
    return {name: statistics.median(t[name] for t in per_op) for name in TIME_METRICS}
