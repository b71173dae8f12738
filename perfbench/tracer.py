"""Spans around calls into each gaugequad layer, recorded from outside.

``Tracer.install()`` replaces every public function of the traced
modules (plus ``partition.refine_fine_cells``, ``calculus._batched_inner``
and ``Gauge.windows``) at every module attribute that names it, so calls made through
``gaugequad.calculus.integrate_auto`` and ``gaugequad.integrator
.integrate_auto`` alike are seen.  ``uninstall()`` puts the originals
back.  The integrand and term callables the benchmark passes in are
wrapped through the ``expr`` and ``user`` hooks.

A span's self time is its duration minus the time of the spans it
caused.  At the evaluator and term boundaries calls number in the
millions, so those are not kept as spans: each call adds its count,
points and time to per-layer totals and to its parent's child time.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

import gaugequad

clock = time.perf_counter

# Layer -> public functions wrapped in that module.
LAYERS = {
    "gauge": "gaugequad.gauge",
    "partition": "gaugequad.partition",
    "integrator": "gaugequad.integrator",
    "accel": "gaugequad.accel",
    "calculus": "gaugequad.calculus",
}
# Private functions that do a layer's work inside integrands the layer
# builds itself; without a span their time would land on the caller.
_EXTRA = {"partition": ("refine_fine_cells",), "calculus": ("_batched_inner",)}
_CHECKERS = ("ftc_verify", "diff_under_integral", "interchange_iterated", "interchange_sum_integral")
GAUGE_KINDS = ("uniform", "singularity", "enumeration", "intersect", "reflection")


def _gauge_kind(description: str) -> str:
    if description.startswith("reflection"):
        return "reflection"
    if description.startswith("("):
        return "intersect"
    return description.split("(", 1)[0]


class _Frame:
    __slots__ = ("layer", "name", "child")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stack = [_Frame("bench", "root")]
        self.calls = defaultdict(int)  # (layer, name) -> calls
        self.incl = defaultdict(float)  # (layer, name) -> inclusive seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.count = defaultdict(int)  # metric name -> count
        self.gauge_s = defaultdict(float)  # gauge kind -> inclusive seconds
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, layer: str, name: str, post=None):
        stack, calls, incl, self_s = self.stack, self.calls, self.incl, self.self_s
        key = (layer, name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(layer, name)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent.child += dt
                calls[key] += 1
                incl[key] += dt
                self_s[layer] += dt - frame.child
            if post is not None:
                post(parent, args, kwargs, out, dt)
            return out

        return wrapper

    def _leaf(self, fn, layer: str):
        stack, count, self_s = self.stack, self.count, self.self_s

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            parent = stack[-1]
            parent.child += dt
            self_s[layer] += dt
            arr = np.asarray(out)
            if layer == "expr":
                count["expr.calls"] += 1
                count["expr.points"] += arr.size
                count["expr.nonfinite_points"] += arr.size - int(np.count_nonzero(np.isfinite(arr)))
            elif parent.name == "series_limit":
                count["accel.term_calls"] += 1
                count["accel.term_points"] += arr.size
            return out

        return wrapper

    def expr(self, fn):
        return self._leaf(fn, "expr")

    def user(self, fn):
        return self._leaf(fn, "user")

    # -- per-function bookkeeping -----------------------------------------

    def _post_windows(self, parent, args, kwargs, out, dt):
        kind = _gauge_kind(args[0].description)
        points = np.asarray(args[1]).size
        self.count[f"gauge.points.{kind}"] += points
        self.gauge_s[kind] += dt
        if parent.layer != "gauge":
            self.count["gauge.calls"] += 1
            self.count["gauge.points"] += points
        if parent.name == "refine_fine_cells":
            self.count["partition.window_points"] += points

    def _post_integrator(self, parent, args, kwargs, out, dt):
        if parent.layer != "integrator" and isinstance(out, gaugequad.IntegralResult):
            self.count["integrator.evaluations"] += out.evaluations

    def _post_hk(self, parent, args, kwargs, out, dt):
        self.count["integrator.hk_levels"] += len({k for k, _ in out.trace})
        self._post_integrator(parent, args, kwargs, out, dt)

    def _post_hake(self, parent, args, kwargs, out, dt):
        self.count["integrator.rungs"] += len(out.trace)
        self._post_integrator(parent, args, kwargs, out, dt)

    def _post_checker(self, parent, args, kwargs, out, dt):
        self.count["calculus.windows"] += len(getattr(out, "windows", ()))
        self.count["calculus.pointwise_rows"] += len(getattr(out, "pointwise", ()))

    def _refine(self, fn):
        tracer = self
        span = self._span(fn, "partition", "refine_fine_cells")

        def refine(gauge, lo, hi, *, emit, **kwargs):
            def counted(tags, us, vs):
                tracer.count["partition.cells"] += tags.size
                return emit(tags, us, vs)

            return span(gauge, lo, hi, emit=tracer._span(counted, "integrator", "emit"), **kwargs)

        return refine

    def _wrapped(self, layer: str, name: str, fn):
        if name == "refine_fine_cells":
            return self._refine(fn)
        post = None
        if layer == "integrator":
            post = {"hk_integrate": self._post_hk, "hake_improper": self._post_hake}.get(name, self._post_integrator)
        elif name in _CHECKERS:
            post = self._post_checker
        return self._span(fn, layer, name, post)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "gaugequad" or n.startswith("gaugequad.")]
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for name in tuple(mod.__all__) + _EXTRA.get(layer, ()):
                fn = getattr(mod, name)
                if not callable(fn) or isinstance(fn, type) or fn.__module__ != modname:
                    continue
                wrapped = self._wrapped(layer, name, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._saved.append((m, attr, val))
                            setattr(m, attr, wrapped)
        gauge_cls = gaugequad.gauge.Gauge
        self._saved.append((gauge_cls, "windows", gauge_cls.windows))
        gauge_cls.windows = self._span(gauge_cls.windows, "gauge", "windows", self._post_windows)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, calls, incl, self_s = self.count, self.calls, self.incl, self.self_s

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        cells = c["partition.cells"]
        refine_s = incl[("partition", "refine_fine_cells")] - incl[("integrator", "emit")]
        hk_levels = c["integrator.hk_levels"]
        rungs = c["integrator.rungs"]
        out = {
            "expr.calls": c["expr.calls"],
            "expr.points": c["expr.points"],
            "expr.self_s": self_s["expr"],
            "expr.ns_per_point": ratio(self_s["expr"], c["expr.points"], 1e9),
            "expr.nonfinite_points": c["expr.nonfinite_points"],
            "gauge.calls": c["gauge.calls"],
            "gauge.points": c["gauge.points"],
            "gauge.self_s": self_s["gauge"],
        }
        for kind in GAUGE_KINDS:
            out[f"gauge.ns_per_point.{kind}"] = ratio(self.gauge_s[kind], c[f"gauge.points.{kind}"], 1e9)
        out.update({
            "partition.calls": calls[("partition", "refine_fine_cells")],
            "partition.cells": cells,
            "partition.self_s": self_s["partition"],
            "partition.cells_per_s": ratio(cells, refine_s),
            "partition.window_points_per_cell": ratio(c["partition.window_points"], cells),
            "integrator.hk_calls": calls[("integrator", "hk_integrate")],
            "integrator.hk_levels": hk_levels,
            "integrator.s_per_level": ratio(incl[("integrator", "hk_integrate")], hk_levels),
            "integrator.improper_calls": calls[("integrator", "hake_improper")],
            "integrator.rungs": rungs,
            "integrator.s_per_rung": ratio(incl[("integrator", "hake_improper")], rungs),
            "integrator.evaluations": c["integrator.evaluations"],
            "integrator.self_s": self_s["integrator"],
            "accel.series_calls": calls[("accel", "series_limit")],
            "accel.term_calls": c["accel.term_calls"],
            "accel.term_points": c["accel.term_points"],
            "accel.terms_per_s": ratio(c["accel.term_points"], incl[("accel", "series_limit")]),
            "accel.shanks_calls": calls[("accel", "shanks_limit")] + calls[("accel", "shanks_columns")],
            "accel.self_s": self_s["accel"],
            "calculus.calls": sum(calls[("calculus", n)] for n in _CHECKERS),
            "calculus.windows": c["calculus.windows"],
            "calculus.pointwise_rows": c["calculus.pointwise_rows"],
            "calculus.derivative_calls": calls[("calculus", "numeric_derivative")],
            "calculus.self_s": self_s["calculus"],
        })
        return out


# Counts that must repeat exactly across traced runs of one seed.
COUNT_METRICS = (
    "expr.calls", "expr.points", "expr.nonfinite_points", "gauge.calls", "gauge.points",
    "partition.calls", "partition.cells", "integrator.hk_calls", "integrator.hk_levels",
    "integrator.improper_calls", "integrator.rungs", "integrator.evaluations",
    "accel.series_calls", "accel.term_calls", "accel.term_points", "accel.shanks_calls",
    "calculus.calls", "calculus.windows", "calculus.pointwise_rows", "calculus.derivative_calls",
)
