"""Span tracer for the benchmark: wraps exitdom's public functions from outside.

``install`` replaces every public function of the traced modules with a
wrapper that records a span (name, layer, start, end, parent, CPU time and a
few work counters), and rebinds every module-level name in the package that
refers to the original, so direct imports such as ``walk_girsanov.exit_joint``
are traced too.  ``layer_metrics`` turns the spans of one traced iteration
into the per-layer metrics named in BENCHMARK.json.

A layer's self time is its spans' duration minus the time covered by their
direct child spans; the root span's self time is the benchmark's own code and
is reported as ``trace.uncovered_s``, so the layer self times plus that
remainder add up to ``trace.wall_s`` exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import Counter

LAYERS = ("cli", "io", "verify", "dominance", "walk_girsanov", "walk", "bm", "mc")

# The ten checks of the desk battery, as named in verify_all.json.
VERIFY_CHECKS = (
    "discrete-exact-dominance",
    "discrete-exit-independence",
    "discrete-girsanov-reweighting",
    "discrete-factorization-identity",
    "laplace-sech-identity",
    "donsker-series-crosscheck",
    "continuous-analytic-dominance",
    "mc-survival-consistency",
    "continuous-exit-independence",
    "coupled-sde-ordering",
)

# Functions called many times inside a single layer call (the quadrature
# integrand); they are counted but get no span, which would cost more than
# the call itself.
_COUNT_ONLY = {"bm.driftless_exit_density"}

# The analytic continuous scan lives in bm but is dominance work.
_LAYER_OVERRIDE = {"bm.dominance_scan_continuous": "dominance"}

_MC_STATS = ("mc.likelihood_ratio_bm", "mc.reweighted_survival_bm",
             "mc.check_independence_continuous")


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "cpu_start",
                 "cpu_end", "attrs")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.attrs = {}
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()
        self.end = self.cpu_end = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans and call counts in memory for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span(name, layer, stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn, name: str, layer: str, describe):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(describe(bound.arguments, result))
            return result

        return traced

    def counter(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _walk_table(args, result):
    return {"mode": args["mode"],
            "cells": args["horizon"] * (2 * args["spec"].k - 1)}


def _exit_samples(args, result):
    import numpy as np

    return {"path_steps": int(np.rint(result.times / result.dt).sum()),
            "censored": int(np.count_nonzero(result.sides == 0)),
            "paths": int(result.n)}


def _coupled(args, result):
    steps = int(round(result.horizon / result.dt))
    return {"cells": steps * result.n_paths * len(result.lambdas)}


def _drifted(args, result):
    from exitdom import bm

    spec = args["spec"]
    short = args["t"] < getattr(bm, "_SMALL_T", 0.05) * spec.b * spec.b
    return {"branch": "short_t" if short else "series"}


def _scan_discrete(args, result):
    return {"mode": args["mode"], "pairs": len(result.grid) - 1,
            "violations": result.n_violations}


def _written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _check(args, result):
    return {"check": result.name}


_DESCRIBE = {
    "walk.exit_joint": _walk_table,
    "walk.survival_pmf": _walk_table,
    "mc.simulate_exit_bm": _exit_samples,
    "mc.simulate_y_coupled": _coupled,
    "bm.drifted_survival": _drifted,
    "dominance.dominance_scan_discrete": _scan_discrete,
    "io.write_json": _written,
    "io.write_csv": _written,
}


def install(tracer: Tracer):
    """Wrap the public functions of every traced exitdom module.

    Returns a function that puts the original functions back.
    """
    package = importlib.import_module("exitdom")
    modules = [importlib.import_module(f"exitdom.{m}") for m in LAYERS]
    replacement = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            if name in _COUNT_ONLY:
                replacement[obj] = tracer.counter(obj, name)
                continue
            describe = _DESCRIBE.get(name)
            if short == "verify" and attr.startswith("check_"):
                describe = _check
            replacement[obj] = tracer.wrap(
                obj, name, _LAYER_OVERRIDE.get(name, short), describe)
    rebound = []
    for mod in [package, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(mod, attr, replacement[obj])
                rebound.append((mod, attr, obj))
    if not rebound:
        raise RuntimeError("found no exitdom functions to trace")

    def restore():
        for mod, attr, obj in rebound:
            setattr(mod, attr, obj)

    return restore


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: Counter, root: Span) -> dict:
    """Per-layer metrics of one traced iteration whose outermost span is ``root``."""
    child_time = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration
    self_time = {id(s): s.duration - child_time[id(s)] for s in spans}

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(sel, attr=None):
        if attr is None:
            return sum(s.duration for s in sel)
        return sum(s.attrs.get(attr, 0) for s in sel)

    m = {}

    layer_self = Counter()
    for s in spans:
        layer_self[s.layer] += self_time[id(s)]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = root.duration
    m["trace.uncovered_s"] = self_time[id(root)]

    exits = named("mc.simulate_exit_bm")
    steps = total(exits, "path_steps")
    m["mc.exit.path_steps"] = steps
    m["mc.exit.s"] = total(exits)
    m["mc.exit.ns_per_path_step"] = _ratio(total(exits), steps, 1e9)
    m["mc.exit.cpu_ns_per_path_step"] = _ratio(
        sum(s.cpu_end - s.cpu_start for s in exits), steps, 1e9)
    m["mc.exit.censored_fraction"] = _ratio(total(exits, "censored"),
                                            total(exits, "paths"))
    coupled = named("mc.simulate_y_coupled")
    m["mc.coupled.cells"] = total(coupled, "cells")
    m["mc.coupled.s"] = total(coupled)
    m["mc.coupled.ns_per_cell"] = _ratio(total(coupled), total(coupled, "cells"), 1e9)
    m["mc.stats.s"] = total(named(*_MC_STATS))

    tables = named("walk.exit_joint", "walk.survival_pmf")
    for mode in ("float", "rational"):
        sel = [s for s in tables if s.attrs["mode"] == mode]
        m[f"walk.{mode}.cells"] = total(sel, "cells")
        m[f"walk.{mode}.s"] = total(sel)
        m[f"walk.{mode}.ns_per_cell"] = _ratio(total(sel), total(sel, "cells"), 1e9)
    m["walk.tables"] = len(tables)

    girsanov = [s for s in spans if s.layer == "walk_girsanov"]
    m["walk_girsanov.calls"] = len(girsanov)
    m["walk_girsanov.tables_per_call"] = _ratio(
        sum(1 for s in tables if s.parent is not None
            and s.parent.layer == "walk_girsanov"), len(girsanov))

    drifted = named("bm.drifted_survival")
    for branch in ("series", "short_t"):
        sel = [s for s in drifted if s.attrs["branch"] == branch]
        m[f"bm.{branch}.evals"] = len(sel)
        m[f"bm.{branch}.us_per_eval"] = _ratio(total(sel), len(sel), 1e6)
    quad = named("bm.drifted_survival_quad")
    m["bm.quad.evals"] = len(quad)
    m["bm.quad.us_per_eval"] = _ratio(total(quad), len(quad), 1e6)
    m["bm.driftless.evals"] = (len(named("bm.driftless_survival"))
                               + counts["bm.driftless_exit_density"])

    scans = named("dominance.dominance_scan_discrete")
    m["dominance.discrete.pairs"] = total(scans, "pairs")
    m["dominance.discrete.self_s"] = sum(self_time[id(s)] for s in scans)
    float_scans = {id(s) for s in scans if s.attrs["mode"] == "float"}
    escalated_tables = sum(1 for s in tables if s.attrs["mode"] == "rational"
                           and id(s.parent) in float_scans)
    escalations = escalated_tables / 2  # both curves of a pair are recomputed
    m["dominance.escalations"] = escalations
    m["dominance.escalation_yield"] = _ratio(
        sum(s.attrs["violations"] for s in scans if id(s) in float_scans),
        escalations)
    m["dominance.continuous.self_s"] = sum(
        self_time[id(s)] for s in named("bm.dominance_scan_continuous"))
    m["dominance.empirical.s"] = total(named("dominance.empirical_dominance_test"))

    checks = Counter()
    for s in spans:
        if "check" in s.attrs:
            checks[s.attrs["check"]] += s.duration
    unknown = set(checks) - set(VERIFY_CHECKS)
    if unknown:
        raise ValueError(f"battery ran checks the benchmark does not name: {sorted(unknown)}")
    for name in VERIFY_CHECKS:
        m[f"verify.{name}.s"] = checks[name]

    writes = named("io.write_json", "io.write_csv")
    m["io.write_s"] = total(writes)
    m["io.bytes_written"] = total(writes, "bytes")
    return m
