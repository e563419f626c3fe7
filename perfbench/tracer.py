"""Runtime span tracer for the sta_coupler package, installed from outside.

Each hook names a target as ``"module:attr"`` or ``"module:Class.attr"``.
Targets are resolved by name when the tracer is installed; every binding of
the original function in a loaded ``sta_coupler`` module is swapped for a
wrapper, and :meth:`Tracer.uninstall` puts the originals back.  A target that
no longer exists is listed in :attr:`Tracer.untraced` instead of raising, so
the benchmark keeps running when a later version merges or renames functions.

A wrapper records one span per call: name, layer, start, end, the span that
caused it and the benchmark operation it belongs to.  Per-name aggregates
(calls, total and self time, schedules time nested below) are always kept;
individual span records are kept for the less frequent names only, so that a
run with hundreds of thousands of right-hand-side evaluations stays small.
The span stack is not shared safely between threads, so the benchmark only
installs the tracer around single-threaded operations.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

PACKAGE = "sta_coupler"

# (target, layer, hot).  Hot targets run once per right-hand-side evaluation
# or per written value; they are aggregated but not stored span by span.
HOOKS = [
    ("sta_coupler.schedules:_closed_form", "schedules", True),
    ("sta_coupler.schedules:raw_schedule", "schedules", True),
    ("sta_coupler.schedules:effective_schedule", "schedules", True),
    ("sta_coupler.schedules:cd_coupling", "schedules", True),
    ("sta_coupler.schedules:mixing_angle", "schedules", True),
    ("sta_coupler.schedules:diagnostics", "schedules", False),
    ("sta_coupler.propagation:HamiltonianSpec.matrix", "propagation", True),
    ("sta_coupler.propagation:propagate_adaptive", "propagation", False),
    ("sta_coupler.propagation:propagate_pwc", "propagation", False),
    ("sta_coupler.coupler:build_h2", "coupler", False),
    ("sta_coupler.coupler:simulate", "coupler", False),
    ("sta_coupler.coupler:adiabatic_projection", "coupler", False),
    ("sta_coupler.splitter:splitter_schedule", "splitter", True),
    ("sta_coupler.splitter:build_h3", "splitter", False),
    ("sta_coupler.splitter:build_reduced_h2", "splitter", False),
    ("sta_coupler.splitter:reduce_bright_dark", "splitter", False),
    ("sta_coupler.splitter:simulate_splitter", "splitter", False),
    ("sta_coupler.sweep:run_sweep", "sweep", False),
    ("sta_coupler.sweep:evaluate_cell", "sweep", False),
    ("sta_coupler.sweep:metric_value", "sweep", False),
    ("sta_coupler.sweep:threshold_length", "sweep", False),
    ("sta_coupler.sweep:robust_region_fraction", "sweep", False),
    ("sta_coupler.serialize:format_float", "serialize", True),
    ("sta_coupler.serialize:write_csv", "serialize", False),
    ("sta_coupler.serialize:write_json", "serialize", False),
    ("sta_coupler.serialize:write_sweep_csv", "serialize", False),
    ("sta_coupler.serialize:sweep_payload", "serialize", False),
    ("sta_coupler.cli:main", "cli", False),
]

# Builders whose returned generator gets its ``evaluate`` callback traced in
# the builder's layer, so that HamiltonianSpec.matrix self time is the
# validation it adds and not the matrix construction.
SPEC_BUILDERS = {"coupler.build_h2", "splitter.build_h3", "splitter.build_reduced_h2"}
SPAN_CAP = 200_000


class _Frame:
    __slots__ = ("name", "layer", "span_id", "child", "sched_below", "propagated",
                 "duration", "data")

    def __init__(self, name, layer, span_id):
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.child = 0.0
        self.sched_below = 0.0
        self.propagated = False
        self.duration = 0.0
        self.data = None


class Aggregate:
    __slots__ = ("calls", "total", "self_time", "sched_below")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.sched_below = 0.0


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.untraced: list[str] = []
        self.stack: list[_Frame] = []
        self.agg: dict[str, Aggregate] = {}
        self.layer_total: dict[str, float] = {}
        self.layer_calls: dict[str, int] = {}
        self.layer_self: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = -1
        self.counters = {
            "nfev": 0, "nfev_full": 0, "nfev_reduced": 0, "pwc_steps": 0,
            "norm_drift_max": 0.0, "cells": 0, "degenerate_cells": 0,
            "serialize_bytes": 0,
        }
        self.cell_durations: list[float] = []
        self.thresholds: list[dict] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self._signatures: dict[str, inspect.Signature] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        self.untraced = []
        for target, layer, hot in self.hooks:
            modname, _, path = target.partition(":")
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.untraced.append(target)
                continue
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
                if owner is None or attr not in vars(owner):
                    self.untraced.append(target)
                    continue
            elif not hasattr(module, attr):
                self.untraced.append(target)
                continue
            original = getattr(owner, attr)
            if not callable(original):
                self.untraced.append(target)
                continue
            short = f"{modname.rsplit('.', 1)[-1]}.{path.rsplit('.', 1)[-1]}"
            try:
                self._signatures[short] = inspect.signature(original)
            except (TypeError, ValueError):
                pass
            wrapper = self._wrap(original, short, layer, hot)
            if owner is module:
                self._rebind(original, wrapper)
            else:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
        return self

    def _rebind(self, original, wrapper) -> None:
        # Modules import each other's functions by name, so every module
        # attribute bound to the original is swapped, not just the defining one.
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _wrap(self, original, name, layer, hot):
        tracer = self
        keep = not hot
        observe = _OBSERVERS.get(name)
        wraps_spec = name in SPEC_BUILDERS

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, layer, tracer._next_id)
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, t0, perf_counter(), keep)
                if observe is not None:
                    observe(tracer, frame, args, kwargs, None, exc)
                raise
            tracer._close(frame, parent, t0, perf_counter(), keep)
            if observe is not None:
                observe(tracer, frame, args, kwargs, result, None)
            if wraps_spec:
                result = tracer._trace_evaluate(result, name, layer)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def _close(self, frame, parent, t0, t1, keep) -> None:
        self.stack.pop()
        d = frame.duration = t1 - t0
        agg = self.agg.get(frame.name)
        if agg is None:
            agg = self.agg[frame.name] = Aggregate()
        agg.calls += 1
        agg.total += d
        self_time = d - frame.child
        agg.self_time += self_time
        agg.sched_below += frame.sched_below
        layer = frame.layer
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + self_time
        if parent is None or parent.layer != layer:
            self.layer_total[layer] = self.layer_total.get(layer, 0.0) + d
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
        if parent is not None:
            parent.child += d
            parent.sched_below += d if layer == "schedules" else frame.sched_below
            if layer == "propagation" or frame.propagated:
                parent.propagated = True
        if keep:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame.span_id, parent.span_id if parent else None,
                                   self.op_id, frame.name, t0, t1))
            else:
                self.dropped_spans += 1
        else:
            self.dropped_spans += 1

    def _trace_evaluate(self, spec, name, layer):
        evaluate = getattr(spec, "evaluate", None)
        if evaluate is None or not dataclasses.is_dataclass(spec):
            return spec
        traced = self._wrap(evaluate, name.split(".")[0] + ".evaluate", layer, True)
        try:
            return dataclasses.replace(spec, evaluate=traced)
        except (TypeError, ValueError):
            return spec

    def bind(self, name, args, kwargs) -> dict:
        sig = self._signatures.get(name)
        if sig is None:
            return {}
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return {}
        bound.apply_defaults()
        return dict(bound.arguments)

    def ancestor(self, name):
        for frame in reversed(self.stack):
            if frame.name == name:
                return frame
        return None

    # -- reporting --------------------------------------------------------

    def dump(self, path) -> None:
        doc = {
            "untraced": self.untraced,
            "aggregates": {k: {"calls": a.calls, "total_s": a.total, "self_s": a.self_time,
                               "schedules_below_s": a.sched_below}
                           for k, a in sorted(self.agg.items())},
            "layers": {k: {"outermost_calls": self.layer_calls.get(k, 0),
                           "total_s": self.layer_total.get(k, 0.0),
                           "self_s": self.layer_self.get(k, 0.0)}
                       for k in sorted(self.layer_self)},
            "counters": self.counters,
            "thresholds": self.thresholds,
            "dropped_spans": self.dropped_spans,
            "span_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.spans,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


# -- observers: counters read from arguments and results ------------------

def _obs_adaptive(tr, frame, args, kwargs, result, exc):
    if exc is not None:
        return
    try:
        nfev = int(result.stats.get("nfev", 0))
        dim = int(result.states.shape[1])
        drift = float(result.norm_drift)
    except (AttributeError, TypeError, ValueError, IndexError):
        return
    tr.counters["nfev"] += nfev
    tr.counters["norm_drift_max"] = max(tr.counters["norm_drift_max"], drift)
    if tr.ancestor("splitter.simulate_splitter") is not None:
        tr.counters["nfev_full" if dim == 3 else "nfev_reduced"] += nfev


def _obs_pwc(tr, frame, args, kwargs, result, exc):
    if exc is not None:
        return
    try:
        tr.counters["pwc_steps"] += int(len(result.z) - 1)
        tr.counters["norm_drift_max"] = max(tr.counters["norm_drift_max"],
                                            float(result.norm_drift))
    except (AttributeError, TypeError, ValueError):
        return


def _obs_metric_value(tr, frame, args, kwargs, result, exc):
    if tr.ancestor("sweep.run_sweep") is not None:
        tr.counters["cells"] += 1
        tr.cell_durations.append(frame.duration)
        if not frame.propagated:
            tr.counters["degenerate_cells"] += 1
    search = tr.ancestor("sweep.threshold_length")
    if search is not None and exc is None:
        length = tr.bind("sweep.metric_value", args, kwargs).get("total_length")
        search.data = search.data or []
        search.data.append((float(length) if length is not None else None, float(result)))


def _obs_threshold(tr, frame, args, kwargs, result, exc):
    evals = frame.data or []
    target = tr.bind("sweep.threshold_length", args, kwargs).get("target")
    tr.thresholds.append({"target": target, "evals": len(evals),
                          "useful": useful_evaluations(evals, target),
                          "reached": exc is None})


def useful_evaluations(evals, target) -> int:
    """Evaluations a search needs: the ascending coarse scan up to its first
    crossing, plus every evaluation after the scan (the bisection).  A scan
    that never crosses needed all of its points."""
    if target is None or not evals:
        return len(evals)
    scan = 1
    while scan < len(evals) and evals[scan][0] is not None and evals[scan - 1][0] is not None \
            and evals[scan][0] > evals[scan - 1][0]:
        scan += 1
    hit = next((k for k in range(scan) if evals[k][1] >= target), None)
    if hit is None:
        return len(evals)
    return hit + 1 + (len(evals) - scan)


def _obs_write(tr, frame, args, kwargs, result, exc):
    if exc is not None:
        return
    path = args[0] if args else kwargs.get("path")
    try:
        tr.counters["serialize_bytes"] += os.path.getsize(path)
    except (OSError, TypeError):
        pass


_OBSERVERS = {
    "propagation.propagate_adaptive": _obs_adaptive,
    "propagation.propagate_pwc": _obs_pwc,
    "sweep.metric_value": _obs_metric_value,
    "sweep.threshold_length": _obs_threshold,
    "serialize.write_csv": _obs_write,
    "serialize.write_json": _obs_write,
    "serialize.write_sweep_csv": _obs_write,
}
