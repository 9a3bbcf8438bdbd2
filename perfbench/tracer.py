"""Spans and counts around calls into topocsp's public functions.

Each function is wrapped where its caller looks it up (for example
projection.build_graph, not graphs.build_graph), so the program's own code
runs unchanged and only the lookups are redirected while a trace is active.
A span records its name, start, end, parent span and solve id; spans are
kept in memory and written out once, when the run ends. A span's self time
is its duration minus the durations of its child spans; calls are nested
and single-threaded, so children never overlap.
"""
from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self.solve_id = -1
        self._stack = []  # [span index, seconds covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append([i, 0.0])
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        t = time.perf_counter()
        j, covered = self._stack.pop()
        if j != i:
            raise RuntimeError(
                f"span {self.names[self.name[i]]} closed out of order")
        self.end[i] = t
        dur = t - self.start[i]
        name = self.names[self.name[i]]
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def clear_totals(self):
        """Start new per-round totals; recorded spans are kept."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def write(self, path):
        rows = {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "solve": self.solve.tolist()}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            json.dump(rows, f)


def _wrap(tracer, name, fn):
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _wrap_sweep(tracer, name, fn):
    def wrapper(states, *args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(states, *args, **kwargs)
        finally:
            tracer.close(i)
        # compared after the span closed, so its self time excludes the check
        if np.array_equal(out[0], states):
            tracer.counts[name + ".unchanged"] += 1
        return out
    return wrapper


def _wrap_project(tracer, name, fn, error):
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except error:
            tracer.counts[name + ".diverged"] += 1
            raise
        finally:
            tracer.close(i)
    return wrapper


@contextmanager
def traced(tracer):
    """Redirect the call sites below to wrappers for the duration."""
    from topocsp import constraints, errors, problems, projection, solver
    sites = [  # (module the caller looks the name up in, name, layer)
        (constraints, "loss_gradient", "constraints.loss_gradient"),
        (constraints, "loss_components", "constraints.loss_components"),
        (projection, "build_graph", "graphs.build_graph"),
        (projection, "node_step_scales", "curvature.node_step_scales"),
        (projection, "delta_step", "delta.delta_step"),
        (projection, "sweep_once", "projection.sweep_once"),
        (solver, "project_states", "projection.project_states"),
        (solver, "cma_ask", "cmaes.cma_ask"),
        (solver, "cma_tell", "cmaes.cma_tell"),
        (solver, "physics_aware_init", "problems.physics_aware_init"),
        (solver, "solve", "solver.solve"),
        (problems, "generate_instance", "problems.generate_instance"),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
    try:
        for mod, attr, layer in sites:
            fn = getattr(mod, attr)
            if layer == "projection.sweep_once":
                w = _wrap_sweep(tracer, layer, fn)
            elif layer == "projection.project_states":
                w = _wrap_project(tracer, layer, fn, errors.DivergenceError)
            else:
                w = _wrap(tracer, layer, fn)
            setattr(mod, attr, w)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
