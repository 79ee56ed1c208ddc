"""Spans around the package's public calls, and the arithmetic on them.

The recorder runs inside one traced CLI process.  It wraps every public
function, constructor and method of the package's modules, records one span
per call (name, start, end, parent) in flat arrays, reads a few counts from
return values, and writes everything to one ``.npz`` file at exit.  The
analysis half runs in the benchmark process and turns span files into self
times per layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "reports", "planar", "polygons", "duality", "curves", "billiards", "sampling")


def _minimize_counts(counts, args, out, ns):
    counts["polygons.descents"] += 1
    counts["polygons.iterations"] += out.iterations
    counts["polygons.converged"] += int(bool(out.converged))
    parity = "odd" if int(args[0]) % 2 else "even"
    counts[f"polygons.descent_{parity}_ns"] += ns


def _add(key: str, amount):
    def count(counts, args, out, ns):
        counts[key] += amount(out)

    return count


# Counts read from return values, keyed by span name.
COUNTERS = {
    "polygons.minimize_energy": _minimize_counts,
    "billiards.far_field_error": _add("billiards.map_steps", lambda out: out.steps),
    "billiards.billiard_orbit": _add("billiards.map_steps", lambda out: out.shape[0] - 1),
    "curves.deficit_search": _add(
        "curves.objective_evals", lambda out: out.results["objective_evaluations"]
    ),
    "reports.Report.to_json_bytes": _add("reports.bytes_out", len),
    "reports.sweep_csv_bytes": _add("reports.bytes_out", len),
}


class Recorder:
    """Span store for one process; spans nest through an explicit call stack."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        count = COUNTERS.get(span_name)
        clock = time.perf_counter_ns
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out, end[idx] - start[idx])
            return out

        return traced

    def install(self, package: str) -> int:
        """Wrap the public callables of the layer modules; patch every namespace.

        Modules import each other's names directly (``billiards`` holds
        ``area_form`` from ``planar``), so every module of the package that
        holds a wrapped function gets the wrapper under the same name.
        """
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".", 1)[0] != package:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        return len(self.names)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(prefix, obj))
            elif attr.startswith("_"):
                continue
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", obj))

    def dump(self, path: str, marks: dict) -> None:
        meta = {"names": self.names, "counts": dict(self.counts), "marks": marks}
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one call stack, so children of a span are disjoint and
    lie inside it; their covered time is the sum of their durations.
    """
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def load(path: str) -> dict:
    with np.load(path, allow_pickle=False) as data:
        out = {k: data[k] for k in ("name", "parent", "start", "end")}
        out.update(json.loads(str(data["meta"])))
    return out


def summarize(trace: dict) -> dict:
    """Per-command figures in seconds: layer self times, per-name totals and calls.

    ``marks`` holds the process clock at four points: before the package
    import (t0), after it (t1), after the wrappers are installed (t2) and
    after ``cli.main`` returned (t3).  The in-process time is t3 - t0.
    """
    names = trace["names"]
    idx = trace["name"]
    selfs = self_times(trace["parent"], trace["start"], trace["end"]) * 1e-9
    dur = (trace["end"] - trace["start"]) * 1e-9
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    layer_self = np.bincount(layer_of[idx], weights=selfs, minlength=len(LAYERS))
    total = np.bincount(idx, weights=dur, minlength=len(names))
    calls = np.bincount(idx, minlength=len(names))
    marks = trace["marks"]
    import_s = (marks["t1"] - marks["t0"]) * 1e-9
    in_process = (marks["t3"] - marks["t0"]) * 1e-9
    attributed = import_s + float(np.sum(layer_self))
    return {
        "self_s": {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS)},
        "total_s": {n: float(total[i]) for i, n in enumerate(names) if calls[i]},
        "calls": {n: int(calls[i]) for i, n in enumerate(names) if calls[i]},
        "counts": dict(trace["counts"]),
        "import_s": import_s,
        "in_process_s": in_process,
        "unattributed_share": abs(in_process - attributed) / in_process,
        "spans": int(idx.size),
    }
