"""Span tracing of the nsfd layers, installed from outside the package.

Every function named in the ``__all__`` of an nsfd module is replaced by
one wrapper at every binding site inside the package: ``from .linalg
import lu_solve`` gives ``nsfd.integrator`` a second name for the same
function, and each call must pass through exactly one wrapper.  A span is
(name, parent, start, end, rows); ``rows`` is the batch size of the
batched functions and 0 elsewhere.  Spans stay in flat arrays while the
run measures.  Private helpers are not wrapped, so their time shows up in
their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "analysis", "invariance", "integrator", "linalg", "model", "models")

# Positional index of the argument whose length is the batch size.
ROWS_ARG = {
    "linalg.lu_solve_batch": 0,
    "integrator.step_forward_batch": 1,
}


def _package_modules(package: str):
    return [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]


class Tracer:
    """Wraps the public functions of the layers; records one span per call."""

    def __init__(self, package: str = "nsfd"):
        self.package = package
        self.names: list[str] = []
        self.originals: list = []
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self.names.append(f"{layer}.{attr}")
                    self.originals.append(fn)
        self.ids, self.parents, self.rows = array("i"), array("q"), array("q")
        self.starts, self.ends = array("d"), array("d")
        self._stack = [-1]
        self.wrappers = [self._wrap(i, fn) for i, fn in enumerate(self.originals)]
        self._by_id = {id(fn): w for fn, w in zip(self.originals, self.wrappers)}
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans in place; the wrappers keep the same arrays."""
        for arr in (self.ids, self.parents, self.starts, self.ends, self.rows):
            del arr[:]
        self._stack[:] = [-1]

    def _wrap(self, nid: int, fn):
        ids, parents, starts, ends, rows, stack = (
            self.ids, self.parents, self.starts, self.ends, self.rows, self._stack
        )
        rows_arg = ROWS_ARG.get(self.names[nid])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            rows.append(len(args[rows_arg]) if rows_arg is not None and len(args) > rows_arg else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__traced__ = fn
        return traced

    def install(self) -> None:
        for mod in _package_modules(self.package):
            for attr, value in list(vars(mod).items()):
                wrapper = self._by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def binding_problems(self) -> list[str]:
        """Bindings that would count a call twice or not at all while installed."""
        problems = []
        originals = {id(fn) for fn in self.originals}
        for mod in _package_modules(self.package):
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    problems.append(f"{mod.__name__}.{attr} still bound to the unwrapped function")
                inner = getattr(value, "__traced__", None)
                if inner is not None and (hasattr(inner, "__traced__") or value is not self._by_id.get(id(inner))):
                    problems.append(f"{mod.__name__}.{attr} is not the single wrapper of its function")
        return problems

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
        }


def summarize(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, float]:
    """Per-function calls, rows and self time of one op, plus the layer totals.

    Self time is a span's duration minus the durations of its direct
    children; calls inside one thread nest, so children never overlap.
    """
    k = len(names)
    nid, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)
    self_s = dur - child
    out: dict[str, float] = {
        "self_sum_s": float(self_s.sum()),
        "min_self_s": float(self_s.min()) if nid.size else 0.0,
    }
    calls = np.bincount(nid, minlength=k)
    selfs = np.bincount(nid, weights=self_s, minlength=k)
    rows = np.bincount(nid, weights=spans["rows"], minlength=k)
    for i, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(selfs[i])
        out[f"{name}.rows"] = int(rows[i])
    for layer in LAYERS:
        members = [i for i, name in enumerate(names) if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = int(calls[members].sum())
        out[f"{layer}.self_s"] = float(selfs[members].sum())
    parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

    def called_by(child: str, parent_fn: str) -> np.ndarray:
        return (nid == names.index(child)) & (parent_name == names.index(parent_fn))

    out["newton_solves"] = int(called_by("linalg.lu_solve", "analysis.find_equilibria").sum())
    batches = called_by("integrator.step_forward_batch", "invariance.invariance_audit")
    out["audit_rows"] = int(spans["rows"][batches].sum())
    return out
