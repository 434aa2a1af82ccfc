"""Outside-in tracer for the cansol layers.

The library has no instrumentation of its own, so the tracer wraps public
functions from the outside: each public function of a layer module is
replaced, in every cansol module namespace that bound it (``from .geometry
import christoffel`` makes a second binding), by a wrapper that records a
span (name, start, end, parent).  ``MetricField.at`` is wrapped on the
class.  Spans stay in memory; self time is a span's duration minus the
durations of its direct children.  Exceptions are counted once, at the
innermost traced function they leave, by module and class.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("geometry", "backgrounds", "canonical", "track", "harnack", "reports", "cli")


def self_times(parents, durations) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(durations, dtype=np.int64)
    own = durations.copy()
    child = parents >= 0
    np.subtract.at(own, parents[child], durations[child])
    return own


class Tracer:
    """Records spans of wrapped functions while installed (``with tracer:``)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.wrapped: dict = {}          # original function -> its wrapper
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        """Drop recorded spans and error counts."""
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.span_name)
            stack = self._stack
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(i)
            self.span_start[i] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_traced", False):
                    exc._traced = True
                    self.errors[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                self.span_end[i] = clock()
                stack.pop()

        return traced

    def _modules(self):
        return [importlib.import_module("cansol")] + [
            importlib.import_module(f"cansol.{m}") for m in LAYERS]

    def __enter__(self):
        modules = self._modules()
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapped = self.wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
                for ns in modules:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapped)
        geometry = modules[1 + LAYERS.index("geometry")]
        self._patch(geometry.MetricField, "at",
                    self.wrap("geometry.MetricField.at", geometry.MetricField.at))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def summary(self) -> dict:
        """Per traced name: ``calls`` and ``self_s`` over the recorded spans."""
        names = np.asarray(self.span_name, dtype=np.int64)
        dur = (np.asarray(self.span_end, dtype=np.int64)
               - np.asarray(self.span_start, dtype=np.int64))
        own = self_times(self.span_parent, dur)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_ns = np.bincount(names, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_ns[i]) * 1e-9}
                for i, name in enumerate(self.names)}

    def spans(self) -> dict:
        """Recorded spans as columns, for writing out."""
        return {"names": list(self.names), "name": list(self.span_name),
                "parent": list(self.span_parent), "start_ns": list(self.span_start),
                "end_ns": list(self.span_end)}
