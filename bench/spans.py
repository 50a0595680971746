"""Span tracing of the coso layers from outside the package.

``Tracer.install`` replaces every public function and every public method of
the classes defined in the traced modules with a wrapper that records one
span (name, start, end, parent span) per call.  Spans are kept in flat
in-memory arrays and written out once, when the run ends.  Nothing under
``src/`` is edited: the wrappers are set on the module and class objects and
removed again by ``uninstall``.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("coso_rl", "policy", "textmdp", "counterfactual", "scm", "harness",
          "tabular", "checkpoint")
ROOT_LAYER = "bench"  # spans the benchmark opens itself (setup, rounds)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "coso") -> None:
        """Wrap the public callables of every module in LAYERS."""
        wrapped = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                    self._set(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # names imported into other modules ("from .textmdp import make_env")
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(name, obj.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(self.names, np.frombuffer(self.name_id, dtype=np.int32),
                     np.frombuffer(self.parent, dtype=np.int32),
                     np.frombuffer(self.start, dtype=np.int64),
                     np.frombuffer(self.end, dtype=np.int64))

    def save(self, path) -> None:
        s = self.spans()
        np.savez(path, names=np.array(self.names), name_id=s.name_id,
                 parent=s.parent, start_ns=s.start, end_ns=s.end)


class Spans:
    """Read-only view of a finished trace with self times per span."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id, self.parent = name_id, parent
        self.start, self.end = start, end
        self.dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_ns = self.dur - child
        # index of each span's outermost ancestor (parents precede children)
        top = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            nxt = top[top]
            if np.array_equal(nxt, top):
                break
            top = nxt
        self.top = top

    def ids(self, *names) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names],
                        dtype=np.int32)

    def mask(self, *names, parent: str | None = None,
             under: str | None = None) -> np.ndarray:
        """Spans with one of the names, optionally with a given parent name
        or below an outermost span of a given name."""
        m = np.isin(self.name_id, self.ids(*names))
        if parent is not None:
            has = self.parent >= 0
            pm = np.zeros_like(m)
            pm[has] = np.isin(self.name_id[self.parent[has]], self.ids(parent))
            m &= pm
        if under is not None:
            m &= np.isin(self.name_id[self.top], self.ids(under))
        return m

    def calls(self, *names, **kw) -> int:
        return int(np.count_nonzero(self.mask(*names, **kw)))

    def total_ns(self, *names, **kw) -> float:
        return float(np.sum(self.dur[self.mask(*names, **kw)]))

    def self_ns_by_layer(self, under: str | None = None) -> dict:
        layer_of = np.array([n.split(".")[0] for n in self.names])
        m = np.ones(len(self.dur), dtype=bool)
        if under is not None:
            m = np.isin(self.name_id[self.top], self.ids(under))
        out = {}
        for layer in (ROOT_LAYER,) + LAYERS:
            sel = m & (layer_of[self.name_id] == layer)
            out[layer] = float(np.sum(self.self_ns[sel]))
        return out
