"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` wraps every public function and public method defined in
the listed modules and rebinds the wrapper in every namespace that binds the
original: module globals (so ``gnrefine.estimate_uls`` and ``dac.gn_step``
are traced), classes, and the estimator dispatch table. Each thread keeps
its own parent stack; spans stay in memory in flat arrays and are returned
once by ``Tracer.spans``.

A span's self time is its duration minus the durations of its direct
children. Children run on the span's own thread and nest inside it, so the
self times of a thread's spans add up to the durations of its top-level
spans. Worker threads of a pool start with an empty stack.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "root"


class _Buffer:
    """One thread's spans: parallel arrays indexed by open order."""

    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.n = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.failures: Counter = Counter()
        self.counters: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _open(self, name_id: int, n: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.name)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.n.append(n)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return buf, idx

    @staticmethod
    def _close(buf: _Buffer, idx: int) -> None:
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, such as the run's root."""
        handle = self._open(self._name_id(name), 0)
        try:
            yield
        finally:
            self._close(*handle)

    def wrap(self, name: str, fn, measure_n: bool = False, probe=None, count_failures: bool = False):
        """Traced version of ``fn``; ``probe(result)`` returns counter increments."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = 0
            if measure_n and args:
                value = getattr(args[0], "n", 0)
                n = value if type(value) is int else 0
            buf, idx = tracer._open(name_id, n)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if count_failures:
                    with tracer._lock:
                        tracer.failures[type(exc).__name__] += 1
                raise
            finally:
                tracer._close(buf, idx)
            if probe is not None:
                try:
                    increments = probe(result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    increments = {"probe_errors": 1}
                with tracer._lock:
                    tracer.counters.update(increments)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package, layers, measure_layers=(), probes=None, dispatch=None):
        """Wrap the public functions of ``package.<layer>`` for each layer
        the package has.

        ``dispatch`` is ``(layer, attribute)`` naming a dict of estimator
        entry points; each entry becomes a span ``<layer>.<key>`` that also
        counts the exceptions leaving it.
        """
        probes = probes or {}
        modules = {layer: getattr(package, layer) for layer in layers if hasattr(package, layer)}
        replaced: dict[int, object] = {}

        def wrapped(qualname, layer, fn):
            new = self.wrap(qualname, fn, layer in measure_layers, probes.get(qualname))
            replaced[id(fn)] = new
            return new

        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped(f"{layer}.{attr}", layer, value)
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    for meth, raw in list(vars(value).items()):
                        if meth.startswith("_"):
                            continue
                        qual = f"{layer}.{attr}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)) and inspect.isfunction(raw.__func__):
                            setattr(value, meth, type(raw)(wrapped(qual, layer, raw.__func__)))
                        elif inspect.isfunction(raw):
                            setattr(value, meth, wrapped(qual, layer, raw))

        # Rebind in every namespace that holds an original function.
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

        if dispatch is not None and hasattr(modules.get(dispatch[0]), dispatch[1]):
            layer, attr = dispatch
            table = getattr(modules[layer], attr)
            for key, entry in list(table.items()):
                if isinstance(entry, functools.partial) and id(entry.func) in replaced:
                    entry = functools.partial(replaced[id(entry.func)], *entry.args, **entry.keywords)
                elif id(entry) in replaced:
                    entry = replaced[id(entry)]
                label = getattr(key, "value", key)
                table[key] = self.wrap(f"{layer}.{label}", entry, measure_n=True, count_failures=True)

    # -- output ------------------------------------------------------------

    def spans(self) -> dict:
        """All spans as flat arrays; parent indices are global."""
        columns = {key: [] for key in ("name", "parent", "n", "start", "end", "thread")}
        offset = 0
        for number, buf in enumerate(self._buffers):
            parent = np.array(buf.parent, dtype=np.int64)
            columns["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "n", "start", "end"):
                columns[key].append(np.array(getattr(buf, key)))
            columns["thread"].append(np.full(len(buf.name), number, dtype=np.int64))
            offset += len(buf.name)
        out = {key: np.concatenate(parts) if parts else np.zeros(0) for key, parts in columns.items()}
        out["names"] = list(self._names)
        return out


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - child


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def function_of(name: str) -> str:
    """``layer.function`` with any class name dropped: ``preprocess.from_csv``."""
    parts = name.split(".")
    return f"{parts[0]}.{parts[-1]}"


def aggregate(spans: dict) -> dict:
    """Per-span-name totals: calls, self seconds and layer-entry n.

    ``entry_n`` sums the measurement count of spans entered from another
    layer, the base for a layer's time per measurement.
    """
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    self_s = self_times(parent, spans["start"], spans["end"])
    layers = sorted({layer_of(x) for x in names})
    layer_ids = np.array([layers.index(layer_of(x)) for x in names], dtype=np.int64)
    span_layer = layer_ids[name] if len(name) else np.zeros(0, np.int64)
    parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
    entry_n = np.where(parent_layer != span_layer, spans["n"], 0)
    size = len(names)
    calls = np.bincount(name, minlength=size)
    self_sum = np.bincount(name, weights=self_s, minlength=size)
    n_sum = np.bincount(name, weights=entry_n, minlength=size)
    return {
        label: {"calls": int(calls[i]), "self_s": float(self_sum[i]), "entry_n": int(n_sum[i])}
        for i, label in enumerate(names)
    }


def check_nesting(spans: dict) -> float:
    """Worst nesting error in seconds: zero when every span lies inside its
    parent and each thread's self times add up to its top-level spans (on
    the main thread, the root span)."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    child = parent >= 0
    overshoot = np.maximum(start[parent[child]] - start[child], end[child] - end[parent[child]])
    worst = float(overshoot.max()) if overshoot.size else 0.0
    self_s = self_times(parent, start, end)
    for thread in np.unique(spans["thread"]):
        mask = spans["thread"] == thread
        top = mask & ~child
        worst = max(worst, abs(float(self_s[mask].sum() - (end[top] - start[top]).sum())))
    return worst
