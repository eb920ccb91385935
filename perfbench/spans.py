"""In-memory span tracing of the dltl layers' public functions.

`Tracer.install()` replaces every public function of each layer module at
every binding site in the loaded `dltl.*` namespaces (a module that did
`from .meanfield import length_map` holds its own binding) with a wrapper
that records one span per call: function id, parent span, start, end.
`Tracer.restore()` puts every original binding back. Spans stay in memory
until `take()` folds them into per-function calls, self time and total
time for one pass.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Functions that callers compare by identity (`loss_fn is square_loss` in
# landscape.constant_loss_path); a wrapper would send the call down the
# other branch, so these stay unwrapped.
IDENTITY_COMPARED = frozenset({"landscape.square_loss", "landscape.logistic_loss"})


def public_functions(module) -> dict[str, object]:
    """Name -> function for the module's own non-class entries of __all__."""
    out = {}
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if obj is None or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        out[name] = obj
    return out


class Tracer:
    """Wraps the layers' public functions and records their spans."""

    def __init__(self, layers: tuple[str, ...]):
        self.layers = layers
        self.names: list[str] = []      # function id -> "layer.function"
        self._bindings: list[tuple[object, str, object]] = []
        self._fid: list[int] = []
        self._parent: list[int] = []
        self._t0: list[float] = []
        self._t1: list[float] = []
        self._stack: list[int] = []
        self.paused = False

    def _wrap(self, fid: int, fn):
        fids, parents, t0s, t1s, stack = self._fid, self._parent, self._t0, self._t1, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self.names = []
        wrappers = {}
        for layer in self.layers:
            module = sys.modules[f"dltl.{layer}"]
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                if key in IDENTITY_COMPARED:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(len(self.names), fn))
                self.names.append(key)
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "dltl" or n.startswith("dltl.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def take(self) -> dict[str, float]:
        """Fold the recorded spans into metrics and forget them.

        <layer>.<function>.calls counts spans; .self_s sums each span's
        duration minus its children's; .total_s sums durations of spans
        not nested in a span of the same function. <layer>.self_s sums the
        self time of the layer's functions.
        """
        fid = np.asarray(self._fid, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._t1) - np.asarray(self._t0)
        n_fn = len(self.names)
        child = np.zeros(fid.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        nested = np.zeros(fid.size, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= fid[anc[live]] == fid[live]
            anc[live] = parent[anc[live]]
        calls = np.bincount(fid, minlength=n_fn)
        self_s = np.bincount(fid, weights=self_time, minlength=n_fn)
        total_s = np.bincount(fid[~nested], weights=dur[~nested], minlength=n_fn)
        out: dict[str, float] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for i, key in enumerate(self.names):
            out[f"{key}.calls"] = int(calls[i])
            out[f"{key}.self_s"] = float(self_s[i])
            out[f"{key}.total_s"] = float(total_s[i])
            layer_self[key.split(".", 1)[0]] += float(self_s[i])
        for layer in self.layers:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = int(fid.size)
        for buf in (self._fid, self._parent, self._t0, self._t1):
            buf.clear()
        return out
