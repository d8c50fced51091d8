"""Layer spans recorded from outside the package.

``Tracer.install`` wraps every function defined in a layer module of
``thueplane`` and rebinds the wrapper at every place the original is bound:
the module attribute, each layer module that imported it by name (``verify``
and ``words`` bind ``find_square``, ``colour`` binds the ``words`` helpers)
and the package namespace.  ``EmbeddedGraph.__init__`` is wrapped too, so
every graph built is a span.  ``uninstall`` restores the originals.  Nothing
under ``src/`` changes.

Methods of the graph and colouring classes are not wrapped: they are short
accessors called millions of times, and their time counts toward the layer
that called them.

Spans (name, start, end, parent) are kept in flat arrays while the traced
code runs and reduced once, at the end, to per-layer self times: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import array
import json
import time
import types

import thueplane
from thueplane import blocking, colour, embed, gen, kernels, verify, words

LAYERS = {
    "gen": gen,
    "embed": embed,
    "blocking": blocking,
    "colour": colour,
    "words": words,
    "verify": verify,
    "kernels": kernels,
}

#: spans the benchmark opens itself (one per item, one per traced set-up)
BENCH_LAYER = "bench"


def _layer_callables(module):
    """Module-level functions (and ``lru_cache`` wrappers) defined in ``module``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"))
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names = []  # span name id -> "layer.function"
        self._name_ids = {}
        self.span_name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self._stack = [-1]
        self.symbols = 0  # summed length of sequences passed to the kernel
        self._patches = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, count_symbols=False):
        nid = self._name_id(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if count_symbols:
                tracer.symbols += len(args[0])
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, self._name_id(f"{BENCH_LAYER}.{name}"))

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for layer, module in LAYERS.items():
            for name, fn in _layer_callables(module).items():
                count = module is kernels and name == "find_square"
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", count_symbols=count)
        for owner in [thueplane, *LAYERS.values()]:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._patch(owner, attr, wrappers[id(obj)])
        init = embed.EmbeddedGraph.__init__
        self._patch(embed.EmbeddedGraph, "__init__", self._wrap(init, "embed.EmbeddedGraph"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction -------------------------------------------------------

    def summary(self):
        """Per-layer totals: ``self_s``, ``calls`` (entries into the layer
        from another layer or from the benchmark), ``spans``; per-name span
        ``count`` and inclusive ``total_s``."""
        n = len(self.span_name)
        layer_of_name = [name.split(".", 1)[0] for name in self.names]
        child = [0.0] * n
        start, end, parent, span_name = self.start, self.end, self.parent, self.span_name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layers = {}
        names = {}
        for i in range(n):
            nid = span_name[i]
            layer = layer_of_name[nid]
            dur = end[i] - start[i]
            row = layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "spans": 0})
            row["self_s"] += dur - child[i]
            row["spans"] += 1
            p = parent[i]
            if p < 0 or layer_of_name[span_name[p]] != layer:
                row["calls"] += 1
            by_name = names.setdefault(self.names[nid], {"count": 0, "total_s": 0.0})
            by_name["count"] += 1
            by_name["total_s"] += dur
        return {"layers": layers, "names": names, "spans": n, "kernel_symbols": self.symbols}

    def dump(self, path):
        """Write every span, times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer, nid):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        t = self._tracer
        self._i = len(t.span_name)
        t.span_name.append(self._nid)
        t.parent.append(t._stack[-1])
        t.end.append(0.0)
        t._stack.append(self._i)
        t.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self._tracer
        t.end[self._i] = time.perf_counter()
        t._stack.pop()
        return False
