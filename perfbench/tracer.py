"""Spans and per-layer accumulators for the traced benchmark run.

Layers are the ``hnnkit`` modules.  Every boundary is measured from outside:
the benchmark wraps module functions it calls and methods of the instances it
created, and changes no file of the package.

* Coarse calls (a group load, a ball build, an engine run, one normal form)
  become spans held in memory: name, layer, start, end, parent span and self
  time.  ``write`` stores them when the run ends.
* Fine-grained boundaries (base-oracle and subgroup methods,
  ``HnnSpec.apply_letter``) run millions of times, so they only add to their
  layer's call counter and self-time accumulator.

Self time is a frame's duration minus the time its child frames cover.  Each
frame adds its whole duration to its parent's child time, so the self times
of all frames under a root sum to the root's duration.  A call into a layer
from inside the same layer is not a boundary crossing: it runs unwrapped and
its time stays in the enclosing frame of that layer.
"""

from __future__ import annotations

import json
from time import perf_counter

ROOT_LAYER = "bench"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, layer, parent id, start, end, self_s)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}   # per span name
        # frame = [layer, child seconds, span id]; the root frame is never popped
        self._stack: list[list] = [[ROOT_LAYER, 0.0, -1]]

    def _layer(self, layer: str):
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a recorded span."""
        self._layer(layer)
        stack = self._stack
        parent = stack[-1]
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; children get higher ids
        frame = [layer, 0.0, sid]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dt = t1 - t0
            parent[1] += dt
            own = dt - frame[1]
            self.spans[sid] = (sid, name, layer, parent[2], t0, t1, own)
            self.calls[layer] += 1
            self.self_s[layer] += own
            self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + dt

    def wrap_span(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def fine(self, layer: str, fn, after=None):
        """Counting wrapper for a hot boundary.

        after(args, result), if given, sees every call that enters the layer.
        """
        self._layer(layer)
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = perf_counter

        def traced(*args):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args)
            frame = [layer, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                calls[layer] += 1
                self_s[layer] += dt - frame[1]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def instrument(self, obj, layer: str, names, after=None):
        """Replace the named methods of one instance by fine wrappers, once."""
        after = after or {}
        for name in names:
            method = getattr(obj, name, None)
            if method is not None and not hasattr(method, "__wrapped__"):
                setattr(obj, name, self.fine(layer, method, after.get(name)))

    def write(self, path):
        fields = ("id", "name", "layer", "parent", "start", "end", "self_s")
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [dict(zip(fields, s)) for s in self.spans if s is not None],
                    "calls": self.calls,
                    "self_s": self.self_s,
                },
                fh,
            )
