"""In-memory span tracing around the public functions of each dilogic layer.

The tracer is installed only while a traced pass runs: it replaces module
attributes such as ``dilogic.transform.build_level_assignment`` with
wrappers that open a span, so calls made from one layer into another
nest under the caller's span and, at the top, under the benchmark's
``op`` span.  Module-internal calls go through the same module globals,
so they are seen too.  A direct recursive call of a wrapped function
(``rewrite_inf`` calling itself) opens no new span.

Spans stay in memory as tuples and are written out by ``dump`` when the
run ends.  Self time is a span's duration minus the durations of its
direct children (spans of one thread never overlap).
"""

from __future__ import annotations

import gzip
import json
import os
from time import perf_counter

SPAN_FIELDS = ("id", "parent", "op", "name", "start_s", "end_s")


class LayerTotals:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.layers = {}
        self._stack = []      # open spans: [name, id, child_s, start]
        self._depth = {}      # name -> open spans of that name
        self._wrappers = []   # (module, attr, original, wrapper)
        self.op_index = -1

    def open(self, name):
        span_id = len(self.spans)
        self.spans.append(None)  # reserved; filled in by close
        self._stack.append([name, span_id, 0.0, perf_counter()])
        self._depth[name] = self._depth.get(name, 0) + 1

    def close(self):
        end = perf_counter()
        name, span_id, child_s, start = self._stack.pop()
        self._depth[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[span_id] = (span_id, parent[1] if parent else None,
                               self.op_index, name, start, end)
        totals = self.layers.get(name)
        if totals is None:
            totals = self.layers[name] = LayerTotals()
        totals.calls += 1
        totals.self_s += duration - child_s
        if self._depth[name] == 0:
            # Busy time counts a layer once when its spans nest indirectly.
            totals.busy_s += duration

    def run_op(self, fn, *args):
        """Run one benchmark op under a root span named ``op``."""
        self.op_index += 1
        self.open("op")
        try:
            return fn(*args)
        finally:
            self.close()

    def wrap(self, module, attr, layer):
        """Register a span-opening wrapper for module.attr; it replaces the
        attribute only while the tracer is entered (``with tracer:``).

        ``layer`` is a layer name, or a function of the call's arguments
        that returns one (eval_mba's layer depends on its mode).
        """
        original = getattr(module, attr)
        namer = layer if callable(layer) else (lambda _a, _k: layer)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                # Outside any op: the benchmark's own checks and counters.
                return original(*args, **kwargs)
            name = namer(args, kwargs)
            if tracer._stack[-1][0] == name:
                return original(*args, **kwargs)
            tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close()

        self._wrappers.append((module, attr, original, wrapper))

    def __enter__(self):
        for module, attr, _original, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _wrapper in self._wrappers:
            setattr(module, attr, original)
        return False

    def layer_calls(self):
        return {name: t.calls for name, t in self.layers.items()}

    def dump(self, path, header):
        """Write every span, with the run header, as gzipped JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {"header": header, "fields": list(SPAN_FIELDS),
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
