"""Spans recorded from outside the program.

The tracer replaces each public function named in ``TRACED`` by a
wrapper, in every loaded ``gcsl`` module that refers to it, so that calls
the library makes internally (``canonicalize`` calling ``geometry``,
``first_difference`` calling ``enumerate_language``, ``cli.main`` calling
``decide``) become child spans too.  Private helpers and the ``core``
occurrence scan are not wrapped: their time counts as self time of the
public function that called them.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TRACED = {
    "textio": ("parse_system", "serialize_system", "first_difference",
               "format_trace", "format_diagram"),
    "transforms": ("nca_to_gcsg", "reachable_symbols"),
    "nca": ("decide", "legal_moves", "enumerate_language"),
    "grammar": ("member", "generate_language"),
    "history": ("from_moves", "geometry", "canonicalize", "equivalent"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` indexes
    the enclosing span or is -1, and ``op`` identifies the benchmark
    operation during which it ran.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gcsl" or n.startswith("gcsl."))]
        for layer, names in TRACED.items():
            home = sys.modules["gcsl." + layer]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self):
        """Per span name: call count and total nanoseconds.  Per layer: self
        nanoseconds, counting only spans inside benchmark operations (``op``
        an int), not set-up or probes between operations."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0)
        for i, (name, start, end, _, op) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            if isinstance(op, int):
                layer_self[name.split(".", 1)[0]] += end - start - child_ns[i]
        return calls, total, layer_self

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")
