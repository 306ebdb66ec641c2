"""Outside-in span recorder for pintda.

The recorder wraps pintda functions from outside the package.  A function is
replaced at every pintda module attribute that holds it, which is where its
callers look it up: `parareal.run_mps` is wrapped as well as `dd_mps.run_mps`,
because parareal imports `run_mps` by name.  A target that no longer exists
is reported as absent, so the traced run survives refactors that delete or
rename functions.

Each call records one span: name, start, end, parent span and operation id.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and per-call observations, kept in memory for one run."""

    def __init__(self):
        # one list per span: [name, start, end, parent index, op id, child seconds]
        self.spans = []
        self.observed = defaultdict(lambda: defaultdict(list))  # op -> key -> values
        self.op = None
        self._stack = []

    def wrap(self, name, fn, observe=None):
        """Return fn recording a span per call; observe(tracer, result) may
        extract small facts from the result while the span's op is current."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][5] += span[2] - span[1]
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def note(self, key, value):
        self.observed[self.op][key].append(value)

    def per_op(self):
        """op -> span name -> {"s", "self_s", "calls", "under_parareal"}; the
        last counts calls whose direct parent is a parareal span."""
        out = defaultdict(lambda: defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "under_parareal": 0}))
        for name, start, end, parent, op, child_s in self.spans:
            entry = out[op][name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s
            entry["calls"] += 1
            if parent is not None and self.spans[parent][0].startswith("parareal."):
                entry["under_parareal"] += 1
        return out


@contextlib.contextmanager
def installed(tracer, targets, observers):
    """Wrap each (module, attribute) target inside the block; yields the
    names of the targets that do not exist."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "pintda" or key.startswith("pintda.")]
    undo, absent = [], []
    for module_name, attr in targets:
        name = f"{module_name}.{attr}"
        fn = getattr(sys.modules.get(f"pintda.{module_name}"), attr, None)
        if not callable(fn):
            absent.append(name)
            continue
        traced = tracer.wrap(name, fn, observers.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, key, value))
                    setattr(module, key, traced)
    try:
        yield absent
    finally:
        for module, key, value in reversed(undo):
            setattr(module, key, value)
