"""Layer tracing from outside the program.

The tracer replaces the public entry points of the lcalab layers with
timing wrappers.  A wrapper must sit in every namespace where a caller
looks the function up: ``bimaps`` and ``solver`` bind ``bracket``,
``residual`` and ``verify_map`` with ``from .x import y``, so patching
only the defining module would count nothing inside ``residual``.
``install_function`` therefore rebinds every ``lcalab.*`` module
attribute that is the original function.  ``Poly`` operators are
patched on the class, where operator dispatch looks them up.

Two kinds of wrapper share one stack of child-time accumulators, so a
layer's self time is its duration minus the time of the wrapped calls
directly beneath it:

* leaf wrappers (``Poly`` ops, ``bracket``, ``map_eval``, ``residual``)
  run millions of times and only aggregate calls, total and self time,
  keyed by the enclosing coarse span's name;
* coarse wrappers (``solve_bider``, ``assemble``, ``verify_map``, ...)
  also keep a span (name, start, end, parent) and may keep their return
  value, so counts such as rows and rank are read after the pass, outside
  every timed interval.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # (name, enclosing coarse span name) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str], list] = {}
        # one (name, start, end, parent_index) tuple per coarse call
        self.spans: list[tuple | None] = []
        # return values of coarse calls registered with keep_results=True
        self.results: dict[str, list] = {}
        self._child_time = [0.0]
        self._open_ids: list[int | None] = [None]
        self._open_names = ["root"]

    def reset(self) -> None:
        """Forget the aggregates and results of the previous pass; spans stay."""
        self.stats.clear()
        self.results.clear()

    def leaf(self, name: str, fn):
        stats, child_time, open_names = self.stats, self._child_time, self._open_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_time.pop()
                child_time[-1] += dt
                key = (name, open_names[-1])
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
        return wrapper

    def coarse(self, name: str, fn, keep_results: bool = False):
        stats, spans, results = self.stats, self.spans, self.results
        child_time, open_ids, open_names = (self._child_time, self._open_ids,
                                            self._open_names)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_ids[-1]
            span_id = len(spans)
            spans.append(None)
            open_ids.append(span_id)
            open_names.append(name)
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child_time.pop()
                child_time[-1] += dt
                open_ids.pop()
                open_names.pop()
                spans[span_id] = (name, t0, t1, parent)
                key = (name, open_names[-1])
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
            if keep_results:
                results.setdefault(name, []).append(result)
            return result
        return wrapper

    def install_function(self, module: str, attr: str, name: str, *,
                         coarse: bool = False, keep_results: bool = False) -> None:
        """Wrap ``module.attr`` wherever an lcalab module binds it."""
        original = getattr(sys.modules[module], attr)
        wrapped = (self.coarse(name, original, keep_results) if coarse
                   else self.leaf(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lcalab" and not mod_name.startswith("lcalab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def install_method(self, cls: type, attr: str, name: str) -> None:
        setattr(cls, attr, self.leaf(name, cls.__dict__[attr]))

    def totals(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        """Summed (calls, total_s, self_s) of one name, optionally under one parent."""
        calls, total, self_s = 0, 0.0, 0.0
        for (n, p), (c, t, s) in self.stats.items():
            if n == name and (parent is None or p == parent):
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def write_spans(self, path: Path) -> None:
        records = [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                   for i, s in enumerate(self.spans) if s is not None]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records))
