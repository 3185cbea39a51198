"""In-memory span recorder for the benchmark's traced runs.

A span is one call into svkit: name, start, end, parent span and the run
unit it belongs to (one set-up or one measured pass). Spans come from
wrappers that the benchmark installs on svkit module attributes for a
traced unit and removes afterwards, so untraced passes run the library
unmodified. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._unit = None
        self._patched = []

    @contextlib.contextmanager
    def unit(self, kind, index):
        """One set-up or pass; its root span is named `bench.<kind>`."""
        self._unit = (kind, index)
        try:
            with self.span(f"bench.{kind}"):
                yield
        finally:
            self._unit = None

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": f"{self._unit[0]}-{self._unit[1]}" if self._unit else None,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "failed": False,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, count=None):
        """fn wrapped so that each call records a span.

        `name` is a string or a function of the call's arguments.
        `count(span, arguments, result)` may add counts to
        `span["counts"]` or mark it failed; `arguments` maps every
        parameter name to its bound value, defaults included.
        """
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(rec, bound.arguments, result)
            return result

        return traced

    def install(self, points):
        """Replace each (module, attribute, name, count) point by a traced
        wrapper until `uninstall`."""
        for module, attr, name, count in points:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def unit_totals(self):
        """{run: {metric: value}} with `<span>.s` (self time: duration
        minus the time covered by direct children), `<span>.calls`,
        `<span>.failed` and every count, summed over the unit's spans."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        totals = {}
        for rec, covered in zip(self.spans, child_time):
            unit = totals.setdefault(rec["run"], {})
            name = rec["name"]
            _add(unit, f"{name}.s", rec["end"] - rec["start"] - covered)
            _add(unit, f"{name}.calls", 1)
            _add(unit, f"{name}.failed", int(rec["failed"]))
            for key, value in rec["counts"].items():
                _add(unit, key, value)
        return totals


def _add(d, key, value):
    d[key] = d.get(key, 0) + value


def summarize(unit_totals, scale=None):
    """Per-unit totals folded into one value per metric.

    Each metric is the median over the units of one kind (set-ups or
    passes, 0 where a unit lacks it), summed over the kinds; `.failed`
    metrics are totals over all units. `scale` maps a run to the factor
    its `.s` times are multiplied by first.
    """
    by_kind = {}
    for run, values in unit_totals.items():
        factor = (scale or {}).get(run, 1.0)
        values = {k: v * factor if k.endswith(".s") else v
                  for k, v in values.items()}
        by_kind.setdefault(run.split("-")[0], []).append(values)
    out = {}
    for units in by_kind.values():
        for key in {k for u in units for k in u}:
            column = [u.get(key, 0) for u in units]
            value = sum(column) if key.endswith(".failed") else statistics.median(column)
            _add(out, key, value)
    return out
