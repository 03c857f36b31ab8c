"""In-memory tracer that wraps kvnlab's public functions from outside.

A wrapped function either records one span per call (name, start, end,
enclosing span) or, for the scalar functions called about 10^5 times per
run, is only counted: its calls, total time and self time are aggregated
and the time is charged to the enclosing span. Work counts (samples,
points, term pairs, grid steps) are collected at the same boundaries.
Everything stays in memory until ``dump`` is called at the end of the run.
"""

from __future__ import annotations

import sys
import time
import warnings


class _Frame:
    __slots__ = ("span", "child_s")

    def __init__(self, span):
        self.span = span  # index into Tracer.spans, or None for a counted call
        self.child_s = 0.0  # time of direct children (counted frames only)


class Tracer:
    """Span and counter store for one single-threaded run."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []  # [name, start, end, parent, counted_s]
        self.counted = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> work count
        self._stack = []

    def add(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so that each call records a span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                parent_index = -1
            elif parent.span is None:
                # Charged to the counted call it runs under, so the enclosing
                # span must not subtract it a second time.
                parent_index = -2
            else:
                parent_index = parent.span
            rec = [name, 0.0, 0.0, parent_index, 0.0]
            spans.append(rec)
            stack.append(_Frame(len(spans) - 1))
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent is not None and parent.span is None:
                    parent.child_s += rec[2] - rec[1]
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn, count=None):
        """Wrap ``fn`` so that its calls are counted and timed in aggregate."""
        stack, clock = self._stack, self.clock
        stat = self.counted.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            frame = _Frame(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame.child_s
                if stack and stack[-1].span is None:
                    stack[-1].child_s += dur
                elif stack:
                    self.spans[stack[-1].span][4] += dur
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counted": self.counted,
            "counts": self.counts,
        }


def replace_everywhere(obj, wrapper, prefix: str = "kvnlab"):
    """Rebind every module attribute under ``prefix`` that is ``obj``.

    The runner and the layers call each other through names imported into
    their own modules (``kvnlab.suites.integrate``, ``kvnlab.cli.run_checks``),
    so wrapping one attribute would miss most calls. Module-level dicts
    holding ``obj`` (the suite table) are rebound too.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is obj:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is obj:
                        value[key] = wrapper


class CountingWarnings:
    """Stand-in for the ``warnings`` module that counts ``warn`` calls by
    category and otherwise behaves like the module it wraps."""

    def __init__(self, tracer: Tracer, prefix: str):
        self._tracer = tracer
        self._prefix = prefix

    def __getattr__(self, name):
        return getattr(warnings, name)

    def warn(self, message, category=UserWarning, stacklevel=1, **kwargs):
        self._tracer.add(f"{self._prefix}.{category.__name__}")
        warnings.warn(message, category, stacklevel + 1, **kwargs)
