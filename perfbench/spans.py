"""In-memory spans for the benchmark's traced mode.

A span is ``(id, name, parent, start, end)``: the name is
``<layer>.<stage>`` (``sim.price``, ``tools.container.parse``), the
parent is the span that was open when it started.  Spans are opened
around calls into the program's public functions -- either explicitly
(``with tracer.span(...)``) or by :meth:`Tracer.instrument`, which swaps
a public module-level function for a timing wrapper everywhere the
loaded ``repro`` modules refer to it, so nested calls (a dictionary
build inside a compression, a profile build inside grid pricing) become
child spans and leave their parent's self time.

The current span lives in a :class:`contextvars.ContextVar`, so asyncio
tasks started inside a span inherit it as their parent.
"""

import contextvars
import sys
import time
from collections import Counter


class Tracer:
    """Collects spans and counters; nothing is written until asked."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # [id, name, parent, start, end]
        self.counts = Counter()
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=None)
        self._patched = []

    def open(self, name):
        """Start a span under the current one; returns its record."""
        record = [len(self.spans), name, self._current.get(), self.clock(),
                  None]
        self.spans.append(record)
        return record, self._current.set(record[0])

    def close(self, opened):
        record, token = opened
        record[4] = self.clock()
        self._current.reset(token)

    def span(self, name):
        return _SpanContext(self, name)

    def wrap(self, func, name, count=None):
        """*func* wrapped in a span; ``count(args, kwargs, result)``
        may return ``{counter: increment}`` to record alongside."""
        tracer = self

        def traced(*args, **kwargs):
            opened = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(opened)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                tracer.counts.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def instrument(self, module, attr, name, count=None):
        """Wrap ``module.attr`` in a span wherever it is bound (see
        :func:`patch_everywhere`)."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, count)
        self._patched.extend(patch_everywhere(original, traced))
        return traced

    def restore(self):
        """Undo every :meth:`instrument` patch."""
        unpatch(self._patched)
        self._patched = []

    def export(self):
        """Spans as plain lists (JSON-ready)."""
        return [list(record) for record in self.spans]


def patch_everywhere(original, replacement):
    """Rebind every ``repro`` module global that is *original* (the
    defining module and every ``from X import f`` site) to
    *replacement*; returns the patches for :func:`unpatch`."""
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                patched.append((mod, key, original))
    return patched


def unpatch(patched):
    for mod, key, original in reversed(patched):
        setattr(mod, key, original)


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.opened = None

    def __enter__(self):
        self.opened = self.tracer.open(self.name)
        return self.opened[0]

    def __exit__(self, *exc):
        self.tracer.close(self.opened)
        return False


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """``{span name: summed self time}``.

    A span's self time is its duration minus the part of its interval
    that its children cover (children of concurrent asyncio tasks may
    overlap, so the union is taken, never the sum).
    """
    children = {}
    for sid, _name, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = Counter()
    for sid, name, _parent, start, end in spans:
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ()) if e > start and s < end]
        out[name] += (end - start) - covered(clipped)
    return out
