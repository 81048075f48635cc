"""Spans around calls into multibump, recorded from outside the package.

A :class:`Tracer` replaces public functions in the module namespaces
where their callers look them up, so the package itself is unchanged.
Each wrapped call records a span: name, start, end, parent span and
process id, plus attributes read from the call's arguments or result
(iteration counts, refusals, factor sizes).  Spans are kept in memory.

Worker processes of the study pool are forked while a span of the
parent is open; they inherit the tracer and its stack, so their spans
name that parent span.  A worker writes its finished spans to the spool
directory each time it returns to that inherited depth, and
:meth:`Tracer.collect` merges the spool files back in.
"""

import functools
import json
import os
import time
from contextlib import contextmanager
from itertools import count


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "attrs")

    def __init__(self, sid, name, start, end, parent, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    def to_list(self):
        return [list(self.sid), self.name, self.start, self.end,
                list(self.parent) if self.parent else None, self.attrs]

    @classmethod
    def from_list(cls, row):
        sid, name, start, end, parent, attrs = row
        return cls(tuple(sid), name, start, end, tuple(parent) if parent else None, attrs)


class Tracer:
    """Records spans of wrapped calls; see the module docstring.

    ``spool_dir`` receives the spans of forked worker processes.
    """

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._ids = count()
        self._stack = []
        self._spans = []
        self._patches = []
        self.active = True

    # -- recording -----------------------------------------------------------

    def _forked(self):
        # A forked child keeps the parent's open stack (its spans become
        # the parents of the child's spans) but none of its finished spans.
        self._pid = os.getpid()
        self._ids = count()
        self._spans = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(attrs, args, kwargs)`` may return replacement
        ``(args, kwargs)``; ``after(attrs, args, kwargs, result)`` may
        return a replacement result.  Both may add entries to ``attrs``.
        An exception is recorded as ``attrs["error"]`` and re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if os.getpid() != self._pid:
                self._forked()
            attrs = {}
            parent = self._stack[-1] if self._stack else None
            sid = (self._pid, next(self._ids))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                if before is not None:
                    args, kwargs = before(attrs, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    replaced = after(attrs, args, kwargs, result)
                    if replaced is not None:
                        result = replaced
                return result
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._spans.append(Span(sid, name, start, end, parent, attrs))
                if self._pid != self.root_pid and (
                    not self._stack or self._stack[-1][0] != self._pid
                ):
                    self._spool()

        return traced

    def _spool(self):
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a") as fh:
            for span in self._spans:
                fh.write(json.dumps(span.to_list()) + "\n")
        self._spans = []

    def collect(self):
        """Return and forget every finished span, worker spans included."""
        spans, self._spans = self._spans, []
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith("spans-"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                spans.extend(Span.from_list(json.loads(line)) for line in fh)
            os.remove(path)
        return spans

    @contextmanager
    def paused(self):
        """Run the body untraced (for the checker's own calls)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- installation ----------------------------------------------------------

    def patch(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` by its traced version until :meth:`restore`."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, before, after))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


# -- arithmetic on finished spans --------------------------------------------


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the time its child spans cover.

    Children running concurrently in worker processes overlap each
    other; their union is subtracted, not their sum.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered_length(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }
