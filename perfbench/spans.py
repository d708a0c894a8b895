"""Span tracing from outside the program: wrap public functions, time calls.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each target function (module attribute or class attribute) with a timing
wrapper, in its defining module *and* in every loaded module that
imported it by name, so ``from x import f`` call sites are covered too.

A span records its name, start, end, parent span and thread.  Spans stay
in memory (:attr:`Tracer.spans`) and are written out once at exit
(:meth:`Tracer.dump`).  Coroutine functions get spans without a parent:
their awaits interleave with other tasks, so a stack cannot nest them.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, span_id, name, start, parent, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread


class Tracer:
    """In-memory span and counter store.

    ``enabled`` switches recording on and off without unwrapping, so one
    run can alternate traced and untraced units of work to measure the
    tracing overhead.
    """

    def __init__(self):
        self.enabled = True
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, nest):
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack() if nest else None
        parent = stack[-1].id if stack else None
        span = Span(span_id, name, clock(), parent, threading.get_ident())
        if nest:
            stack.append(span)
        return span

    def _close(self, span, nest):
        span.end = clock()
        if nest:
            self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name, start, end):
        """Record a finished span with no parent (timed by the caller)."""
        span = self._open(name, nest=False)
        span.start = start
        span.end = end
        with self._lock:
            self.spans.append(span)

    def count(self, key, value=1):
        if self.enabled:
            with self._lock:
                self.counts[key] += value

    def active(self, name):
        """True when a span named ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name, counter=None):
        """A timing wrapper around ``fn``.

        ``counter(args, kwargs, result)`` returns ``{key: amount}`` to
        add to :attr:`counts` per call.  A call made while a span of the
        same name is already open on the thread (recursion, or
        ``query_many`` inside ``query_groups``) records nothing extra.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                span = tracer._open(name, nest=False)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(span, nest=False)
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        tracer.count(key, value)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer.active(name):
                return fn(*args, **kwargs)
            span = tracer._open(name, nest=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, nest=True)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.count(key, value)
            return result
        return wrapper

    def patch(self, module_name, qualname, name, counter=None,
              wrapper=None):
        """Replace ``module_name.qualname`` with a traced wrapper.

        ``qualname`` is ``func`` or ``Class.method``.  ``wrapper`` takes
        the original function and returns its replacement, for targets
        that need more than a span (it defaults to :meth:`wrap`).
        """
        module = importlib.import_module(module_name)
        make = wrapper or (lambda fn: self.wrap(fn, name, counter))
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            setattr(owner, attr, replacement)
            return
        original = getattr(module, qualname)
        replacement = make(original)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(other, attr, replacement)

    # -- reporting -----------------------------------------------------------
    def busy(self):
        """{span name: summed duration} over every recorded span."""
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return totals

    def self_times(self):
        """{span name: summed duration minus the time its child spans
        cover}; children nest inside their parent on one thread."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.name] += (span.end - span.start
                                  - child_time[span.id])
        return totals

    def covered(self, windows):
        """Seconds of ``windows`` (``[(start, end)]``) that some span
        covers, counting overlapping spans once."""
        total = 0.0
        for lo, hi in windows:
            intervals = sorted((max(s.start, lo), min(s.end, hi))
                               for s in self.spans
                               if s.end > lo and s.start < hi)
            edge = lo
            for start, end in intervals:
                start = max(start, edge)
                if end > start:
                    total += end - start
                    edge = end
        return total

    def dump(self, path):
        """Write every span and counter as JSON (called once, at exit)."""
        payload = {
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.thread]
                      for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            payload = json.load(handle)
        tracer = cls()
        for span_id, name, start, end, parent, thread in payload["spans"]:
            span = Span(span_id, name, start, parent, thread)
            span.end = end
            tracer.spans.append(span)
        tracer.counts.update(payload["counts"])
        return tracer
