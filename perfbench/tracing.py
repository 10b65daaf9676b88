"""Spans around calls into liftgirth's public functions.

The spans are installed from outside the package: `installed` rebinds
every module-level name that refers to a traced function, in every
loaded `liftgirth` module, to a wrapper that opens and closes a span.
Calls that go through a module global (which is how the package calls
its own functions) are therefore traced; nothing under `src/` changes.

Spans are aggregated as they close, so memory stays flat however many
calls a session makes: per span name the call count, the summed
duration and the summed self time, and per (name, parent name) the call
count.  Self time is a span's duration minus the time its child spans
cover; spans of one thread nest, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span aggregator for one thread.

    `durations` keeps the duration of every call to the span names given
    in `keep`, for percentiles; `results` collects the return values of
    names given in `keep_results`.
    """

    def __init__(self, clock=time.perf_counter, keep=(), keep_results=()):
        self.clock = clock
        self.stats = {}
        self.by_parent = Counter()
        self.durations = {name: [] for name in keep}
        self.results = {name: [] for name in keep_results}
        self._stack = []          # frames: [name, start, child seconds]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        name, start, child_s = self._stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.by_parent[(name, parent[0])] += 1
        else:
            self.by_parent[(name, None)] += 1
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)

    def calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_s(self, name):
        st = self.stats.get(name)
        return st.self_s if st else 0.0

    def calls_under(self, name, parents):
        """Calls of `name` whose enclosing span is one of `parents`."""
        return sum(self.by_parent[(name, p)] for p in parents)

    def wrap(self, name, fn):
        results = self.results.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if results is not None:
                results.append(result)
            return result

        return span


def _package_modules(package):
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


@contextmanager
def installed(tracer, names, package="liftgirth"):
    """Trace `names` ("module.function", relative to `package`) inside the
    block, rebinding every global that refers to each function."""
    modules = _package_modules(package)
    undo = []
    try:
        for name in names:
            module_name, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"],
                               fn_name)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
