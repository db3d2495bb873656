"""Span tracer that wraps a package's functions from outside the package.

A span is opened around each call to a wrapped function.  Spans nest, and a
span's self time is its duration minus the time covered by the spans it
directly encloses, so the self times of all spans add up to the time spent
inside the outermost ones.  Hooks run after a span closes (the caller's span
is then on top of the stack) and may add to named counters.

Nothing here knows the package under test: run.py names the targets.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    """Collects per-span self time, call counts and counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = defaultdict(int)
        self._stack = []  # [name, start, time covered by child spans]

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] += 1

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][2] += duration

    def current(self):
        """Name of the innermost open span, or None outside every span."""
        return self._stack[-1][0] if self._stack else None

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def missing(self, expected) -> list:
        """Expected span names that never closed."""
        return sorted(name for name in expected if self.calls[name] == 0)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """fn inside a span called `name`; hook(tracer, args, kwargs, result) after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets, modules):
        """Patch every target for the duration of the block.

        targets: (span name, owner, attribute, hook) tuples.  A class owner
        has its attribute replaced (classmethods stay classmethods).  A
        module owner's function is replaced in every module of `modules`
        that holds a reference to it, so `from x import f` copies are
        traced too.
        """
        patches = []
        try:
            for name, owner, attr, hook in targets:
                raw = vars(owner)[attr]
                if isinstance(owner, type):
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, hook))
                    else:
                        new = self.wrap(name, raw, hook)
                    patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                new = self.wrap(name, raw, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            patches.append((module, key, raw))
                            setattr(module, key, new)
            yield self
        finally:
            for owner, attr, raw in reversed(patches):
                setattr(owner, attr, raw)
