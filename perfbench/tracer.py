"""Spans and counters recorded from outside the program.

The tracer replaces module attributes that calls into a layer resolve
through (``invariant.evaluate_Z``, ``measure.project``, ...) with wrappers,
and puts every original back in :meth:`Tracer.restore`.  Coarse calls get
spans; hot kernels (``_smul``, ``_Context.mon_mul``) get counters and
summed time, because one cold evaluation makes millions of them.

A span has an id, a name, its parent's id, start and end, plus the time its children
covered, kept in memory and written out by :meth:`Tracer.write`.  Kernel
time counts as a child of the innermost open span when the kernel is not
itself called from another wrapped kernel, so a span's self time is its
duration minus its child spans minus the kernels it called directly.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.kernel_s: Counter = Counter()
        self._open: list[Span] = []
        self._kernel_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans) + 1, name, parent.id if parent else None, _clock())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = _clock()
            self._open.pop()
            if parent is not None:
                parent.child_s += sp.duration

    def spans_named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def total_s(self, name: str, own: bool = False) -> float:
        """Summed duration (or self time, with ``own``) of the spans named ``name``."""
        return sum((sp.self_s if own else sp.duration for sp in self.spans_named(name)), 0.0)

    # -- patching

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` by ``wrapper(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spanned(self, name: str, after=None):
        """Wrapper factory: one span per call; ``after(args, result, exc)`` sees the outcome."""

        def factory(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    try:
                        result = fn(*args, **kwargs)
                    except Exception as exc:
                        if after is not None:
                            after(args, None, exc)
                        raise
                if after is not None:
                    after(args, result, None)
                return result

            return wrapper

        return factory

    def kernel(self, key: str, miss=None):
        """Wrapper factory for a hot kernel: a call counter and summed time.

        Recursive calls are counted but their time is summed only at the
        outermost call of the same kernel.  ``miss(args)``, evaluated before
        the call, counts memo misses under ``key + '.miss'``.
        """
        counts, kernel_s = self.counts, self.kernel_s
        miss_key = key + ".miss"
        depth = [0]

        def factory(fn):
            def wrapper(*args):
                counts[key] += 1
                if miss is not None and miss(args):
                    counts[miss_key] += 1
                depth[0] += 1
                self._kernel_depth += 1
                start = _clock()
                try:
                    return fn(*args)
                finally:
                    elapsed = _clock() - start
                    depth[0] -= 1
                    self._kernel_depth -= 1
                    if not depth[0]:
                        kernel_s[key] += elapsed
                    if not self._kernel_depth and self._open:
                        self._open[-1].child_s += elapsed

            return wrapper

        return factory

    # -- output

    def write(self, path) -> None:
        data = {
            "run": self.run_id,
            "spans": [
                {"run": self.run_id, "id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end}
                for s in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
            "kernel_s": dict(sorted(self.kernel_s.items())),
        }
        with open(path, "w") as handle:
            json.dump(data, handle)
