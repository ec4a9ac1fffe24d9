"""In-memory span tracing of spreademb's public functions, from outside.

The tracer wraps functions at every place spreademb binds them: a module
that did ``from .graphs import aggregate`` holds its own reference, so
patching only ``spreademb.graphs.aggregate`` would miss the calls made
through ``spreademb.spreading.aggregate``.  ``Tracer.install`` therefore
replaces each binding of the original object in every ``spreademb`` module
and verifies that none is left.

Spans form a tree through the call stack (single-threaded).  A span's self
time is its duration minus the part of its interval that its child spans
cover; a layer's busy time is the union of its spans' intervals, so a layer
calling itself is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in children[s.id] if c.end > s.start and c.start < s.end)
        out[s.id] = s.duration - covered
    return out


def layer_summary(spans: list[Span], layers) -> dict[str, dict[str, float]]:
    """Per layer: busy time (union of intervals), self time and span count."""
    own = self_times(spans)
    summary = {layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for layer in layers}
    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)
    for layer, group in by_layer.items():
        summary[layer] = {
            "busy_s": union_length((s.start, s.end) for s in group),
            "self_s": sum(own[s.id] for s in group),
            "calls": len(group),
        }
    return summary


class Tracer:
    """Records one span per call of each installed function.

    ``overhead_s`` accumulates the time spent in the wrappers outside the
    wrapped calls: span bookkeeping and the ``describe`` hooks.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def paused(self):
        """Call wrapped functions without recording (for describe hooks)."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def wrap(self, layer: str, name: str, fn, describe=None):
        """``fn`` recording a span; ``describe(args, kwargs, result)`` adds info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, layer, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                with self.paused():
                    span.info = describe(args, kwargs, result)
            self.overhead_s += span.start - entered + time.perf_counter() - span.end
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(owner, attr, layer, describe)`` at every binding.

        ``owner`` is a module or a class.  For a module function, every
        ``spreademb`` module that binds the same object is patched; for a
        method, the class attribute is.  Raises if a binding is left over.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spreademb" or name.startswith("spreademb."))]
        originals = []
        for owner, attr, layer, describe in targets:
            fn = getattr(owner, attr)
            wrapper = self.wrap(layer, f"{layer}.{attr}", fn, describe)
            originals.append(fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapper)
        leftover = [f"{m.__name__}.{name}" for m in modules
                    for name, value in vars(m).items()
                    if any(value is fn for fn in originals)]
        if leftover:
            self.uninstall()
            raise RuntimeError(f"unpatched bindings: {leftover}")

    def _patch(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
                 "start": s.start, "end": s.end, "info": s.info} for s in self.spans]
