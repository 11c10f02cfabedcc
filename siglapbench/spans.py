"""In-memory span tracer that wraps public names of the program from outside.

A probe replaces one attribute (a module-level function or a class method)
with a wrapper that records a span around the original call.  Spans nest
through a stack, so each one knows its parent; a layer's self time is its
spans' durations minus the time covered by their direct children.  Nothing is
written while tracing runs: callers read ``spans`` and ``counts`` afterwards.
``restore`` puts every original back.

A probe must replace the name where its caller looks it up.  A function a
module imported with ``from x import f`` is called through that module's own
global, so wrapping ``x.f`` would never run.
"""

import collections
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans and named counters; installs and removes probes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._originals = []

    # -- spans -------------------------------------------------------------

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def current_name(self):
        """Name of the innermost open span, or None outside every span."""
        return self.spans[self._stack[-1]].name if self._stack else None

    # -- probes ------------------------------------------------------------

    def wrap(self, owner, attr, layer, name=None, after=None):
        """Replace ``owner.attr`` by a wrapper recording a span per call.

        ``owner`` is a module or a class.  ``after(tracer, args, result)``
        runs once the span has closed (so ``current_name`` is the caller's
        span), and only when the original returned normally.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = name or f"{layer}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(label, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every wrapped original, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: its duration minus its direct children's."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def layer_self_seconds(self, under=None):
        """Self time summed per layer.

        With ``under`` (a span name), only spans of that name and their
        descendants count, so the values add up to those spans' durations.
        """
        selfs = self.self_times()
        inside = []
        totals = collections.defaultdict(float)
        for i, s in enumerate(self.spans):
            # a parent is always recorded before its children
            inside.append(under is None or s.name == under
                          or (s.parent >= 0 and inside[s.parent]))
            if inside[i]:
                totals[s.layer] += selfs[i]
        return dict(totals)

    def total_seconds(self, name):
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)
