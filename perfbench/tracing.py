"""In-memory layer tracing for the benchmark.

The program is not changed.  Each layer's public functions are wrapped at the
place where the calling module looks them up (for example
``absg2.cli.visibility_expression`` or ``absg2.montecarlo.enumerate_alternatives``),
so a wrapper sees exactly the calls that cross a module boundary.

Every wrapped call adds to its layer's counters: calls, busy time (time inside
the layer's outermost calls), self time (busy time minus the time spent in
wrapped calls of other layers) and errors.  Calls made per grid cell are only
aggregated; coarser calls also record a span (id, parent id, request id,
layer, name, start, end).  Spans stay in memory until :meth:`Tracer.dump`.

Wrapped functions must be called from one thread.  In absg2 the thread pool of
``g2_monte_carlo`` only runs the private chunk kernel, which is not wrapped.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class _Frame:
    __slots__ = ("layer", "child_s", "span_id", "notes")

    def __init__(self, layer: str, span_id: int | None):
        self.layer = layer
        self.child_s = 0.0
        self.span_id = span_id
        self.notes: dict = {}


class Tracer:
    """Counters and spans for wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []
        self.request_id = 0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_span = 0

    def layer(self, name: str) -> LayerStats:
        if name not in self.stats:
            self.stats[name] = LayerStats()
        return self.stats[name]

    def _enter(self, layer: str, spanned: bool) -> tuple[_Frame, _Frame | None]:
        parent = self._stack[-1] if self._stack else None
        if spanned:
            self._next_span += 1
            span_id = self._next_span
        else:
            span_id = parent.span_id if parent else None
        frame = _Frame(layer, span_id)
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, stats, name, spanned, start, end) -> None:
        self._stack.pop()
        duration = end - start
        stats.calls += 1
        stats.self_s += duration - frame.child_s
        if parent is None or parent.layer != frame.layer:
            stats.busy_s += duration
        if parent is not None:
            parent.child_s += duration
        if spanned:
            parent_span = parent.span_id if parent else None
            self.spans.append(
                (frame.span_id, parent_span, self.request_id, frame.layer, name, start, end)
            )

    @contextmanager
    def span(self, layer: str, name: str):
        """A span around code the benchmark runs itself (the CLI entry); each
        outermost one starts a new request."""
        if not self._stack:
            self.request_id += 1
        stats = self.layer(layer)
        frame, parent = self._enter(layer, True)
        start = _clock()
        try:
            yield
        finally:
            self._exit(frame, parent, stats, name, True, start, _clock())

    def wrap(self, owner, attr: str, layer: str, *, spanned: bool = True, observe=None) -> None:
        """Replace ``owner.attr`` by a counting wrapper until :meth:`restore`.

        ``observe(stats, notes, parent_notes, args, kwargs, result)`` runs
        after a successful call, to add layer counts to ``stats``; ``notes``
        holds what wrapped callees of this call wrote into their
        ``parent_notes``.
        """
        original = getattr(owner, attr)
        stats = self.layer(layer)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            frame, parent = tracer._enter(layer, spanned)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                tracer._exit(frame, parent, stats, name, spanned, start, _clock())
            if observe is not None:
                observe(stats, frame.notes, parent.notes if parent else {}, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every counter, keyed ``layer.counter``."""
        flat: dict[str, float] = {}
        for layer, s in self.stats.items():
            flat[f"{layer}.calls"] = s.calls
            flat[f"{layer}.busy_s"] = s.busy_s
            flat[f"{layer}.self_s"] = s.self_s
            flat[f"{layer}.errors"] = s.errors
            for key, value in s.counts.items():
                flat[f"{layer}.{key}"] = value
        return flat

    def dump(self, path) -> None:
        """Write counters and spans as JSON (called once, when the run ends)."""
        spans = [
            dict(zip(("id", "parent", "request", "layer", "name", "start", "end"), s))
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": self.snapshot(), "spans": spans}, fh)
