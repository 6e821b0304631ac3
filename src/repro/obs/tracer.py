"""Span-based tracing over the simulated timeline.

The simulator already *prices* everything it does — kernels, PCIe
transfers, launch overheads — but until now those prices were flattened
into per-run totals.  The tracer keeps the structure: a run is a tree of
:class:`Span` objects (``run`` → ``round`` → ``kernel`` / ``htod`` /
``dtoh`` / ``alloc``), each carrying a start/end on the *simulated* clock
plus named counters (active vertices, conflicts, memory transactions,
DRAM bytes, occupancy, ...).  That is exactly the shape of the paper's
Fig. 3 nvprof breakdowns and per-round convergence traces, produced
natively instead of post-hoc.

The clock is event-driven: it only advances when a leaf event with a
duration is recorded (a priced kernel, a transfer).  Enclosing spans
start and end at the clock positions of entry/exit, so a ``round`` span's
duration is by construction the summed simulated time of its children
and timestamps are monotone — the property the Chrome ``trace_event``
exporter relies on.

Producers (the engine loop, the backends, :class:`~repro.gpusim.device.
Device`) talk to the tracer through three calls: :meth:`Tracer.begin` /
:meth:`Tracer.end` for nested phases, :meth:`Tracer.event` for priced
leaves.  Consumers read :attr:`Tracer.roots` or :meth:`Tracer.walk` and
the exporters in :mod:`repro.obs.export` — including
:func:`~repro.obs.export.round_rows`, the per-round convergence table
read from the ``round`` spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One traced interval on the simulated clock.

    ``end_us`` is ``None`` while the span is still open.  ``counters``
    holds named numbers (and the occasional short string label); nested
    work lives in ``children``.
    """

    name: str
    category: str
    start_us: float
    end_us: float | None = None
    counters: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        """Simulated duration (0 while the span is still open)."""
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Pre-order traversal of this span's subtree as (span, depth)."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def total(self, counter: str) -> float:
        """Sum a named counter over this span and every descendant."""
        return float(
            sum(s.counters.get(counter, 0) or 0 for s, _ in self.walk())
        )

    def find(self, category: str) -> list["Span"]:
        """All descendants (and possibly self) with the given category."""
        return [s for s, _ in self.walk() if s.category == category]

    def __repr__(self) -> str:  # compact, tests read these in failures
        return (
            f"Span({self.name!r}, {self.category}, "
            f"{self.start_us:.2f}..{'open' if self.end_us is None else f'{self.end_us:.2f}'}, "
            f"{len(self.children)} children)"
        )


class Tracer:
    """Collects a forest of :class:`Span` trees on one simulated clock.

    One tracer observes one logical timeline: attach it to an
    :class:`~repro.engine.context.ExecutionContext` (or pass
    ``observe="trace"``) and every run executed there appends a ``run``
    root span.  Events recorded outside any open span (e.g. the one-time
    graph upload a context performs before a run's timing span opens)
    become root-level leaves.
    """

    def __init__(self, *, meta: dict | None = None) -> None:
        self.roots: list[Span] = []
        self.meta = dict(meta or {})  # exported into the trace header
        self.now_us = 0.0
        self._stack: list[Span] = []

    # -- producing ------------------------------------------------------
    def begin(self, name: str, category: str = "phase", **counters) -> Span:
        """Open a nested span at the current simulated time."""
        span = Span(name=name, category=category, start_us=self.now_us,
                    counters=dict(counters))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None = None, **counters) -> Span:
        """Close ``span`` (default: innermost), merging extra counters.

        Spans opened after ``span`` and never closed (an exception took a
        shortcut out) are closed along the way, so the tree stays
        well-formed.
        """
        if not self._stack:
            raise RuntimeError("Tracer.end() with no open span")
        if span is None:
            span = self._stack[-1]
        if span not in self._stack:
            raise RuntimeError(f"{span!r} is not an open span")
        while self._stack:
            top = self._stack.pop()
            top.end_us = self.now_us
            if top is span:
                break
        span.counters.update(counters)
        return span

    @contextmanager
    def span(self, name: str, category: str = "phase", **counters):
        """``with tracer.span(...) as s:`` — begin/end with cleanup."""
        s = self.begin(name, category, **counters)
        try:
            yield s
        finally:
            if s in self._stack:
                self.end(s)

    def event(self, name: str, category: str, duration_us: float = 0.0,
              **counters) -> Span:
        """Record a priced leaf, advancing the simulated clock."""
        span = Span(name=name, category=category, start_us=self.now_us,
                    end_us=self.now_us + float(duration_us),
                    counters=dict(counters))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(span)
        self.now_us = span.end_us
        return span

    def count(self, **counters) -> None:
        """Accumulate numeric counters onto the innermost open span."""
        if not self._stack:
            return
        dst = self._stack[-1].counters
        for key, value in counters.items():
            dst[key] = dst.get(key, 0) + value

    def merge_subtrace(self, roots: list[Span], *, label: str = "subtrace",
                       category: str = "worker", **counters) -> Span:
        """Graft another tracer's forest into this timeline.

        Worker processes trace on their own clock starting at zero; this
        re-bases every grafted span to the current simulated time, wraps
        the forest in one ``category`` span (so a batch trace shows which
        job a round belongs to), and advances the clock by the subtrace's
        extent — timestamps stay monotone, which the Chrome exporter
        requires.  Returns the wrapper span.
        """
        base = self.now_us
        extent = 0.0
        for root in roots:
            for span, _ in root.walk():
                span.start_us += base
                if span.end_us is not None:
                    span.end_us += base
                    extent = max(extent, span.end_us - base)
                else:
                    extent = max(extent, span.start_us - base)
        wrapper = Span(name=label, category=category, start_us=base,
                       end_us=base + extent, counters=dict(counters))
        wrapper.children = list(roots)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(wrapper)
        self.now_us = base + extent
        return wrapper

    # -- consuming ------------------------------------------------------
    def walk(self) -> Iterator[tuple[Span, int]]:
        """Pre-order traversal over every root tree as (span, depth)."""
        for root in self.roots:
            yield from root.walk()

    def spans(self, category: str | None = None) -> list[Span]:
        """Flat span list, optionally filtered by category."""
        return [
            s for s, _ in self.walk()
            if category is None or s.category == category
        ]

    def runs(self) -> list[Span]:
        """The outermost ``run`` spans at any depth, in execution order.

        Runs grafted under ``worker``/``device`` wrappers count; the piece
        runs nested inside a partitioned run do not (their enclosing run
        is listed instead).
        """
        out: list[Span] = []
        pending = list(reversed(self.roots))
        while pending:
            span = pending.pop()
            if span.category == "run":
                out.append(span)
            else:
                pending.extend(reversed(span.children))
        return out

    @property
    def total_us(self) -> float:
        """Simulated time covered by the trace so far."""
        return self.now_us

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())
