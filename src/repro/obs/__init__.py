"""repro.obs: engine-wide observability.

A span-based tracer over the simulated timeline
(:mod:`~repro.obs.tracer`), exporters to Chrome ``trace_event`` JSON /
JSONL / terminal flame summaries (:mod:`~repro.obs.export`), and the
unified ``observe=`` surface every execution entry point shares
(:mod:`~repro.obs.observe`).

Quickstart::

    from repro import color_graph, rmat_er
    from repro.obs import flame_summary, round_rows, write_chrome_trace

    result = color_graph(rmat_er(scale=12), "data-ldg", observe="trace")
    tracer = result.observation          # the run's Tracer
    print(flame_summary(tracer))
    rows = round_rows(tracer)             # per-round active/conflicts/time
    write_chrome_trace(tracer, "trace.json")   # open in chrome://tracing

See docs/OBSERVABILITY.md for the span model and how to read a trace.
"""

from .export import (
    chrome_trace,
    flame_summary,
    jsonl_events,
    round_rows,
    write_chrome_trace,
    write_jsonl,
)
from .observe import resolve_observe
from .tracer import Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "chrome_trace",
    "flame_summary",
    "jsonl_events",
    "resolve_observe",
    "round_rows",
    "write_chrome_trace",
    "write_jsonl",
]
