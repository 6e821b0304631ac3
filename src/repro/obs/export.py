"""Trace exporters: Chrome ``trace_event`` JSON, flat JSONL, summaries.

Four consumers of one :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format (complete ``"X"`` events, microsecond
  timestamps), loadable in ``chrome://tracing`` and Perfetto.  Every
  span is an event on one thread (``pid``/``tid`` 0); the viewer nests
  them by time containment, so the span tree renders as a flame graph.
* :func:`jsonl_events` / :func:`write_jsonl` — one JSON object per span,
  flat, grep/pandas-friendly (the machine-readable twin of the Chrome
  view).
* :func:`flame_summary` — a terminal roll-up built on
  :func:`~repro.metrics.table.format_table`: simulated time by span
  name with counts and shares, the ``nvprof --print-gpu-summary`` view.
* :func:`round_rows` — the per-round convergence table (active
  vertices, conflicts, kernel time per round) read from the ``round``
  spans.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator

from ..metrics.table import format_table
from .tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_events",
    "write_jsonl",
    "flame_summary",
    "round_rows",
]

#: Strip per-iteration suffixes (``data-color-17`` -> ``data-color``) so
#: summaries aggregate across rounds.
_ITER_SUFFIX = re.compile(r"-\d+$")


def _args(span: Span) -> dict:
    """Chrome ``args`` payload: counters made JSON-clean."""
    out = {}
    for key, value in span.counters.items():
        if hasattr(value, "item"):  # numpy scalar
            value = value.item()
        out[key] = value
    return out


def chrome_trace(tracer: Tracer) -> dict:
    """Render the trace as a Chrome ``trace_event`` JSON object."""
    events = []
    for span, _ in tracer.walk():
        duration = span.duration_us
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": round(span.start_us, 4),
            "dur": round(duration, 4),
            "pid": 0,
            "tid": 0,
            "args": _args(span),
        }
        if span.end_us is None:  # open span in a live export
            event["dur"] = 0.0
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs (simulated timeline, ts in us)",
            **tracer.meta,
        },
    }


def write_chrome_trace(tracer: Tracer, path) -> Path:
    """Write :func:`chrome_trace` output; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer), indent=1), encoding="utf-8")
    return path


def jsonl_events(tracer: Tracer) -> Iterator[dict]:
    """One flat JSON-ready dict per span, in pre-order."""
    for span, depth in tracer.walk():
        yield {
            "name": span.name,
            "category": span.category,
            "depth": depth,
            "start_us": round(span.start_us, 4),
            "end_us": None if span.end_us is None else round(span.end_us, 4),
            "duration_us": round(span.duration_us, 4),
            "counters": _args(span),
        }


def write_jsonl(tracer: Tracer, path) -> Path:
    """Write one JSON object per line; returns the path written."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for event in jsonl_events(tracer):
            fh.write(json.dumps(event) + "\n")
    return path


def flame_summary(tracer: Tracer, *, top: int | None = None) -> str:
    """Terminal roll-up: simulated time per (category, base name).

    Only *leaf* time is attributed (a ``round`` span's duration is its
    children's, so counting both would double-book), which makes the
    shares sum to ~100% of the traced simulated time.
    """
    buckets: dict[tuple[str, str], dict] = {}
    for span, _ in tracer.walk():
        if span.children:  # structural span: time lives in the leaves
            continue
        key = (span.category, _ITER_SUFFIX.sub("", span.name))
        bucket = buckets.setdefault(
            key, {"count": 0, "time_us": 0.0, "dram_bytes": 0, "transactions": 0}
        )
        bucket["count"] += 1
        bucket["time_us"] += span.duration_us
        bucket["dram_bytes"] += int(span.counters.get("dram_bytes", 0) or 0)
        bucket["transactions"] += int(span.counters.get("transactions", 0) or 0)
    total = sum(b["time_us"] for b in buckets.values()) or 1.0
    ordered = sorted(buckets.items(), key=lambda kv: -kv[1]["time_us"])
    if top is not None:
        ordered = ordered[:top]
    rows = [
        [
            name,
            category,
            bucket["count"],
            round(bucket["time_us"], 1),
            f"{bucket['time_us'] / total:.1%}",
            round(bucket["dram_bytes"] / 1e6, 2),
        ]
        for (category, name), bucket in ordered
    ]
    table = format_table(
        ["span", "category", "count", "us", "share", "DRAM MB"],
        rows,
        title=f"flame summary ({len(tracer)} spans, "
        f"{tracer.total_us:.1f} us simulated):",
    )
    runs = tracer.runs()
    if runs:
        lines = [
            f"  {r.name}: {int(r.counters.get('iterations', 0))} rounds, "
            f"{r.total('conflicts'):.0f} conflicts, "
            f"{r.duration_us:.1f} us"
            for r in runs
        ]
        table += "\nruns:\n" + "\n".join(lines)
    return table


def round_rows(tracer) -> list[dict]:
    """Per-round convergence rows read from the trace's ``round`` spans.

    One dict per counted engine round, in execution order: ``iteration``
    (the round's index in its run), ``active`` (vertices processed),
    ``conflicts`` (vertices sent back for recoloring) and ``time_us``
    (summed kernel time of the round's launches).  A round that found no
    work launches nothing and is not counted by the engine, so its span
    carries no ``iteration`` and yields no row.  ``tracer`` may also be
    one :class:`~repro.obs.tracer.Span` subtree (e.g. one run).
    """
    return [
        {
            "iteration": span.counters["iteration"],
            "active": span.counters["active"],
            "conflicts": span.counters["conflicts"],
            "time_us": span.total("kernel_us"),
        }
        for span, _ in tracer.walk()
        if span.category == "round" and "iteration" in span.counters
    ]
