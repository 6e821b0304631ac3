"""The unified ``observe=`` surface.

Every entry point that executes schemes — ``color_graph``,
``color_many``, ``ExecutionContext``, ``run_scheme``, the partitioned
drivers and the service — takes one ``observe=`` argument:

=====================  ====================================================
``observe=None``       no observation (the default; zero overhead)
``observe="trace"``    attach a fresh :class:`~repro.obs.tracer.Tracer`
``observe=Tracer()``   your tracer (shared across calls)
=====================  ====================================================

Either form resolves to the :class:`~repro.obs.tracer.Tracer` the run
records into; it is also attached to ``result.observation`` so
shorthand users can reach it.  Per-round records are read back from the
trace's ``round`` spans with :func:`~repro.obs.export.round_rows`.
"""

from __future__ import annotations

from .tracer import Tracer

__all__ = ["resolve_observe"]


def resolve_observe(observe=None) -> Tracer | None:
    """Normalize an ``observe=`` value into the run's tracer (or ``None``)."""
    if observe is None or isinstance(observe, Tracer):
        return observe
    if isinstance(observe, str) and observe == "trace":
        return Tracer()
    raise ValueError(
        f"cannot interpret observe={observe!r}: expected None, 'trace' "
        f"or a Tracer"
    )
