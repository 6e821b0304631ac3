"""Out-of-core streaming: color graphs bigger than RAM, window by window.

:func:`color_sharded` holds every shard's induced subgraph alive at once
(they are one job list), so peak memory is ``O(m)`` no matter the shard
count.  This module is the bounded-memory sibling: the vertex range is
cut into contiguous **windows** (the same ``linspace`` bounds as
:func:`~repro.graph.partition.block_partition`, so a ``num_windows=k``
stream colors the exact vertex blocks a ``num_shards=k`` sharded run
does), and each window's induced subgraph is materialized, colored
through one shared :class:`~repro.engine.context.ExecutionContext`, and
dropped before the next window is touched.  The backing graph is only
ever *sliced* — pair it with an mmap-backed store
(:class:`~repro.graph.store.MmapStore` /
:func:`~repro.graph.io.stream.read_csr_bin`) and the full topology never
enters private memory at all: peak RSS is ``O(n + window)``, which is
what lets a 100M+ edge graph color on a small box.

Everything after the windows — the windowed Jacobi repair, the
sequential-sweep fallback, checkpoint/resume, validation and the result
— is the shared driver in :mod:`repro.parallel.partitioned`, which never
touches ``O(m)`` at once: each repair round scans for conflicted edges
window by window, and validation is windowed too
(``ColoringResult.validate`` would expand all edge endpoints on the
heap), so the streaming path self-checks with bounded memory.

Timing model: windows run **sequentially on one device** (that is the
point — one box, bounded memory), so device/transfer times *sum* over
windows, unlike the sharded makespan maximum.
"""

from __future__ import annotations

import numpy as np

from ..coloring.base import ColoringResult
from ..graph.csr import CSRGraph, OFFSET_DTYPE, VERTEX_DTYPE
from .partitioned import PieceSource, prepare_call, run_partitioned

__all__ = ["plan_windows", "window_subgraph", "color_streamed"]

#: Subgraph construction needs a few transient arrays per window (the
#: slice, its mask, the compacted copy), so a memory budget maps to a
#: window size of roughly ``budget / _WINDOW_OVERHEAD``.
_WINDOW_OVERHEAD = 4


def plan_windows(
    graph,
    *,
    num_windows: int | None = None,
    memory_budget_mb: float | None = None,
) -> np.ndarray:
    """Contiguous window bounds ``b`` with windows ``[b[i], b[i+1])``.

    With ``num_windows``, bounds replicate
    :func:`~repro.graph.partition.block_partition` exactly (streaming and
    sharded runs over ``k`` pieces then color identical vertex blocks).
    With ``memory_budget_mb``, the window count is chosen so one
    window's working set — topology slice plus construction scratch —
    fits the budget.  At least one of the two must be given; both raises.
    """
    n = graph.num_vertices
    if (num_windows is None) == (memory_budget_mb is None):
        raise ValueError("give exactly one of num_windows / memory_budget_mb")
    if num_windows is None:
        budget = float(memory_budget_mb) * (1 << 20)
        if budget <= 0:
            raise ValueError("memory_budget_mb must be positive")
        window_bytes = max(1.0, budget / _WINDOW_OVERHEAD)
        num_windows = max(1, int(np.ceil(graph.memory_bytes() / window_bytes)))
    num_windows = max(1, min(int(num_windows), max(n, 1)))
    return np.linspace(0, n, num_windows + 1).astype(np.int64)


def window_subgraph(graph, lo: int, hi: int) -> CSRGraph:
    """Induced subgraph on the contiguous vertex range ``[lo, hi)``.

    Equivalent to ``graph.subgraph_mask`` on that block (for the
    canonical row-sorted adjacency our builders produce) but computed
    from one CSR slice: only ``O(window)`` bytes are ever materialized,
    and the backing arrays are merely indexed — an mmap graph pages in
    just this range.
    """
    R, C = graph.row_offsets, graph.col_indices
    base = int(R[lo])
    sub_R_raw = np.asarray(R[lo : hi + 1], dtype=np.int64) - base
    window = np.asarray(C[base : int(R[hi])])
    internal = (window >= lo) & (window < hi)
    kept_prefix = np.zeros(window.size + 1, dtype=np.int64)
    np.cumsum(internal, out=kept_prefix[1:])
    sub_R = kept_prefix[sub_R_raw].astype(OFFSET_DTYPE)
    sub_C = (window[internal] - lo).astype(VERTEX_DTYPE)
    return CSRGraph.from_validated_arrays(
        sub_R, sub_C, name=f"{graph.name}[{lo}:{hi}]"
    )


class _Windows(PieceSource):
    """Windows colored one at a time through one shared context."""

    label = "streamed"
    sequential = True
    tags = {"mode": "stream"}

    def __init__(self, graph, num_windows, memory_budget_mb, engine: dict) -> None:
        bounds = plan_windows(
            graph, num_windows=num_windows, memory_budget_mb=memory_budget_mb
        )
        super().__init__(bounds, engine)
        self.span_attrs = {"windows": self.num_pieces}
        self.counters = {"peak_window_bytes": 0}

    def color(self, run) -> None:
        from ..engine.context import ExecutionContext

        ctx = ExecutionContext(
            backend=self.engine["backend"], observe=run.tracer, faults=run.robustness,
            health=None, **dict(self.engine["backend_opts"] or {}),
        )
        for widx in range(run.done, self.num_pieces):
            run.boundary("window", widx, "window")
            lo, hi = int(self.bounds[widx]), int(self.bounds[widx + 1])
            run.done = widx + 1
            if hi <= lo:
                continue
            sub = window_subgraph(run.graph, lo, hi)
            peak = max(self.counters["peak_window_bytes"], sub.memory_bytes())
            self.counters["peak_window_bytes"] = peak
            res = ctx.run(sub, run.method, validate=False, **run.options)
            run.land(lo, hi, sub, res, {"window": [lo, hi]})
            ctx.evict(sub)  # the window's device buffers return to the pool
            del sub
            run.save(run.done, "windows")


def color_streamed(
    graph,
    method: str = "data-ldg",
    *,
    num_windows: int | None = None,
    memory_budget_mb: float | None = None,
    backend=None,
    backend_opts=None,
    config=None,
    observe=None,
    validate: bool = True,
    max_resolution_rounds: int = 16,
    faults=None,
    health=None,
    deadline_ms=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume=None,
    **options,
) -> ColoringResult:
    """Color ``graph`` window by window with bounded peak memory.

    Each contiguous window's induced subgraph is colored through one
    shared context and evicted before the next is built; boundary
    conflicts are repaired with the windowed Jacobi resolver (sequential
    sweep after ``max_resolution_rounds``, same as sharded coloring).
    ``validate=True`` runs the *windowed* conflict check — the standard
    checker would materialize every edge endpoint on the heap.

    ``deadline_ms`` (a number or a ready
    :class:`~repro.resilience.RunControl`) is checked before every
    window and repair round, raising the structured
    :class:`~repro.resilience.DeadlineExceeded`.  ``checkpoint=<path>``
    atomically snapshots colors + accumulators after each completed
    window (rounds ``1..W``) and repair round (``W+1..``) at the
    ``checkpoint_every`` cadence; ``resume=<path>`` restores a matching
    checkpoint — completed windows are skipped and the final colors are
    byte-identical to an uninterrupted run.  A missing resume file is a
    normal fresh start.

    Returns a checker-valid coloring whose ``shard_stats`` mirrors the
    sharded layout with ``mode="stream"`` plus the peak window footprint.
    """
    method, engine = prepare_call("color_streamed", method, config, {
        "backend": backend, "backend_opts": backend_opts, "faults": faults,
        "health": health, "observe": observe, "deadline_ms": deadline_ms,
    })
    source = _Windows(graph, num_windows, memory_budget_mb, engine)
    return run_partitioned(
        graph, method, source, engine=engine, options=options, validate=validate,
        max_resolution_rounds=max_resolution_rounds, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, resume=resume,
    )
