"""Partition-sharded coloring for graphs too big for one device.

The multi-device execution model, simulated: split the vertex set into
contiguous shards (:func:`repro.graph.partition.block_partition`), color
each shard's *induced subgraph* as an independent job — concurrently,
through the same scheduler ``color_many`` uses — then repair the edges
the shards could not see.  Cross-shard edges may join same-colored
vertices (each shard colored blind to the others), so a Jacobi-style
boundary-resolution phase follows — the shared driver in
:mod:`repro.parallel.partitioned`: each round, the higher-id endpoint of
every conflicted edge recolors itself to the smallest color missing from
a snapshot of its neighborhood.  Rounds repeat until no conflicts
remain; a capped round count falls back to one sequential sweep (recolor
conflicted vertices in id order with live reads), which terminates with
a proper coloring by construction — recoloring a vertex away from *all*
its neighbors never creates a new conflict elsewhere.

This is the same speculate-then-resolve shape as the paper's Alg. 4 and
Grosset's 3-step framework, lifted from thread-blocks-within-a-device to
shards-across-devices.  Timing follows the makespan model: shards run
concurrently on replica devices, so the result's device/transfer times
are the *maximum* over shards, not the sum (the host-side resolution
sweep is functional and unpriced, like the other host repairs).

Statistics land in ``result.shard_stats`` (per-shard vertex/edge/color
counts and times, boundary size, resolution rounds, recolor count) and —
when a tracer is attached — as per-shard ``worker`` spans plus a
``boundary-resolution`` event inside the ``sharded`` run span.
"""

from __future__ import annotations

from ..coloring.base import ColoringResult
from .jobs import ColorJob, JobFailure
from .partitioned import BlockSource, PieceFailures, prepare_call, run_partitioned
from .scheduler import run_jobs

__all__ = ["ShardedColoringError", "color_sharded"]


class ShardedColoringError(PieceFailures):
    """A shard job failed after retries; carries the failures."""

    item, noun = "shard", "shard job"


class _ShardJobs(BlockSource):
    """Shards as concurrent jobs through the scheduler ``color_many`` uses."""

    label = "sharded"
    error = ShardedColoringError

    def execute(self, run, jobs, pieces=None, **override) -> list:
        e = self.engine
        # ``override`` swaps the primary path's pool, faults, store and
        # deadline (the degradation chain runs serially and fault-free).
        primary = dict(workers=e["workers"], scheduler=e["scheduler"], faults=run.robustness,
                       store=e["store"], deadline_ms=run.control)
        return run_jobs(jobs, backend=e["backend"], backend_opts=e["backend_opts"],
                        observe=run.tracer, validate=run.validate,
                        **{**primary, **override})

    def degrade(self, run, failures):
        """The sharded → sequential degradation chain.

        When shard jobs keep failing (even through the scheduler's own
        pool → serial chain), color the *whole* graph as one sequential,
        fault-free job.  The result matches an unsharded ``color_graph``
        run byte-for-byte — not a sharded run, which partitions
        differently — and its ``shard_stats`` records the degradation.
        """
        failed = [f.index for f in failures]
        run.robustness.degrade(
            "sharded", f"sharded(x{self.num_pieces})", "unsharded",
            "shard-failures", f"failed_shards={failed}",
        )
        outcome = self.execute(
            run, [ColorJob(run.graph, run.method, dict(run.options))], workers=None,
            scheduler="serial", faults=run.robustness.healer(), store=None, deadline_ms=None,
        )[0]
        if isinstance(outcome, JobFailure):
            raise ShardedColoringError(list(failures) + [outcome])
        outcome.extra["shard_stats"] = {
            "num_shards": self.num_pieces, "method": run.method, "shards": [],
            "degraded": "unsharded", "failed_shards": failed,
            "sync_rounds": 0, "halo_bytes_modeled": 0, "speculation_hits": 0,
        }
        if run.tracer is not None:
            outcome.extra.setdefault("observation", run.tracer)
        return outcome


def color_sharded(
    graph,
    method: str = "data-ldg",
    *,
    num_shards: int = 4,
    workers=None,
    scheduler=None,
    backend=None,
    backend_opts=None,
    config=None,
    observe=None,
    validate: bool = True,
    max_resolution_rounds: int = 16,
    faults=None,
    health=None,
    store=None,
    stream: bool = False,
    memory_budget_mb: float | None = None,
    deadline_ms=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume=None,
    **options,
) -> ColoringResult:
    """Color ``graph`` in ``num_shards`` independent pieces, then repair.

    Parameters
    ----------
    num_shards:
        Contiguous vertex blocks to split into (capped at the vertex
        count).  Each block's induced subgraph is one coloring job.
    workers / scheduler / backend / backend_opts:
        Forwarded to the job scheduler — ``workers=N`` colors shards in
        ``N`` worker processes, exactly like ``color_many``.
    observe:
        The unified observation surface; with a tracer attached the
        whole run nests under one ``sharded`` span (per-shard subtraces
        included).
    max_resolution_rounds:
        Jacobi round cap before the sequential fallback sweep.
    faults / health:
        The robustness layer (see :mod:`repro.faults`), forwarded to the
        shard jobs.  With a degradation-permitting policy, persistent
        shard-job failures degrade the whole run to one *unsharded*
        sequential coloring (colors then match ``color_graph`` on the
        full graph, not a sharded run) instead of raising; hitting the
        Jacobi round cap is likewise recorded as a ``sharded``
        degradation event.
    store:
        Graph arena for shipping shard subgraphs to workers (see
        :mod:`repro.graph.store`): ``'shm'``/``'mmap'`` publish each
        shard once and send workers zero-copy handles; default pickles.
    stream / memory_budget_mb:
        The bounded-memory path (see
        :func:`~repro.parallel.streaming.color_streamed`): windows run
        *sequentially* through one shared context instead of as
        concurrent jobs, so peak RSS stays ``O(n + window)`` and graphs
        bigger than RAM complete from an mmap-backed store.
        ``stream=True`` cuts ``num_shards`` windows (colors are
        byte-identical to the non-streamed sharded run on the same
        ``num_shards``); ``memory_budget_mb`` sizes the window count
        from the budget instead and implies streaming.  ``workers`` /
        ``scheduler`` / ``store`` are ignored while streaming.
    deadline_ms:
        End-to-end budget (or a ready
        :class:`~repro.resilience.RunControl`): shard jobs check it at
        dispatch and every round boundary (the remaining budget ships
        into worker processes), the boundary-resolution loop checks it
        per Jacobi round, and overruns raise the structured
        :class:`~repro.resilience.DeadlineExceeded`.
    checkpoint / checkpoint_every / resume:
        Round-state checkpointing (see :mod:`repro.resilience`):
        ``checkpoint=<path>`` atomically snapshots colors + counters
        after the shard phase and every ``checkpoint_every`` resolution
        rounds (streamed runs: after every window too); ``resume=<path>``
        restores a matching checkpoint and continues — final colors are
        byte-identical to an uninterrupted run.  A missing resume file
        is a normal fresh start.
    **options:
        Scheme options, forwarded to every shard job.

    Returns
    -------
    ColoringResult
        A checker-valid coloring of the full graph; ``shard_stats``
        holds the per-shard and boundary-resolution statistics.

    Raises
    ------
    ShardedColoringError
        When any shard job fails after the scheduler's retries.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    method, engine = prepare_call("color_sharded", method, config, {
        "backend": backend, "backend_opts": backend_opts, "store": store,
        "workers": workers, "scheduler": scheduler, "faults": faults,
        "health": health, "observe": observe, "deadline_ms": deadline_ms,
    })
    if stream or memory_budget_mb is not None:
        from .streaming import _Windows

        num_windows = None if memory_budget_mb is not None else num_shards
        source = _Windows(graph, num_windows, memory_budget_mb, engine)
    else:
        source = _ShardJobs(graph, num_shards, engine)
    return run_partitioned(
        graph, method, source, engine=engine, options=options, validate=validate,
        max_resolution_rounds=max_resolution_rounds, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, resume=resume,
    )
