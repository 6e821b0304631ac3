"""One partitioned-execution driver for sharded, streamed and distributed runs.

The paper's core loop — speculate, detect conflicts, recolor, repeat
(Alg. 4/5) — applied across *pieces* of a graph instead of thread
blocks of one device.  :func:`run_partitioned` runs it once for every
partitioned entry point:

1. **partition** — contiguous vertex pieces ``[bounds[i], bounds[i+1])``
   (the ``linspace`` cut of :func:`~repro.graph.partition.block_partition`,
   so every mode colors the same blocks for the same piece count);
2. **color pieces** — each piece's induced subgraph, colored blind to
   the others by a :class:`PieceSource`;
3. **resolve the boundary** — Jacobi rounds: the higher-id endpoint of
   every conflicted edge recolors itself to the smallest color missing
   from a snapshot of its neighborhood, with an :class:`Exchange`
   shipping each round's changes between pieces; past
   ``max_resolution_rounds`` one sequential sweep (live reads, id
   order) terminates with a proper coloring by construction and records
   a ``round-cap → sequential-sweep`` degradation;
4. **assemble** — one :class:`~repro.coloring.base.ColoringResult`
   with uniform ``shard_stats``, the robustness annex (checkpoint stats,
   deadline attribution) and one ``run`` span around it all.

Plug-ins
--------
A :class:`PieceSource` decides how pieces get colored and what that
costs: concurrent jobs through the scheduler (``color_sharded``),
windows one at a time through one shared context (``color_streamed``),
or device shards through a transport (``color_distributed``).  It keeps
its own degradation chain and timing rule — makespan ``max`` for
concurrent pieces, a sum for sequential windows.  An :class:`Exchange`
decides what boundary traffic the resolver pays for: none (one address
space, the default) or the topology-priced halo exchange of
:mod:`repro.distributed`.

The resolver scans conflicts piece by piece
(:func:`_mark_conflict_losers`) and never expands the full edge list,
so the streamed memory bound holds in every mode.  It picks the same
losers in the same id order as a global ``colors[u] == colors[v]``
scan, which is why all three modes return byte-identical colors for
the same piece count (docs/PARALLEL.md, "Partitioned execution").

Checkpoints snapshot colors plus every accumulator at the source's
cadence: sequential sources after each piece (rounds ``1..k``) and
repair round (``k+1..``); concurrent sources once the piece phase and
initial exchange are done (round ``0``, forced) and after each repair
round.  ``resume=`` restores a matching checkpoint and continues to
byte-identical colors and stats.
"""

from __future__ import annotations

import operator

import numpy as np

from ..coloring.base import COLOR_DTYPE, ColoringError, ColoringResult
from ..faults import Robustness, resolve_robustness
from ..graph.partition import block_partition, boundary_vertices
from ..obs.observe import resolve_observe
from ..resilience.checkpoint import Checkpointer, load_resume, run_fingerprint
from ..resilience.deadline import forced_expiry, resolve_control
from .jobs import ColorJob, JobFailure

__all__ = [
    "BlockSource", "Exchange", "PieceFailures", "PieceSource", "prepare_call",
    "run_partitioned",
]


def prepare_call(entry_point: str, method, config, engine: dict):
    """Merge ``config=`` into the engine keywords, then resolve ``method``.

    ``engine`` maps each :class:`~repro.engine.config.RunConfig` field
    the entry point takes to its explicit keyword value (``None`` = not
    passed).  Returns ``(method, engine)``.
    """
    from ..coloring.api import METHODS
    from ..coloring.registry import resolve_method
    from ..engine.config import normalize_config

    engine = normalize_config(entry_point, config, engine)
    return resolve_method(method, METHODS, entry_point=entry_point), engine


def _mex(neighbor_colors: np.ndarray) -> int:
    """Smallest positive color absent from ``neighbor_colors``."""
    used = np.unique(neighbor_colors[neighbor_colors > 0])
    color = 1
    for c in used:
        if c == color:
            color += 1
        elif c > color:
            break
    return color


def _mark_conflict_losers(graph, colors, bounds, losers_mask) -> int:
    """Flag the higher-id endpoint of every conflicted edge; count edges.

    One window at a time — every (symmetric) edge is seen from both
    endpoint rows, so scanning all windows covers the whole edge set
    without ever expanding it at once.  Each *undirected* conflict is
    counted twice (once per adjacency entry).
    """
    R, C = graph.row_offsets, graph.col_indices
    conflicted_entries = 0
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        rows = np.asarray(R[lo : hi + 1], dtype=np.int64)
        u = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(rows))
        v = np.asarray(C[rows[0] : rows[-1]], dtype=np.int64)
        bad = colors[u] == colors[v]
        if bad.any():
            conflicted_entries += int(bad.sum())
            losers_mask[np.maximum(u[bad], v[bad])] = True
    return conflicted_entries


class PieceFailures(RuntimeError):
    """Piece jobs failed after retries; carries the failures.

    Subclasses name the piece (``item``) and what failed (``noun``).
    """

    item = noun = "piece"

    def __init__(self, failures: list[JobFailure]) -> None:
        self.failures = list(failures)
        detail = "; ".join(f"{self.item} {f.index} ({f.method} on {f.graph}): {f.error}"
                           for f in self.failures)
        super().__init__(f"{len(self.failures)} {self.noun}(s) failed: {detail}")


class PieceSource:
    """How the pieces get colored; one subclass per partitioned mode.

    Class attributes name the mode in everything a run leaves behind:
    ``label`` prefixes the run span and scheme, keys checkpoints and
    names the round-cap degradation chain (``resolver`` names the loop
    it degrades from), ``round_site`` is a repair round's ``(deadline where, deadline-storm
    phase)``.  ``sequential`` sources color one piece at a time on one
    device: their per-piece simulated times sum (concurrent pieces take
    the makespan maximum) and they checkpoint after every piece.
    ``span_attrs`` annotate the run span; ``tags`` land in
    ``shard_stats`` as they are; ``counters`` land there too and are
    checkpointed.
    """

    label = "?"
    resolver = "jacobi"
    round_site = ("round", "repair")
    sequential = False
    suffix = ""  # appended to the scheme string
    span_attrs: dict = {}
    tags: dict = {}
    counters: dict = {}

    def __init__(self, bounds: np.ndarray, engine: dict) -> None:
        self.bounds, self.num_pieces = bounds, len(bounds) - 1
        self.engine = engine  # the entry point's engine keywords

    def color(self, run) -> ColoringResult | None:
        """Color pieces ``run.done..`` into ``run``.

        Returns ``None``, or a finished result when the source degraded
        the whole run (the driver then only attaches the robustness
        report).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release what the source owns (transports, pools)."""


class BlockSource(PieceSource):
    """Concurrent pieces: one coloring job per block of the partition.

    Subclasses supply ``execute(run, jobs, pieces)`` (one outcome per
    job: a result or a :class:`~repro.parallel.jobs.JobFailure`),
    ``degrade(run, failures)`` (heal persistent job failures into a
    finished result) and ``error`` (raised instead when the health
    policy forbids degradation).
    """

    row_keys = ("shard",)

    def __init__(self, graph, num_pieces: int, engine: dict) -> None:
        self.partition = block_partition(graph, num_pieces)
        k = self.partition.num_parts
        bounds = np.linspace(0, graph.num_vertices, k + 1).astype(np.int64)
        super().__init__(bounds, engine)
        self.boundary = int(boundary_vertices(graph, self.partition).sum())
        self.span_attrs = {"shards": k, "boundary_vertices": self.boundary}
        self.tags = {"boundary_vertices": self.boundary}

    def color(self, run) -> ColoringResult | None:
        b = self.bounds
        pieces = [p for p in range(self.num_pieces) if b[p + 1] > b[p]]
        jobs = [ColorJob(run.graph.subgraph_mask(self.partition.assignment == p), run.method,
                         dict(run.options)) for p in pieces]
        outcomes = self.execute(run, jobs, pieces)
        failures = [o for o in outcomes if isinstance(o, JobFailure)]
        if failures:
            if run.robustness is None or not run.robustness.policy.degrade:
                raise self.error(failures)
            return self.degrade(run, failures)
        for p, job, res in zip(pieces, jobs, outcomes):
            run.land(int(b[p]), int(b[p + 1]), job.graph, res, dict.fromkeys(self.row_keys, p))
        run.done = self.num_pieces
        return None


class Exchange:
    """No exchange: pieces share one address space.

    Every repair round is one global synchronization and no halo bytes
    move, so the uniform stats report ``sync_rounds == rounds``.  A
    halo exchange overrides the hooks; its ``counters`` override those
    stats (and are checkpointed), and its ``tags`` add static stats that
    a checkpoint must also match to resume.
    """

    tags: dict = {}
    counters: dict = {}

    def start(self, run, restored: bool) -> None:
        """After the piece phase, or on resume with pieces already done."""

    def verify(self, run) -> None:
        """Before a round's repair decisions read the boundary."""

    def after_round(self, run, losers: np.ndarray) -> None:
        """Ship one repair round's recolorings."""


#: Run state a checkpoint carries besides colors and plug-in counters.
_CHECKPOINTED = ("rows", "agg", "done", "rounds", "recolored")


def run_partitioned(
    graph, method: str, source: PieceSource, exchange: Exchange | None = None, *,
    engine: dict, options: dict, validate: bool = True, max_resolution_rounds: int = 16,
    checkpoint=None, checkpoint_every: int = 1, resume=None,
) -> ColoringResult:
    """Partition → color pieces → resolve boundary → assemble.

    ``engine`` is the entry point's engine keywords after
    :func:`prepare_call` (``observe``, ``faults``, ``health`` and
    ``deadline_ms`` are read here; the source reads its own).
    ``options`` are scheme options for every piece.  Checkpoint stats,
    resume provenance and deadline attribution report through
    ``result.robustness``, so asking for any of them gets a bundle even
    with no fault plan.
    """
    try:
        run = _Run(graph, method, options, source, exchange or Exchange(), engine,
                   validate=validate, max_resolution_rounds=max_resolution_rounds)
        run.open_checkpoints(checkpoint, checkpoint_every, resume)
        return run.drive()
    finally:
        source.close()


class _Run:
    """State of one partitioned run, shared with its plug-ins."""

    def __init__(self, graph, method, options, source, exchange, engine, *, validate,
                 max_resolution_rounds) -> None:
        self.graph, self.method, self.options = graph, method, options
        self.source, self.exchange = source, exchange
        self.validate, self.max_resolution_rounds = validate, max_resolution_rounds
        self.name = getattr(graph, "name", "?")
        #: Shared with every nested piece run (``observe=`` of each).
        self.tracer = resolve_observe(engine.get("observe"))
        self.robustness = resolve_robustness(engine.get("faults"), engine.get("health"))
        self.control = resolve_control(engine.get("deadline_ms"))
        self.ckpt = None
        self.colors = np.zeros(graph.num_vertices, dtype=COLOR_DTYPE)
        self.rows: list[dict] = []
        # Per-piece scalars fold into JSON-safe aggregates as they land,
        # so checkpoints carry them and resumed runs rebuild the result.
        self.agg = {"iterations": 0, "gpu_us": 0.0, "cpu_us": 0.0, "xfer_us": 0.0, "launches": 0}
        self.done = self.rounds = self.recolored = 0  # pieces colored, repair rounds

    def open_checkpoints(self, checkpoint, every, resume) -> None:
        """Robustness bundle, checkpointer and resume state for this run."""
        if self.robustness is None and (
            checkpoint is not None or resume is not None or self.control is not None
        ):
            self.robustness = Robustness()
        if self.robustness is not None and self.robustness.log.tracer is None:
            self.robustness.log.tracer = self.tracer
        if checkpoint is None and resume is None:
            return
        # Resuming under a different graph/scheme/options/piece count is
        # a structured error, not garbage.
        fingerprint = run_fingerprint(
            self.graph.content_digest(), self.source.label, self.method,
            {**self.options, **self.exchange.tags}, self.source.num_pieces,
        )
        if checkpoint is not None:
            self.ckpt = Checkpointer(checkpoint, fingerprint=fingerprint, every=every,
                                     robustness=self.robustness)
        restored = (load_resume(resume, fingerprint=fingerprint, robustness=self.robustness)
                    if resume is not None else None)
        if restored is None:
            return
        meta, arrays = restored
        self.colors[:] = arrays["colors"].astype(COLOR_DTYPE, copy=False)
        for field in _CHECKPOINTED:
            setattr(self, field, meta["run"][field])
        self.source.counters = dict(meta["source"])
        self.exchange.counters = dict(meta["exchange"])
        self.robustness.annotate("resumed", {
            "path": str(resume), "round": int(meta["round"]), "phase": meta["phase"],
        })

    def land(self, lo: int, hi: int, piece_graph, res, key: dict) -> None:
        """Record one colored piece: its colors, stats row and timings."""
        self.colors[lo:hi] = res.colors
        self.rows.append({
            **key, "vertices": piece_graph.num_vertices, "edges": piece_graph.num_edges,
            "num_colors": res.num_colors, "iterations": res.iterations,
            "total_time_us": res.total_time_us,
        })
        agg, fold = self.agg, operator.add if self.source.sequential else max
        agg["iterations"] = max(agg["iterations"], int(res.iterations))
        for key_, value in (("gpu_us", res.gpu_time_us), ("cpu_us", res.cpu_time_us),
                            ("xfer_us", res.transfer_time_us)):
            agg[key_] = fold(agg[key_], float(value))
        agg["launches"] += int(res.num_kernel_launches)

    def boundary(self, where: str, index: int, phase: str) -> None:
        """Deadline check plus the ``deadline-storm`` site at a boundary."""
        if self.control is not None:
            self.control.check(where)
        rb = self.robustness
        if rb is not None and rb.fire("deadline-storm", round=index, phase=phase) is not None:
            raise forced_expiry(self.control, where)

    def save(self, round_index: int, phase: str, *, force: bool = False) -> None:
        if self.ckpt is not None:
            meta = {
                "mode": self.source.label, "graph": self.name, "phase": phase,
                "run": {field: getattr(self, field) for field in _CHECKPOINTED},
                "source": self.source.counters, "exchange": self.exchange.counters,
            }
            self.ckpt.save(round_index, meta, {"colors": self.colors}, force=force)

    def resolve(self) -> tuple[bool, int]:
        """Jacobi rounds, then a sequential sweep; ``(fallback, remaining)``.

        ``remaining`` counts undirected conflicts the sweep left (zero
        unless the sweep's mex was broken).
        """
        graph, colors, source, exchange = self.graph, self.colors, self.source, self.exchange
        where, phase = source.round_site
        round_base = source.num_pieces if source.sequential else 0
        losers_mask = np.zeros(graph.num_vertices, dtype=bool)
        while True:
            self.boundary(where, self.rounds, phase)
            losers_mask[:] = False
            conflicted = _mark_conflict_losers(graph, colors, source.bounds, losers_mask)
            if not conflicted:
                return False, 0
            exchange.verify(self)
            losers = np.nonzero(losers_mask)[0]
            sweep = self.rounds >= self.max_resolution_rounds
            if sweep and self.robustness is not None:
                self.robustness.degrade(source.label, source.resolver, "sequential-sweep",
                                        "round-cap", f"rounds={self.rounds} "
                                        f"conflicted_edges={conflicted}")
            # A Jacobi round reads a snapshot; the sweep reads live colors
            # in id order, which terminates by construction.
            snapshot = colors if sweep else colors.copy()
            for w in losers:
                colors[w] = _mex(snapshot[graph.neighbors(w)])
            self.recolored += int(losers.size)
            if sweep:
                break
            self.rounds += 1
            exchange.after_round(self, losers)
            self.save(round_base + self.rounds, "repair")
        losers_mask[:] = False
        return True, _mark_conflict_losers(graph, colors, source.bounds, losers_mask) // 2

    def drive(self) -> ColoringResult:
        source, exchange, tracer, colors = self.source, self.exchange, self.tracer, self.colors
        span, span_end = None, {}
        if tracer is not None:
            span = tracer.begin(
                f"{source.label}:{self.name}", "run", scheme=f"{source.label}({self.method})",
                graph=self.name, vertices=self.graph.num_vertices,
                edges=self.graph.num_edges, **source.span_attrs,
            )
        try:
            restored = self.done == source.num_pieces  # a checkpoint holds the pieces
            degraded = None if restored else source.color(self)
            if degraded is not None:
                degraded.extra["robustness"] = self.robustness.report()
                span_end = {"colors": degraded.num_colors, "degraded": 1}
                return degraded
            exchange.start(self, restored)
            if not (restored or source.sequential):
                # Round 0 = piece phase done: the expensive part, saved
                # unconditionally so a crash in round 1 never re-colors.
                self.save(0, "pieces", force=True)
            fallback, remaining = self.resolve()
            stats = {
                "num_shards": source.num_pieces, "method": self.method, **source.tags,
                **source.counters, "shards": self.rows, "resolution_rounds": self.rounds,
                "recolored": self.recolored, "fallback": fallback, "sync_rounds": self.rounds,
                "halo_bytes_modeled": 0, "speculation_hits": 0,
                **exchange.tags, **exchange.counters,
            }
            if tracer is not None:
                tracer.event(
                    "boundary-resolution", "resolve", rounds=self.rounds,
                    recolored=self.recolored, fallback=int(fallback),
                    sync_rounds=stats["sync_rounds"], halo_bytes=stats["halo_bytes_modeled"],
                    speculation_hits=stats["speculation_hits"], remaining_conflicts=remaining,
                )
            agg = self.agg
            result = ColoringResult(
                colors=colors, iterations=agg["iterations"] + self.rounds,
                scheme=f"{source.label}({self.method})x{source.num_pieces}{source.suffix}",
                gpu_time_us=agg["gpu_us"], cpu_time_us=agg["cpu_us"],
                transfer_time_us=agg["xfer_us"] + stats.get("comm_time_us", 0.0),
                num_kernel_launches=agg["launches"],
            )
            result.extra["shard_stats"] = stats
            if tracer is not None:
                result.extra.setdefault("observation", tracer)
            self._annex(result)
            span_end = {"colors": result.num_colors, "iterations": result.iterations,
                        "resolution_rounds": self.rounds, "sync_rounds": stats["sync_rounds"]}
            uncolored = int((colors <= 0).sum()) if self.validate else 0
            if uncolored or (self.validate and remaining):
                raise ColoringError(f"{result.scheme}: " + (
                    f"{uncolored} vertices left uncolored" if uncolored
                    else f"{remaining} conflicting edges remain"))
            return result
        finally:
            if span is not None:
                tracer.end(span, **span_end)

    def _annex(self, result) -> None:
        """Checkpoint stats and deadline attribution into the run report."""
        rb, control = self.robustness, self.control
        if rb is None:
            return
        if self.ckpt is not None:
            rb.annotate("checkpoint", self.ckpt.stats())
        if control is not None and control.deadline is not None:
            queued, running = control.elapsed_snapshot()
            rb.annotate("deadline", {
                "deadline_ms": control.deadline.deadline_ms,
                "queued_ms": round(queued, 3), "running_ms": round(running, 3),
            })
        result.extra["robustness"] = rb.report()
