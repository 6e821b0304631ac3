"""Multi-device distributed coloring with halo exchange.

:func:`color_distributed` lifts :func:`~repro.parallel.sharded
.color_sharded` onto a modeled device cluster (Bogle & Slota's
distributed-GPU blueprint): the vertex set block-partitions onto ``N``
simulated Kepler devices, each device colors its shard through its own
:class:`~repro.engine.context.ExecutionContext` (via the pluggable
:class:`~repro.distributed.transport.Transport`), and the boundary
repair runs as **per-round halo exchange** — devices ship boundary
colors over the :class:`~repro.distributed.topology.Topology`, whose
latency/bandwidth costs are charged to the simulated clock.

Byte-identity contract
----------------------
The run is the shared partitioned driver
(:mod:`repro.parallel.partitioned`) with device shards as the piece
source and the halo exchange below as its exchange plug-in, so the
*functional* decision sequence is exactly ``color_sharded``'s: the
same block partition, the same per-shard jobs, the same Jacobi rule
(losers = higher-id endpoints of conflicted edges, recolored to the mex
of a snapshot neighborhood), the same round cap and sequential-sweep
fallback.  The distributed layer changes only *when data moves and what
it costs*: the halo protocol delivers every boundary color change to
every adjacent device the round it happens, so each device's halo is
provably equal to the global snapshot (``HaloState.verify`` asserts it
when validation is on) and the local decisions equal the global ones.
``color_distributed(devices=k)`` therefore returns colors byte-identical
to ``color_sharded(num_shards=k)`` — the golden-suite leg in
``tests/test_distributed.py``.

Lockstep vs speculative
-----------------------
``speculate=False`` models the classic lockstep loop: every round is a
global barrier where each device re-ships its **full** boundary color
vector to every linked neighbor (how the pre-distributed code behaved,
priced).  ``speculate=True`` models speculative boundary coloring:
devices recolor tentatively from the halo they already hold and ship
only **deltas** — the boundary vertices that actually changed — to the
devices adjacent to them; a linked device pair with no change on its
cut exchanges nothing and does not synchronize that round.

``sync_rounds`` counts synchronizations at the *link* grain — one per
linked (unordered) device pair per round it exchanged — because that is
the quantity lockstep inflates: a barrier forces every linked pair into
every round (``links × (rounds + 1)``, initial exchange included), while
speculation synchronizes a pair only in rounds where its cut actually
changed.  Each pair-round speculation avoided is a *speculation hit*
(the pair's tentative colors stood without synchronization).  Both the
sync-round count and the modeled byte volume are deterministic
functional quantities, so ``benchmarks/BENCH_distributed.json`` gates
them exactly.
"""

from __future__ import annotations

import numpy as np

from ..coloring.base import ColoringResult
from ..parallel.jobs import JobFailure
from ..parallel.partitioned import (
    BlockSource, Exchange, PieceFailures, prepare_call, run_partitioned,
)
from .halo import COLOR_BYTES, DELTA_BYTES, HaloState, build_halo_plan
from .topology import Message, resolve_topology
from .transport import Transport, resolve_transport

__all__ = ["DistributedColoringError", "color_distributed"]


class DistributedColoringError(PieceFailures):
    """A device shard failed after the transport's retries."""

    item, noun = "device", "device shard"


class _HaloExchange(Exchange):
    """Per-round halo exchange priced on the device topology.

    The halo fault sites (``transport-partition``, ``halo-reorder``,
    ``halo-drop``, ``halo-corrupt``) act on the in-flight payload — never
    on the ground-truth colors — and a damaged round is healed by a full
    (priced) resync before any halo is read again.
    """

    def __init__(self, plan, topo, xport, speculate: bool) -> None:
        self.plan, self.topo, self.xport, self.speculate = plan, topo, xport, speculate
        self.halo = HaloState(plan)
        self.links = len({tuple(sorted(pair)) for pair in plan.send})
        self.tags = {"topology": topo.name, "speculate": speculate, "links": self.links}
        self.counters = {"sync_rounds": 0, "halo_bytes_modeled": 0, "halo_messages": 0,
                         "speculation_hits": 0, "comm_time_us": 0.0}

    def _full(self, colors) -> list:
        return [(d, e, ids, colors[ids]) for (d, e), ids in sorted(self.plan.send.items())]

    def start(self, run, restored: bool) -> None:
        if restored:
            # Rebuild every device's halo from the checkpointed truth.
            # Local reconstruction, not wire traffic: nothing is priced,
            # so resumed stats match the uninterrupted run's exactly.
            for _, e, ids, cols in self._full(run.colors):
                self.halo.apply(e, ids, cols)
            return
        # Initial exchange: every device ships its full boundary color
        # vector once, so round-1 conflict detection sees true halos.
        self._exchange(run, self._full(run.colors), "halo-exchange:initial", "full")

    def verify(self, run) -> None:
        if run.validate:
            # Protocol invariant: the halos every device would read
            # this round equal the ground-truth colors.
            self.halo.verify(run.colors)

    def after_round(self, run, losers) -> None:
        colors, label = run.colors, f"halo-exchange:{run.rounds}"
        if self.speculate:
            # Ship only the boundary vertices that changed, only to the
            # devices adjacent to them.  A linked pair whose cut saw no
            # change exchanges nothing — that skipped synchronization is
            # a speculation hit.
            changed = [(d, e, ids[np.isin(ids, losers, assume_unique=True)])
                       for (d, e), ids in sorted(self.plan.send.items())]
            payload = [(d, e, ids, colors[ids]) for d, e, ids in changed if ids.size]
            synced = self._exchange(run, payload, label, "delta")
            self.counters["speculation_hits"] += self.links - synced
        else:
            self._exchange(run, self._full(colors), label, "full")

    def _inject(self, rb, payload, mode, rounds) -> tuple[list, bool]:
        """The halo fault sites on one round's payload: ``(payload, damaged)``."""
        hits = []

        def damaged(reason, detail):
            rb.degrade("halo", f"exchange({mode})", "resync", reason, f"round={rounds}: {detail}")
            hits.append(reason)

        if rb.fire("transport-partition", round=rounds) is not None:
            damaged("transport-partition", f"all {len(payload)} halo message(s) lost")
            return [], True
        if rb.fire("halo-reorder", round=rounds) is not None:
            # Delivery order must not matter: senders own disjoint vertex
            # sets, so this is exercised as a commutativity check, not a
            # corruption.
            payload = list(reversed(payload))
        kept = []
        for src, dst, ids, cols in payload:
            if rb.fire("halo-drop", round=rounds, src=src, dst=dst) is not None:
                damaged("halo-drop", f"message {src}->{dst} dropped")
                continue
            spec = rb.fire("halo-corrupt", round=rounds, src=src, dst=dst)
            if spec is not None:
                offset = int(spec.param) if spec.param is not None else 1
                cols = (cols + offset).astype(cols.dtype)
                damaged("halo-corrupt", f"message {src}->{dst} payload offset by {offset}")
            kept.append((src, dst, ids, cols))
        return kept, bool(hits)

    def _exchange(self, run, payload, label, mode, *, inject=True) -> int:
        """Deliver one round's messages; charge the topology.

        Returns the number of linked pairs that synchronized (one
        unordered pair may carry messages both ways).  When a fault site
        damaged the round, a full (priced) re-broadcast heals the halo
        before anything reads it again, so verification still holds and
        colors stay byte-identical; only the traffic/sync stats record
        that healing cost something.
        """
        if inject and run.robustness is not None and payload:
            payload, damaged = self._inject(run.robustness, payload, mode, run.rounds)
            if damaged:
                synced = self._exchange(run, payload, label, mode, inject=False)
                self._exchange(run, self._full(run.colors),
                               label.replace("exchange", "resync"), "full", inject=False)
                return synced
        if not payload:
            return 0
        per_color = COLOR_BYTES if mode == "full" else DELTA_BYTES
        priced = [Message(src, dst, ids.size * per_color) for src, dst, ids, _ in payload]
        self.xport.deliver(payload)
        for _, dst, ids, cols in payload:
            self.halo.apply(dst, ids, cols)
        cost = self.topo.exchange_time_us(priced)
        nbytes = sum(m.nbytes for m in priced)
        synced = len({tuple(sorted((m.src, m.dst))) for m in priced})
        for key, value in (("sync_rounds", synced), ("halo_bytes_modeled", nbytes),
                           ("halo_messages", len(priced)), ("comm_time_us", cost)):
            self.counters[key] += value
        if run.tracer is not None:
            run.tracer.event(label, "exchange", duration_us=cost, bytes=nbytes,
                             messages=len(priced), mode=mode, pairs_synced=synced)
        return synced


class _Devices(BlockSource):
    """Device shards through a :class:`Transport`, one context each."""

    label = "distributed"
    resolver = "halo-jacobi"
    round_site = ("sync-round", "sync")
    row_keys = ("shard", "device")
    error = DistributedColoringError

    def __init__(self, graph, devices, topology, transport, speculate, engine: dict) -> None:
        super().__init__(graph, devices, engine)
        topo = resolve_topology(topology, self.num_pieces, entry_point="color_distributed")
        self.xport = resolve_transport(transport, workers=engine["workers"],
                                       entry_point="color_distributed")
        self.own_transport = not isinstance(transport, Transport)
        self.breaker = None
        plan = build_halo_plan(graph, self.partition)
        self.exchange = _HaloExchange(plan, topo, self.xport, speculate)
        self.suffix = f"@{topo.name}" + ("" if speculate else ":lockstep")
        self.tags = {"devices": self.num_pieces, "mode": "distributed",
                     "transport": self.xport.name, "boundary_vertices": self.boundary}
        self.span_attrs = {**self.tags, "topology": topo.name, "speculate": int(speculate)}

    def color(self, run):
        # Circuit breaker: a pool transport that keeps losing devices is
        # not worth re-probing every call — while open, route straight to
        # the proven serial chain (byte-identical colors by the identity
        # contract).
        rb = run.robustness
        if rb is not None and rb.breaker is not None and self.xport.name == "pool":
            self.breaker = rb.breaker
            if not self.breaker.allow():
                rb.degrade("breaker", f"distributed(x{self.num_pieces},pool)", "sharded",
                           "open", "circuit breaker open; skipping pool transport")
                return self.degrade(run, [])
        return super().color(run)

    def execute(self, run, jobs, pieces) -> list:
        e, breaker = self.engine, self.breaker
        outcomes = self.xport.run_shards(
            jobs, backend=e["backend"], backend_opts=e["backend_opts"], validate=run.validate,
            want_trace=run.tracer is not None, robustness=run.robustness, store=e["store"],
            control=run.control,
        )
        failures = [o for o in outcomes if isinstance(o, JobFailure)]
        if breaker is not None:
            breaker.record(
                f"{len(failures)} device shard(s) failed" if failures else None, run.robustness,
                f"breaker {breaker.name!r} opened after {breaker.failure_threshold} "
                f"consecutive failing calls",
            )
        if failures:
            return outcomes
        for dev, job, (_, roots) in zip(pieces, jobs, outcomes):
            if run.tracer is not None and roots:
                run.tracer.merge_subtrace(roots, label=f"device-{dev}:{run.method}", device=dev,
                                          category="device", graph=job.graph_name())
        return [res for res, _ in outcomes]

    def degrade(self, run, failures):
        """The distributed → sharded degradation chain.

        When device shards keep failing, fall back to single-device
        operation: the proven serial ``color_sharded`` path on the same
        shard count — colors stay byte-identical to the distributed run
        by the identity contract, so the degradation is invisible in
        output.
        """
        from ..parallel.sharded import color_sharded

        failed = [f.index for f in failures]
        run.robustness.degrade(
            "distributed", f"distributed(x{self.num_pieces},{self.xport.name})", "sharded",
            "device-failures", f"failed_devices={failed}",
        )
        result = color_sharded(
            run.graph, run.method, num_shards=self.num_pieces, scheduler="serial",
            backend=self.engine["backend"], backend_opts=self.engine["backend_opts"],
            observe=run.tracer, validate=run.validate,
            max_resolution_rounds=run.max_resolution_rounds, faults=run.robustness.healer(),
            **run.options,
        )
        result.extra["shard_stats"] = {
            **(result.shard_stats or {}), "degraded": "sharded", "failed_devices": failed,
        }
        return result

    def close(self) -> None:
        if self.own_transport:
            self.xport.close()


def color_distributed(
    graph,
    method: str = "data-ldg",
    *,
    devices: int | None = None,
    topology=None,
    transport=None,
    speculate: bool = True,
    workers=None,
    backend=None,
    backend_opts=None,
    config=None,
    observe=None,
    validate: bool = True,
    max_resolution_rounds: int = 16,
    faults=None,
    health=None,
    store=None,
    deadline_ms=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume=None,
    **options,
) -> ColoringResult:
    """Color ``graph`` across ``devices`` simulated devices.

    Parameters
    ----------
    devices:
        Simulated device count (default 4); each device owns one
        contiguous shard (capped at the vertex count, like
        ``num_shards``).
    topology:
        Interconnect model pricing halo traffic: ``'pcie'`` (default,
        shared host bus), ``'nvlink'`` (all-to-all peer links),
        ``'ring'`` (neighbor links, hop-routed), or a
        :class:`~repro.distributed.topology.Topology` instance.
    transport:
        How shards execute and halos ship: ``'local'`` (in-process
        per-device contexts — the default), ``'pool'`` (worker
        processes via the process-pool scheduler; default when
        ``workers`` is set), or a
        :class:`~repro.distributed.transport.Transport`.
    speculate:
        ``True`` (default) ships boundary *deltas* and synchronizes a
        linked device pair only in rounds where its cut changed;
        ``False`` models the lockstep full-exchange-every-round loop.
        Colors are identical either way; ``sync_rounds`` /
        ``halo_bytes_modeled`` / ``speculation_hits`` differ.
    workers:
        Pool size for the ``'pool'`` transport (default: one worker per
        device); setting it selects the pool transport when
        ``transport`` is unset.
    faults / health:
        The robustness layer.  With a degradation-permitting policy,
        persistent device failures degrade the run to single-device
        serial ``color_sharded`` on the same shard count (recorded as a
        ``distributed`` degradation event) — byte-identical colors —
        instead of raising.
    store:
        Graph arena for shard placement (``'shm'``/``'mmap'`` publish
        once, devices attach zero-copy).
    deadline_ms:
        Wall-clock budget for the whole call (or a ready
        :class:`~repro.resilience.RunControl`): checked before each
        shard dispatch and at every sync-round boundary, raising the
        structured :class:`~repro.resilience.DeadlineExceeded`.
    checkpoint / checkpoint_every / resume:
        Round-state checkpointing (see :mod:`repro.resilience`):
        ``checkpoint=<path>`` atomically snapshots colors + counters
        after the shard phase and every ``checkpoint_every`` sync
        rounds; ``resume=<path>`` restores a matching checkpoint and
        continues — final colors are byte-identical to an uninterrupted
        run.  A missing resume file is a normal fresh start.

    Returns
    -------
    ColoringResult
        Colors byte-identical to ``color_sharded(num_shards=devices)``;
        ``shard_stats`` adds ``sync_rounds``, ``halo_bytes_modeled``,
        ``speculation_hits``, ``halo_messages`` and ``comm_time_us``,
        and the interconnect cost lands in ``transfer_time_us``.

    Raises
    ------
    DistributedColoringError
        When a device shard fails after retries and the health policy
        forbids degradation.
    """
    method, engine = prepare_call("color_distributed", method, config, {
        "backend": backend, "backend_opts": backend_opts, "store": store, "workers": workers,
        "faults": faults, "health": health, "observe": observe, "devices": devices,
        "topology": topology, "deadline_ms": deadline_ms,
    })
    devices = 4 if engine["devices"] is None else engine["devices"]
    if devices < 1:
        raise ValueError("devices must be >= 1")
    topology = "pcie" if engine["topology"] is None else engine["topology"]
    source = _Devices(graph, devices, topology, transport, speculate, engine)
    return run_partitioned(
        graph, method, source, source.exchange, engine=engine, options=options,
        validate=validate, max_resolution_rounds=max_resolution_rounds,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every, resume=resume,
    )
