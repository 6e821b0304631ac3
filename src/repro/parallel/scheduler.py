"""Batch schedulers: shard (graph, scheme) jobs across worker processes.

The simulation is CPU-bound pure Python, so independent jobs scale
across *processes* (the GIL rules out threads).  Two schedulers share
one contract:

* :class:`SerialScheduler` — in-process, one job at a time; the
  fallback and the reference the process pool must match byte-for-byte.
* :class:`ProcessPoolScheduler` — a ``concurrent.futures`` process
  pool.  Each worker process lazily builds its **own**
  :class:`~repro.engine.context.ExecutionContext` and canonicalizes
  unpickled graphs by content digest, so upload caching still amortizes
  when a worker sees the same graph twice.  Results stream back in
  submission order; a job that raises, crashes its worker, or exceeds
  ``timeout_s`` is retried with jittered exponential backoff and, once
  attempts are exhausted, surfaced as a structured
  :class:`~repro.parallel.jobs.JobFailure` instead of killing the batch.

Timeouts and hung workers: the first timeout aborts the collection
round — still-queued futures are cancelled and their attempts refunded
(they were starved, not faulty), already-finished ones are harvested —
and the pool is *recycled*: leftover hung worker processes are
terminated so they can't occupy slots of the next round.  Waiting is
therefore bounded by ``workers × timeout_s`` per round, not
``jobs × timeout_s``.

Retry backoff: :func:`backoff_delay` — exponential from ``backoff_s``,
capped at :data:`BACKOFF_CAP_S`, with deterministic bounded jitter in
``[0.5×, 1.0×]`` so simultaneous batches don't resubmit in lockstep.

Fault injection (see :mod:`repro.faults`): ``execute(robustness=...)``
threads a bundle through the batch.  The coordinator decides the
``worker-crash`` / ``worker-hang`` sites at submit time (so their
records survive the dead worker) and ships the plan + policy to workers,
which consult the ``job-error`` site and the engine-level sites; worker
fault/degradation reports are absorbed back into the coordinator bundle
in submission order.  The serial scheduler is deliberately immune to
``worker-crash`` / ``worker-hang`` — it is the healing fallback of the
pool → serial degradation chain.

Determinism: the simulated device is deterministic, so colors and
iteration counts are byte-identical across schedulers and worker
counts.  Simulated *timings* of a job can differ from a shared-context
serial run (each worker's device starts with cold caches); see
docs/PARALLEL.md.

:func:`run_jobs` is the orchestrator ``color_many`` calls: result-cache
lookups happen in the coordinator (hits never reach a worker), per-job
worker subtraces merge into the batch tracer (their ``round`` spans
carry the per-round records), and failed jobs degrade to a serial
re-run when the batch's health policy allows it.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from .. import compiledsim
from ..faults import (
    FaultInjected,
    FaultInjector,
    Robustness,
    resolve_robustness,
)
from ..faults import runtime as _fault_runtime
from ..obs.observe import resolve_observe
from ..resilience.breaker import BACKOFF_CAP_S, RetryPolicy
from ..resilience.deadline import (
    Cancelled,
    DeadlineExceeded,
    RunControl,
    activate_control,
    resolve_control,
)
from .cache import job_cache_key, resolve_cache
from .jobs import ColorJob, JobFailure

__all__ = [
    "BACKOFF_CAP_S",
    "backoff_delay",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "resolve_scheduler",
    "publish_jobs",
    "run_jobs",
]

#: Simulated-wall-clock a ``worker-hang`` fault sleeps when its spec has
#: no ``param`` (long enough to trip any sane ``timeout_s``).
_DEFAULT_HANG_S = 3600.0


def backoff_delay(base: float, round_index: int, *,
                  cap: float = BACKOFF_CAP_S, seed=None) -> float:
    """Jittered exponential backoff for retry round ``round_index``.

    Thin wrapper over :meth:`repro.resilience.RetryPolicy.delay` — the
    formula (``base * 2**round_index`` capped at ``cap``, jitter in
    ``[0.5, 1.0]`` from SHA-256 of ``(seed, round_index)``) now lives
    there so the scheduler and the distributed transport share one
    policy object.  ``seed=None`` uses the process id; pass an int for
    reproducible delays in tests.
    """
    return RetryPolicy(
        retries=0, backoff_s=base, cap_s=cap, jitter_seed=seed
    ).delay(round_index)


# ---------------------------------------------------------------------------
# The shared per-job runner (used in-process by SerialScheduler and the
# distributed LocalTransport, inside worker processes by
# ProcessPoolScheduler).
# ---------------------------------------------------------------------------
def _run_one(ctx_map: dict, job: ColorJob, backend, backend_opts: dict,
             validate: bool, want_trace: bool, robustness=None, control=None):
    """Execute one job; returns ``(result, trace_roots)``.

    Untraced device jobs share the ``ctx_map`` ExecutionContext (upload
    caching, pooled buffers); traced jobs get an ephemeral context with
    a job-local tracer whose spans the coordinator merges.
    ``robustness`` (if any) is scoped onto the context for the run, so
    the engine-level injection sites and guard rails see it.
    """
    from contextlib import nullcontext

    from ..coloring.api import ENGINE_RECIPES, color_graph
    from ..engine.context import ExecutionContext
    from ..faults import runtime as fault_runtime
    from ..obs.tracer import Tracer

    tracer = Tracer() if want_trace else None
    if job.method in ENGINE_RECIPES:
        if tracer is not None:
            ctx = ExecutionContext(
                backend=backend, observe=tracer, **dict(backend_opts or {}),
            )
        else:
            ctx = ctx_map.get("ctx")
            if ctx is None:
                ctx = ctx_map["ctx"] = ExecutionContext(
                    backend=backend, **dict(backend_opts or {})
                )
        scope = (
            ctx.robustness_scope(robustness)
            if robustness is not None
            else nullcontext()
        )
        cscope = (
            ctx.control_scope(control)
            if control is not None
            else nullcontext()
        )
        with scope, cscope:
            result = ctx.run(
                job.graph, job.method, validate=validate, **job.options
            )
    else:
        # Host-side schemes take no backend; in a batch the backend applies
        # to the device jobs only.
        with fault_runtime.activate(robustness), activate_control(control):
            result = color_graph(
                job.graph, job.method, validate=validate, observe=tracer,
                **job.options
            )
    # The coordinator attaches its own tracer.
    result.extra.pop("observation", None)
    return result, tracer.roots if tracer is not None else None


# ---------------------------------------------------------------------------
# Worker-process side of the process pool.
# ---------------------------------------------------------------------------
#: Per-worker-process state: the backend spec (from the initializer), the
#: lazily built ExecutionContext, and two bounded graph caches keyed by
#: content digest so repeat jobs on one graph hit the context's upload
#: cache without retaining every graph the worker ever saw.
_WORKER_STATE: dict = {}

#: Cap on *pickled heap* graphs a worker retains across jobs.  These are
#: full private copies of the topology, so the cap bounds worker RSS at
#: ``cap × largest-graph`` instead of ``jobs × graph`` (the old dict grew
#: forever).
_HEAP_GRAPH_CACHE = 8

#: Cap on *handle-attached* graphs (shm/mmap arenas).  Attached graphs
#: bypass the heap cache entirely — their arrays are zero-copy views, so
#: the entries cost only the arena mapping — but the cap still bounds
#: open segment/file handles, and keeps object identity stable across
#: jobs so the ExecutionContext upload cache keeps hitting.
_ATTACHED_GRAPH_CACHE = 8


class _GraphLRU:
    """Tiny digest-keyed LRU; eviction drops the engine's cached buffers.

    ``get_or_add`` returns the retained graph for ``key`` (refreshing
    recency) or admits ``factory()``.  Evicted graphs are first evicted
    from the shared ExecutionContext (``ctx.evict`` returns their device
    buffers to the pool) and then simply dropped — for attached graphs
    the arena mapping is released when the last view is collected.
    """

    def __init__(self, capacity: int) -> None:
        from collections import OrderedDict

        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def get_or_add(self, key: str, factory, ctx_map: dict):
        graph = self._entries.get(key)
        if graph is not None:
            self._entries.move_to_end(key)
            return graph
        graph = factory()
        self._entries[key] = graph
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            ctx = ctx_map.get("ctx")
            if ctx is not None:
                ctx.evict(evicted)
        return graph

    def __len__(self) -> int:
        return len(self._entries)


def _worker_init(backend, backend_opts: dict) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        backend=backend, backend_opts=dict(backend_opts or {}),
        ctx_map={},
        graphs=_GraphLRU(_HEAP_GRAPH_CACHE),
        attached=_GraphLRU(_ATTACHED_GRAPH_CACHE),
    )
    # A forked worker inherits the coordinator's resolved table (see
    # ``_new_pool``) and this returns at once; a spawned one loads the
    # disk-cached build here instead of inside its first job.
    compiledsim.warmup()


def _resolve_job_graph(job: ColorJob):
    """The worker-side graph for ``job``: attach by handle, or retain.

    Handle-bearing jobs arrive without topology (``graph=None``) and
    attach zero-copy from the arena; heap jobs arrive with a pickled
    private copy that the bounded LRU retains for digest-identical
    repeats.  Either way the digest memo traveled with the job, so no
    multi-gigabyte array is ever re-hashed here.
    """
    ctx_map = _WORKER_STATE["ctx_map"]
    if job.graph is None:
        if job.handle is None:
            raise ValueError("job crossed the pool with neither graph nor handle")
        return _WORKER_STATE["attached"].get_or_add(
            job.handle.digest, job.handle.attach, ctx_map
        )
    return _WORKER_STATE["graphs"].get_or_add(
        job.graph.content_digest(), lambda: job.graph, ctx_map
    )


def _worker_run(payload):
    """Run one job in a worker.  Payload:
    ``(index, job, validate, want_trace, attempt, plan, policy,
    directive, budget)`` — attempt through directive are the
    fault-injection leg, ``budget`` the shipped deadline snapshot
    (``None``-heavy in normal operation).  Returns ``("ok", index,
    result, roots, report)``, ``("deadline", index, payload,
    report)`` for a budget expiry (never retried), or ``("err", index,
    error, tb, report)`` where ``report`` carries the worker-side
    fired-fault and degradation records for the coordinator to absorb.
    """
    (index, job, validate, want_trace,
     attempt, plan, policy, directive, budget) = payload
    rb = None
    if plan is not None or policy is not None:
        rb = Robustness(
            injector=FaultInjector(plan) if plan is not None else None,
            policy=policy,
        )
    control = RunControl.from_shipped(budget)
    try:
        if directive == "crash":
            os._exit(1)  # simulated worker death: no cleanup, no goodbye
        elif isinstance(directive, tuple) and directive[0] == "hang":
            time.sleep(directive[1])
        if control is not None:
            control.check("job-start")
        if rb is not None:
            spec = rb.fire("job-error", job=index, attempt=attempt)
            if spec is not None:
                raise FaultInjected(
                    f"injected transient job error (job={index}, "
                    f"attempt={attempt})"
                )
        graph = _resolve_job_graph(job)
        canonical = ColorJob(graph, job.method, job.options)
        result, roots = _run_one(
            _WORKER_STATE["ctx_map"], canonical,
            _WORKER_STATE["backend"], _WORKER_STATE["backend_opts"],
            validate, want_trace, robustness=rb, control=control,
        )
        return ("ok", index, result, roots, _worker_report(rb))
    except (DeadlineExceeded, Cancelled) as exc:
        # A blown budget is final — retrying cannot un-spend time.
        return ("deadline", index, exc.to_dict(), _worker_report(rb))
    except Exception as exc:  # surfaced as a structured per-job error
        return ("err", index, repr(exc), traceback.format_exc(),
                _worker_report(rb))


def _worker_report(rb):
    if rb is None:
        return None
    return {
        "fired": rb.injector.report() if rb.injector is not None else [],
        "degradations": rb.log.report(),
    }


def _absorb_worker_report(robustness, report) -> None:
    """Fold a worker's fault/degradation records into the batch bundle."""
    if robustness is None or report is None:
        return
    if robustness.injector is not None and report["fired"]:
        robustness.injector.absorb(report["fired"])
    if report["degradations"]:
        robustness.log.absorb(report["degradations"])


# ---------------------------------------------------------------------------
# Schedulers.
# ---------------------------------------------------------------------------
class SerialScheduler:
    """Run jobs one at a time in this process (the reference order).

    Also the healing end of the pool → serial degradation chain, so it
    deliberately ignores the ``worker-crash`` / ``worker-hang`` sites
    (there is no worker process to kill); ``job-error`` and the
    engine-level sites fire normally.
    """

    name = "serial"

    def __init__(self, *, retries: int = 0, backoff_s: float = 0.0,
                 jitter_seed=None) -> None:
        self.retry = RetryPolicy(retries=retries, backoff_s=backoff_s,
                                 jitter_seed=jitter_seed)
        self.retries = self.retry.retries
        self.backoff_s = self.retry.backoff_s
        self.jitter_seed = jitter_seed

    def execute(self, jobs, *, backend=None, backend_opts=None, validate=True,
                want_trace=False, robustness=None, control=None):
        ctx_map: dict = {}
        outcomes = []
        for i, job in enumerate(jobs):
            if control is not None:
                control.check("dispatch")
            attempt = 0
            while True:
                attempt += 1
                try:
                    if robustness is not None:
                        spec = robustness.fire("job-error", job=i, attempt=attempt)
                        if spec is not None:
                            raise FaultInjected(
                                f"injected transient job error (job={i}, "
                                f"attempt={attempt})"
                            )
                    outcomes.append(_run_one(
                        ctx_map, job, backend, backend_opts or {},
                        validate, want_trace,
                        robustness=robustness, control=control,
                    ))
                    break
                except (DeadlineExceeded, Cancelled):
                    raise  # a blown budget is final; retries cannot help
                except Exception as exc:
                    if attempt > self.retries:
                        outcomes.append(JobFailure(
                            index=i, graph=job.graph_name(),
                            method=job.method, attempts=attempt,
                            error=repr(exc), traceback=traceback.format_exc(),
                        ))
                        break
                    time.sleep(self.retry.delay(attempt - 1))
        return outcomes


class ProcessPoolScheduler:
    """Shard jobs across a pool of worker processes.

    Parameters
    ----------
    workers:
        Pool size (default: the machine's CPU count).
    retries:
        Extra attempts per failed job (default 2 → up to 3 attempts).
    backoff_s:
        Base sleep between retry rounds; grows exponentially per round
        with bounded jitter, capped at :data:`BACKOFF_CAP_S` (see
        :func:`backoff_delay`).
    timeout_s:
        Per-job wait budget; a job exceeding it is failed, still-queued
        futures are cancelled with their attempts refunded, and the pool
        is recycled — hung worker processes terminated — so retry rounds
        start with every slot free.  ``None`` waits forever.
    mp_context:
        A ``multiprocessing`` context, e.g. ``get_context("spawn")``;
        default is the platform default (fork on Linux — cheap).
    jitter_seed:
        Backoff jitter seed (default: per-process); pin in tests for
        reproducible delays.
    """

    name = "process"

    def __init__(self, workers: int | None = None, *, retries: int = 2,
                 backoff_s: float = 0.05, timeout_s: float | None = None,
                 mp_context=None, jitter_seed=None) -> None:
        self.workers = max(1, int(workers) if workers else (os.cpu_count() or 1))
        self.retry = RetryPolicy(retries=retries, backoff_s=backoff_s,
                                 jitter_seed=jitter_seed)
        self.retries = self.retry.retries
        self.backoff_s = self.retry.backoff_s
        self.timeout_s = timeout_s
        self.mp_context = mp_context
        self.jitter_seed = jitter_seed
        self.pools_recycled = 0  # observability: how often a pool was rebuilt

    def _new_pool(self, backend, backend_opts):
        # Resolve the kernel tier before any worker forks, so workers
        # inherit the table instead of each building or loading it.
        compiledsim.warmup()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self.mp_context,
            initializer=_worker_init,
            initargs=(backend, dict(backend_opts or {})),
        )

    def _recycle(self, pool, *, kill: bool) -> None:
        """Retire a pool; with ``kill``, terminate its (hung) workers.

        ``shutdown(wait=False)`` alone would *leak* a hung worker — the
        process survives shutdown and keeps its CPU/memory forever — so
        the timeout path terminates every worker still alive and reaps
        it.  Dead pools (``kill=False``) join instantly.
        """
        procs = list(getattr(pool, "_processes", {}).values()) if kill else []
        pool.shutdown(wait=not kill, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
        self.pools_recycled += 1

    def _directive(self, robustness, index: int, attempt: int):
        """Coordinator-side crash/hang decision for one submission.

        Decided here (not in the worker) so the fired-fault record
        survives the worker's death and the decision shares the batch
        injector's fire budgets.
        """
        if robustness is None:
            return None
        spec = robustness.fire("worker-crash", job=index, attempt=attempt)
        if spec is not None:
            return "crash"
        spec = robustness.fire("worker-hang", job=index, attempt=attempt)
        if spec is not None:
            return ("hang", float(spec.param) if spec.param else _DEFAULT_HANG_S)
        return None

    def execute(self, jobs, *, backend=None, backend_opts=None, validate=True,
                want_trace=False, robustness=None, control=None):
        if backend is not None and not isinstance(backend, str):
            raise TypeError(
                "the process scheduler needs a picklable backend spec: pass "
                "a backend *name* ('gpusim'/'cpusim') plus options, not an "
                "instance (each worker builds its own)"
            )
        plan = robustness.plan if robustness is not None else None
        policy = robustness.policy if robustness is not None else None
        outcomes: list = [None] * len(jobs)
        attempts = [0] * len(jobs)
        last_error = [("", "")] * len(jobs)
        pending = list(range(len(jobs)))
        pool = None
        retry_round = 0
        deadline_hit: dict | None = None
        try:
            while pending:
                if control is not None:
                    control.check("dispatch")
                if pool is None:
                    pool = self._new_pool(backend, backend_opts)
                futures = []
                for i in pending:
                    attempts[i] += 1
                    directive = self._directive(robustness, i, attempts[i])
                    budget = control.ship() if control is not None else None
                    payload = (i, jobs[i], validate, want_trace,
                               attempts[i], plan, policy, directive, budget)
                    futures.append((i, pool.submit(_worker_run, payload)))
                failed, refunded = [], []
                rebuild, broken, timed_out = False, False, False
                for i, fut in futures:  # submission order == streaming order
                    if broken:
                        last_error[i] = ("BrokenProcessPool: worker process died", "")
                        failed.append(i)
                        continue
                    if timed_out and fut.cancel():
                        # Still queued behind a hung worker: starved, not
                        # faulty.  Refund the attempt and resubmit.
                        attempts[i] = max(0, attempts[i] - 1)
                        refunded.append(i)
                        continue
                    try:
                        out = fut.result(timeout=self.timeout_s)
                    except FutureTimeoutError:
                        last_error[i] = (
                            f"TimeoutError: no result within {self.timeout_s}s", "")
                        failed.append(i)
                        rebuild = timed_out = True  # a hung worker occupies its slot
                        continue
                    except BrokenProcessPool:
                        last_error[i] = ("BrokenProcessPool: worker process died", "")
                        failed.append(i)
                        rebuild = broken = True
                        continue
                    if out[0] == "ok":
                        _, idx, result, roots, report = out
                        _absorb_worker_report(robustness, report)
                        outcomes[idx] = (result, roots)
                    elif out[0] == "deadline":
                        _, idx, exc_payload, report = out
                        _absorb_worker_report(robustness, report)
                        if deadline_hit is None:
                            deadline_hit = exc_payload
                        attempts[idx] = max(attempts[idx], self.retries + 1)
                    else:
                        _, idx, err, tb, report = out
                        _absorb_worker_report(robustness, report)
                        last_error[idx] = (err, tb)
                        failed.append(idx)
                if rebuild:
                    self._recycle(pool, kill=timed_out)
                    pool = None
                retriable = [i for i in failed if attempts[i] <= self.retries]
                pending = sorted(retriable + refunded)
                for i in failed:
                    if attempts[i] > self.retries:
                        err, tb = last_error[i]
                        outcomes[i] = JobFailure(
                            index=i, graph=jobs[i].graph_name(),
                            method=jobs[i].method, attempts=attempts[i],
                            error=err, traceback=tb,
                        )
                if deadline_hit is not None:
                    # One expired budget expires the whole batch call —
                    # time is shared; finish harvesting, then surface it.
                    raise DeadlineExceeded(
                        deadline_hit["deadline_ms"],
                        queued_ms=deadline_hit["queued_ms"],
                        running_ms=deadline_hit["running_ms"],
                        where=deadline_hit.get("where", "round"),
                    )
                if retriable:
                    time.sleep(self.retry.delay(retry_round))
                    retry_round += 1
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        return outcomes


def resolve_scheduler(spec=None, workers=None):
    """Normalize ``scheduler=``/``workers=`` into a scheduler instance.

    ``None`` infers from ``workers``: serial for ``None``/0/1, a process
    pool otherwise.  Strings name the two built-ins; anything with an
    ``execute`` method passes through (bring your own scheduler — accept
    the ``robustness=`` keyword to participate in fault injection).
    """
    if spec is None:
        if workers is None or int(workers) <= 1:
            return SerialScheduler()
        return ProcessPoolScheduler(workers)
    if isinstance(spec, str):
        if spec == "serial":
            return SerialScheduler()
        if spec == "process":
            return ProcessPoolScheduler(workers)
        raise ValueError(
            f"unknown scheduler {spec!r}; choose 'serial' or 'process' "
            f"(or pass a scheduler instance)"
        )
    if hasattr(spec, "execute"):
        return spec
    raise TypeError(f"cannot interpret {spec!r} as a scheduler")


# ---------------------------------------------------------------------------
# The orchestrator color_many calls.
# ---------------------------------------------------------------------------
def publish_jobs(jobs, store, *, memoize_digests: bool = True):
    """Place each distinct job graph in a ``store=`` arena once.

    Returns ``(jobs, store_obj, own_store)``.  With a ``'shm'``/``'mmap'``
    arena the jobs come back handle-bearing (one publish per content
    digest); otherwise they come back unchanged, each digest memoized
    first when ``memoize_digests`` — so the memo travels with pickled
    jobs and no worker re-hashes the arrays.  A store built here from a
    spec string is batch-scoped (``own_store``: the caller closes it); a
    :class:`~repro.graph.store.GraphStore` instance stays the caller's.
    """
    from ..graph.store import GraphStore, resolve_store

    store_obj = resolve_store(store) if store is not None else None
    own_store = store_obj is not None and not isinstance(store, GraphStore)
    if store_obj is None or store_obj.kind == "heap":
        if memoize_digests:
            for job in jobs:
                job.graph.content_digest()
        return jobs, store_obj, own_store
    published: dict = {}  # digest -> (placed graph, handle)
    shipped = []
    for job in jobs:
        digest = job.graph.content_digest()
        entry = published.get(digest)
        if entry is None:
            entry = published[digest] = store_obj.publish(job.graph)
        placed, handle = entry
        shipped.append(ColorJob(placed, job.method, job.options, handle=handle))
    return shipped, store_obj, own_store


def run_jobs(jobs, *, workers=None, scheduler=None, backend=None,
             backend_opts=None, config=None, observe=None, cache=None,
             validate=True, faults=None, health=None, store=None,
             deadline_ms=None) -> list:
    """Run a normalized job list through cache + scheduler + observation.

    Returns one entry per job, in submission order: a
    :class:`~repro.coloring.base.ColoringResult` or a
    :class:`~repro.parallel.jobs.JobFailure`.  Cache hits are resolved in
    the coordinator and never reach a worker; worker subtraces merge into
    the batch tracer as ``worker`` spans.

    ``store=`` selects the graph arena (see :mod:`repro.graph.store`):
    with ``'shm'`` or ``'mmap'`` the coordinator publishes each unique
    topology once and ships workers a :class:`~repro.graph.store
    .GraphHandle` instead of a pickled graph, so workers attach
    zero-copy.  ``None``/``'heap'`` keeps today's pickle path.  A store
    the coordinator created for this batch is closed — its shm segments
    unlinked — when the batch returns, even on error; pass a
    :class:`~repro.graph.store.GraphStore` *instance* to manage the
    lifetime yourself (e.g. keep arenas warm across batches).

    ``faults=`` / ``health=`` attach the robustness layer (see
    :mod:`repro.faults`).  When the health policy permits degradation,
    jobs the scheduler exhausted retries on are re-run once through a
    fault-free :class:`SerialScheduler` (the pool → serial chain) —
    recorded as a ``scheduler`` degradation event — before a
    :class:`JobFailure` is accepted as final.
    """
    if config is not None:
        from ..engine.config import normalize_config

        merged = normalize_config(
            "run_jobs",
            config,
            {
                "backend": backend, "backend_opts": backend_opts,
                "store": store, "workers": workers, "scheduler": scheduler,
                "cache": cache, "faults": faults, "health": health,
                "observe": observe, "deadline_ms": deadline_ms,
            },
        )
        backend, backend_opts = merged["backend"], merged["backend_opts"]
        store, workers = merged["store"], merged["workers"]
        scheduler, cache = merged["scheduler"], merged["cache"]
        faults, health = merged["faults"], merged["health"]
        observe, deadline_ms = merged["observe"], merged["deadline_ms"]
    jobs = list(jobs)
    tracer = resolve_observe(observe)
    cache_obj = resolve_cache(cache)
    sched = resolve_scheduler(scheduler, workers)
    robustness = resolve_robustness(faults, health)
    if robustness is not None and robustness.log.tracer is None:
        robustness.log.tracer = tracer
    control = resolve_control(deadline_ms)

    # Circuit breaker: while open, don't pay for a process pool that has
    # been failing — route straight to the serial degradation chain.
    breaker = robustness.breaker if robustness is not None else None
    breaker_guarded = (
        breaker is not None and getattr(sched, "name", None) == "process"
    )
    if breaker_guarded and not breaker.allow():
        robustness.degrade(
            "breaker", "process", "serial", "open",
            f"breaker {breaker.name!r} open; "
            f"{breaker.snapshot()['cooldown_left']} cooldown consults left",
        )
        sched = SerialScheduler()
        breaker_guarded = False

    jobs, store_obj, own_store = publish_jobs(
        jobs, store,
        memoize_digests=getattr(sched, "name", None) == "process",
    )

    results: list = [None] * len(jobs)
    keys: list = [None] * len(jobs)

    def _absorb(index, outcome) -> None:
        """Land one scheduler outcome at its batch position."""
        if isinstance(outcome, JobFailure):
            # Re-key the failure to its position in the full batch.
            results[index] = JobFailure(
                index=index, graph=outcome.graph, method=outcome.method,
                attempts=outcome.attempts, error=outcome.error,
                traceback=outcome.traceback,
            )
            return
        result, roots = outcome
        if tracer is not None:
            if roots:
                tracer.merge_subtrace(
                    roots, label=f"job-{index}:{jobs[index].label()}",
                    scheme=jobs[index].method,
                    graph=jobs[index].graph_name(),
                )
            result.extra.setdefault("observation", tracer)
        if cache_obj is not None and keys[index] is not None:
            cache_obj.put(keys[index], result)
            if robustness is not None:
                spec = robustness.fire("cache-corrupt", job=index)
                if spec is not None:
                    cache_obj.corrupt_disk_entry(keys[index])
        results[index] = result

    # Ambient for the coordinator-side work too, so cache quarantines
    # found during the lookup scan land in the batch degradation log.
    # The finally leg retires a batch-scoped store: shm segments unlink
    # (crash-safe — the atexit sweep covers even a skipped finally), mmap
    # temp containers delete.  Worker mappings don't pin the unlink.
    try:
        with _fault_runtime.activate(robustness):
            to_run: list[int] = []
            for i, job in enumerate(jobs):
                if cache_obj is not None:
                    keys[i] = job_cache_key(
                        job.graph, job.method, job.options, backend, backend_opts
                    )
                    hit = cache_obj.get(keys[i])
                    if tracer is not None:
                        tracer.event(f"result-cache:{job.label()}", "cache",
                                     hit=int(hit is not None), miss=int(hit is None))
                    if hit is not None:
                        if tracer is not None:
                            hit.extra.setdefault("observation", tracer)
                        results[i] = hit
                        continue
                to_run.append(i)

            if not to_run:
                return results
            execute_kwargs = dict(
                backend=backend, backend_opts=backend_opts, validate=validate,
                want_trace=tracer is not None,
            )
            if robustness is not None:
                execute_kwargs["robustness"] = robustness
            if control is not None:
                execute_kwargs["control"] = control
            outcomes = sched.execute([jobs[i] for i in to_run], **execute_kwargs)
            for i, out in zip(to_run, outcomes):
                _absorb(i, out)

            # Degradation chain: exhausted-retry failures get one fault-free
            # serial pass before a JobFailure becomes the final answer.
            still_failed = [
                i for i in to_run if isinstance(results[i], JobFailure)
            ]
            if breaker_guarded:
                breaker.record(
                    f"jobs={still_failed} exhausted retries" if still_failed else None,
                    robustness,
                    f"{breaker.failure_threshold} consecutive failed batches",
                )
            if (
                still_failed
                and robustness is not None
                and robustness.policy.degrade
                and getattr(sched, "name", None) != "serial"
            ):
                robustness.degrade(
                    "scheduler", getattr(sched, "name", "?"), "serial",
                    "retries-exhausted", f"jobs={still_failed}",
                )
                healer = robustness.healer()
                serial_out = SerialScheduler().execute(
                    [jobs[i] for i in still_failed],
                    backend=backend, backend_opts=backend_opts, validate=validate,
                    want_trace=tracer is not None,
                    robustness=healer,
                    control=control,
                )
                for i, out in zip(still_failed, serial_out):
                    _absorb(i, out)
        return results
    finally:
        if own_store and store_obj is not None:
            store_obj.close()
