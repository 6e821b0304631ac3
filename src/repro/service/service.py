"""The asyncio coloring service: admission, batching, coalescing.

:class:`ColoringService` turns the batch engine into a long-lived
front end for concurrent callers:

* **Admission control** — a bounded queue with per-priority shares
  (:data:`~repro.service.requests.PRIORITY_SHARES`); refusals are
  structured :class:`~repro.service.requests.AdmissionError`\\ s, never
  silent drops or bare exceptions.
* **Micro-batching** — one dispatcher task drains the queue in priority
  order into ``color_many`` batches (up to ``batch_max`` requests, an
  optional ``batch_window_ms`` accumulation window), executed on a
  worker thread so the event loop stays responsive; the engine batch
  itself fans out across ``config.workers`` processes.
* **Request coalescing** — requests are content-addressed with
  :func:`~repro.parallel.cache.job_cache_key` (graph digest + method +
  resolved options + backend preset).  A request whose key is already
  *in flight* never enqueues: it awaits the leader's future and gets an
  independent clone marked ``extra["coalesced"]=True``.  Completed keys
  are served straight from the shared
  :class:`~repro.parallel.ResultCache` at submit time.  Either way the
  engine computes each distinct job exactly once.

Everything threads through the existing seams: a single
:class:`~repro.engine.config.RunConfig` carries ``backend`` /
``workers`` / ``scheduler`` / ``cache`` / ``store`` / ``faults`` /
``health`` / ``observe``.  A string ``store=`` spec is
resolved once at :meth:`start` into a service-owned arena kept warm
across batches (workers attach zero-copy handles); :meth:`close`
releases it — no leaked ``/dev/shm`` segments.  ``observe=`` attaches a
service-level trace: one ``service.request`` leaf per request (with its
wall-clock latency and coalesced/cache-hit markers) and one
``service.batch`` leaf per engine batch, recorded only from the event
loop thread (the tracer is not thread-safe).

Threading model: every public coroutine must run on the service's event
loop; the engine work happens in ``asyncio.to_thread`` and only the
dispatcher touches it, so at most one engine batch is in flight at a
time (parallelism comes from the worker pool inside the batch).
"""

from __future__ import annotations

import asyncio
import time

from ..engine.config import RunConfig, resolve_run_config
from ..faults import Robustness, resolve_robustness
from ..obs.observe import resolve_observe
from ..parallel.cache import clone_result, job_cache_key, resolve_cache
from ..parallel.jobs import JobFailure
from ..resilience.breaker import CircuitBreaker
from ..resilience.deadline import (
    Cancelled,
    CancelToken,
    Deadline,
    DeadlineExceeded,
    RunControl,
)
from .requests import (
    PRIORITIES,
    PRIORITY_SHARES,
    AdmissionError,
    ColorRequest,
    InflightEntry,
    RequestFailed,
)

__all__ = ["ColoringService"]


class ColoringService:
    """Async coloring front end over the batch engine (module docstring).

    Parameters
    ----------
    method:
        Default scheme for requests that don't name one.
    config:
        A :class:`~repro.engine.config.RunConfig` (or mapping) supplying
        the execution seams.  ``cache`` defaults to a fresh in-memory
        :class:`~repro.parallel.ResultCache` (coalescing needs one);
        ``store`` strings resolve to a service-owned arena.
    max_queue:
        Total admission-queue capacity; each priority class may fill
        only its :data:`~repro.service.requests.PRIORITY_SHARES`
        fraction.
    batch_max:
        Most requests folded into one engine batch.
    batch_window_ms:
        Accumulation window before a batch is cut — trade latency for
        batching opportunity (default 0: dispatch as soon as scheduled).
    validate:
        Default engine-side validation flag for requests.
    """

    def __init__(
        self,
        method: str = "data-ldg",
        *,
        config=None,
        max_queue: int = 64,
        batch_max: int = 8,
        batch_window_ms: float = 0.0,
        validate: bool = True,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.method = method
        self.config: RunConfig = resolve_run_config(config) or RunConfig()
        self.max_queue = max_queue
        self.batch_max = batch_max
        self.batch_window_s = batch_window_ms / 1000.0
        self.validate = validate
        self.observation = resolve_observe(self.config.observe)
        self._cache = resolve_cache(self.config.cache) or resolve_cache("memory")
        self._store = None  # resolved at start()
        self._owns_store = False
        self._queues: dict[str, list[ColorRequest]] = {p: [] for p in PRIORITIES}
        self._inflight: dict[str, InflightEntry] = {}
        self._wake: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._running = False
        self._draining = False
        # Service-owned robustness bundle: the fault injector / breaker /
        # degradation log persist across batches, so the circuit breaker
        # sees the service's whole failure history, not one batch's.
        robustness = resolve_robustness(self.config.faults, self.config.health)
        if robustness is None:
            robustness = Robustness()
        if robustness.breaker is None:
            robustness.breaker = CircuitBreaker(name="service")
        self._robustness = robustness
        # -- counters (see :attr:`stats`) --
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._cache_hits = 0
        self._coalesced = 0
        self._engine_runs = 0
        self._batches = 0
        self._sessions = 0
        self._session_ops = 0
        self._compactions = 0
        self._deadline_hits = 0
        self._cancelled = 0
        self._dispatcher_restarts = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "ColoringService":
        """Bring the service up (idempotent): arena + dispatcher task."""
        if self._running:
            return self
        spec = self.config.store
        if isinstance(spec, str):
            from ..graph.store import resolve_store

            self._store = resolve_store(spec)
            self._owns_store = True
        else:
            self._store = spec  # instance or None: caller owns lifetime
        self._wake = asyncio.Event()
        self._running = True
        self._draining = False
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-color-dispatch"
        )
        self._trace("service.start", "service")
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Shut down: optionally drain queued work, release the arena.

        With ``drain=True`` (default) admission stops (``"draining"``
        rejections) but every already-admitted request completes; with
        ``drain=False`` queued requests fail with
        :class:`AdmissionError("not-running")`.

        Idempotent and crash-safe: a second close (or a close racing a
        first one) is a no-op, and a dispatcher that died on an
        unexpected error still gets the arena released before the error
        resurfaces here — no leaked ``/dev/shm`` segments either way.
        """
        if not self._running:
            return
        self._draining = True
        if not drain:
            for queue in self._queues.values():
                for req in queue:
                    if not req.future.done():
                        req.future.set_exception(AdmissionError("not-running"))
                    self._inflight.pop(req.key, None)
                queue.clear()
        self._wake.set()
        dispatcher, self._dispatcher = self._dispatcher, None
        dispatcher_error = None
        if dispatcher is not None:
            try:
                await dispatcher
            except Exception as exc:
                dispatcher_error = exc
        self._running = False
        if self._owns_store and self._store is not None:
            self._store.close()
            self._store = None
            self._owns_store = False
        self._trace("service.close", "service")
        if dispatcher_error is not None:
            raise dispatcher_error

    async def __aenter__(self) -> "ColoringService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def running(self) -> bool:
        return self._running and not self._draining

    # -- submission ------------------------------------------------------
    async def submit(
        self,
        graph,
        method: str | None = None,
        *,
        options: dict | None = None,
        priority: str = "normal",
        validate: bool | None = None,
        deadline_ms: float | None = None,
    ):
        """Color ``graph``; resolves to the engine's ``ColoringResult``.

        Raises :class:`AdmissionError` when refused and
        :class:`RequestFailed` when the engine exhausts its retries.
        Coalesced/cached completions are marked in ``result.extra``
        (``coalesced`` / ``cache_hit``).

        ``deadline_ms`` (default: ``config.deadline_ms``) is the
        request's end-to-end budget.  Queue wait counts against it: the
        dispatcher stamps the queued share at dispatch and the engine
        checks the rest at round boundaries, so the structured
        :class:`~repro.resilience.DeadlineExceeded` this raises always
        separates queued from running time.  A coalesced follower with a
        budget can abandon its leader without killing it — the run is
        cancelled only when *every* waiter has walked away.
        """
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; choose from {PRIORITIES}"
            )
        method = method or self.method
        options = dict(options or {})
        validate = self.validate if validate is None else validate
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if deadline_ms <= 0:
                self._deadline_hits += 1
                raise DeadlineExceeded(deadline_ms, where="admission")
        self._submitted += 1
        if not self._running:
            self._rejected += 1
            raise AdmissionError("not-running", priority=priority)
        if self._draining:
            self._rejected += 1
            raise AdmissionError("draining", priority=priority)
        key = job_cache_key(
            graph, method, options,
            self.config.backend, self.config.backend_opts,
        )
        started = time.monotonic()
        # Coalesce onto an identical in-flight computation.
        entry = self._inflight.get(key)
        if entry is not None:
            self._coalesced += 1
            result = await self._await_entry(
                entry, deadline_ms, started, follower=True
            )
            self._completed += 1
            self._trace(
                "service.request", "service", coalesced=1,
                latency_us=_us_since(started),
            )
            return clone_result(result, coalesced=True)
        # Serve completed keys straight from the shared result cache.
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            self._completed += 1
            self._trace(
                "service.request", "service", cache_hit=1,
                latency_us=_us_since(started),
            )
            return cached
        depth = self._depth()
        limit = int(self.max_queue * PRIORITY_SHARES[priority])
        if depth >= limit:
            self._rejected += 1
            raise AdmissionError(
                "queue-full", priority=priority, queue_depth=depth, limit=limit
            )
        future = asyncio.get_running_loop().create_future()
        entry = InflightEntry(future=future, token=CancelToken())
        request = ColorRequest(
            graph=graph, method=method, options=options, priority=priority,
            key=key, validate=validate, future=future, submitted_at=started,
            deadline_ms=deadline_ms, token=entry.token,
        )
        self._queues[priority].append(request)
        self._inflight[key] = entry
        self._wake.set()
        result = await self._await_entry(
            entry, deadline_ms, started, follower=False
        )
        self._completed += 1
        self._trace(
            "service.request", "service", latency_us=_us_since(started)
        )
        return result

    async def _await_entry(
        self, entry: InflightEntry, deadline_ms, started, *, follower: bool
    ):
        """Await an in-flight future as one counted waiter.

        The shield keeps a cancelled/timed-out caller from killing the
        computation other waiters still want; the refcount makes the
        *last* leaver cancel it cooperatively via the entry's token.  A
        follower with its own budget bounds the wait with that budget
        (its leader may have none).
        """
        entry.waiters += 1
        try:
            # shield: a cancelled caller must not kill the computation
            # its coalesced followers are awaiting.
            wait = asyncio.shield(entry.future)
            if follower and deadline_ms is not None:
                elapsed_ms = _us_since(started) / 1e3
                budget_s = max(0.0, deadline_ms - elapsed_ms) / 1000.0
                try:
                    return await asyncio.wait_for(wait, timeout=budget_s)
                except asyncio.TimeoutError:
                    self._deadline_hits += 1
                    raise DeadlineExceeded(
                        deadline_ms,
                        queued_ms=(time.monotonic() - started) * 1000.0,
                        where="coalesced-wait",
                    ) from None
            return await wait
        finally:
            entry.waiters -= 1
            if entry.waiters <= 0 and not entry.future.done():
                self._cancelled += 1
                entry.token.cancel("all-waiters-abandoned")

    def _depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    # -- dispatch --------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._depth():
                if self.batch_window_s > 0:
                    await asyncio.sleep(self.batch_window_s)
                batch = self._next_batch()
                if batch:
                    try:
                        await self._run_batch(batch)
                    except Exception as exc:
                        # Dispatcher crash (injected or real): fail the
                        # batch's waiters with a structured error and
                        # keep dispatching — the service restarts its
                        # dispatcher instead of hanging every later
                        # request.
                        self._dispatcher_restarts += 1
                        self._robustness.degrade(
                            "service", "dispatcher", "restart", "crash",
                            repr(exc),
                        )
                        for req in batch:
                            self._inflight.pop(req.key, None)
                            self._failed += 1
                            if not req.future.done():
                                req.future.set_exception(RequestFailed(
                                    f"dispatcher crashed mid-batch: {exc}"
                                ))
            if self._draining and not self._depth():
                return

    def _next_batch(self) -> list[ColorRequest]:
        """Up to ``batch_max`` requests, urgent classes first."""
        batch: list[ColorRequest] = []
        for priority in PRIORITIES:
            queue = self._queues[priority]
            while queue and len(batch) < self.batch_max:
                batch.append(queue.pop(0))
            if len(batch) >= self.batch_max:
                break
        return batch

    async def _run_batch(self, batch: list[ColorRequest]) -> None:
        started = time.monotonic()
        # Claim the batch number up front: a crashed batch consumes its
        # slot, so a crash keyed batch=N does not re-fire forever.
        batch_id = self._batches
        self._batches += 1
        spec = self._robustness.fire("dispatcher-crash", batch=batch_id)
        if spec is not None:
            raise RuntimeError(
                f"injected dispatcher crash (batch={batch_id})"
            )
        # One engine call per validate flavor (usually exactly one);
        # deadline-carrying requests run as individual engine calls so
        # each enforces its own budget.
        groups: dict[bool, list[ColorRequest]] = {}
        for req in batch:
            groups.setdefault(req.validate, []).append(req)
        fresh_runs = 0
        for validate, group in groups.items():
            plain = [r for r in group if r.deadline_ms is None]
            timed = [r for r in group if r.deadline_ms is not None]
            if plain:
                jobs = [(r.graph, r.method, r.options) for r in plain]
                try:
                    results = await asyncio.to_thread(
                        self._execute, jobs, validate
                    )
                except BaseException as exc:  # engine blew up wholesale
                    for req in plain:
                        self._inflight.pop(req.key, None)
                        self._failed += 1
                        if not req.future.done():
                            req.future.set_exception(
                                RequestFailed(f"batch execution failed: {exc}")
                            )
                    results = None
                if results is not None:
                    for req, result in zip(plain, results):
                        self._inflight.pop(req.key, None)
                        if req.future.done():
                            continue
                        if isinstance(result, JobFailure) or not result:
                            self._failed += 1
                            req.future.set_exception(
                                RequestFailed(str(result), failure=result)
                            )
                            continue
                        if not result.cache_hit:
                            fresh_runs += 1
                        req.future.set_result(result)
            for req in timed:
                fresh_runs += await self._run_timed(req, validate)
        self._engine_runs += fresh_runs
        self._trace(
            "service.batch", "service", requests=len(batch),
            engine_runs=fresh_runs, duration_us=_us_since(started),
        )

    async def _run_timed(self, req: ColorRequest, validate: bool) -> int:
        """One deadline-carrying request: stamp queued time, run, settle.

        Returns the number of fresh engine runs (0 or 1).  A budget
        blown in the queue fails at ``"dispatch"`` without paying for an
        engine call; one blown mid-run surfaces the engine's structured
        :class:`DeadlineExceeded`; a run abandoned by every waiter
        settles :class:`Cancelled` (consumed here — nobody is listening).
        """
        entry = self._inflight.pop(req.key, None)
        queued_ms = (time.monotonic() - req.submitted_at) * 1000.0
        control = RunControl(
            deadline=Deadline(req.deadline_ms, queued_ms=queued_ms),
            token=req.token,
        )
        exc: BaseException | None = None
        result = None
        if control.deadline.expired:
            exc = control.deadline.exceeded("dispatch")
        else:
            try:
                results = await asyncio.to_thread(
                    self._execute, [(req.graph, req.method, req.options)],
                    validate, control,
                )
                result = results[0] if results else None
            except (DeadlineExceeded, Cancelled) as e:
                exc = e
            except BaseException as e:
                exc = RequestFailed(f"batch execution failed: {e}")
        if req.future.done():
            return 0
        if exc is not None:
            if isinstance(exc, DeadlineExceeded):
                self._deadline_hits += 1
            self._failed += 1
            req.future.set_exception(exc)
            if entry is not None and entry.waiters <= 0:
                req.future.exception()  # abandoned: mark retrieved
            return 0
        if isinstance(result, JobFailure) or not result:
            self._failed += 1
            req.future.set_exception(RequestFailed(str(result), failure=result))
            return 0
        req.future.set_result(result)
        return 0 if result.cache_hit else 1

    def _execute(self, jobs, validate: bool, control: RunControl | None = None):
        """The engine batch (worker thread; the only engine entry point)."""
        from ..engine.context import color_many

        cfg = self.config
        return color_many(
            jobs,
            self.method,
            backend=cfg.backend,
            backend_opts=cfg.backend_opts,
            workers=cfg.workers,
            scheduler=cfg.scheduler,
            cache=self._cache,
            store=self._store,
            faults=self._robustness,
            validate=validate,
            deadline_ms=control,
        )

    # -- sessions --------------------------------------------------------
    async def session(
        self,
        graph,
        *,
        method: str | None = None,
        max_drift: int | None = None,
        priority: str = "interactive",
    ):
        """Open a dynamic-graph session seeded by one service coloring.

        The initial coloring goes through the normal admission/coalescing
        path; edits then repair incrementally in a worker thread, and
        (``max_drift=``) compaction recolors route back through the
        service.  See :class:`~repro.service.session.ColoringSession`.
        """
        from ..coloring.dynamic import DynamicColoring
        from .session import ColoringSession

        result = await self.submit(graph, method, priority=priority)
        dyn = await asyncio.to_thread(
            DynamicColoring, graph, result, method=method or self.method
        )
        self._sessions += 1
        self._trace("service.session", "service", vertices=graph.num_vertices)
        return ColoringSession(self, dyn, max_drift=max_drift)

    # -- introspection ---------------------------------------------------
    @property
    def stats(self) -> dict:
        """Counter snapshot (all monotone except the depth gauges)."""
        return {
            "running": self.running,
            "submitted": self._submitted,
            "completed": self._completed,
            "rejected": self._rejected,
            "failed": self._failed,
            "cache_hits": self._cache_hits,
            "coalesced": self._coalesced,
            "engine_runs": self._engine_runs,
            "batches": self._batches,
            "queue_depth": self._depth(),
            "inflight": len(self._inflight),
            "sessions": self._sessions,
            "session_ops": self._session_ops,
            "compactions": self._compactions,
            "deadline_hits": self._deadline_hits,
            "cancelled": self._cancelled,
            "dispatcher_restarts": self._dispatcher_restarts,
            "breaker": self._robustness.breaker.snapshot(),
            "cache": self._cache.stats(),
        }

    @property
    def cache(self):
        """The shared result cache (coalescing + dedup live here)."""
        return self._cache

    @property
    def tracer(self):
        return self.observation

    def _trace(self, name: str, category: str, **counters) -> None:
        # Event-loop thread only: the tracer is not thread-safe.
        if self.observation is not None:
            self.observation.event(name, category, **counters)


def _us_since(started: float) -> float:
    return (time.monotonic() - started) * 1e6
