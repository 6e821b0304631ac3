"""The public entry point: ``color_graph(graph, method=...)``.

Wraps the seven evaluated schemes (plus the background algorithms) behind
one dispatcher so examples, benchmarks and downstream users need a single
import.  Method names match the paper's legend:

========================  ====================================================
``sequential``            Alg. 1, greedy on the simulated Xeon (the baseline)
``3step-gm``              Grosset et al.'s partition + CPU-resolution GPU code
``topo-base``             Alg. 4 on the simulated K20c
``topo-ldg``              Alg. 4 + read-only-cache loads for R/C
``data-base``             Alg. 5 + prefix-sum worklist (atomics reduced)
``data-ldg``              Alg. 5 + prefix sum + __ldg
``csrcolor``              cuSPARSE's multi-hash MIS
``gm``                    Alg. 2 (functional reference, unpriced)
``jp`` / ``jp-lf``        Alg. 3 / PLF variant (functional, unpriced)
``balanced-greedy``       least-used-color greedy (balance extension)
========================  ====================================================
"""

from __future__ import annotations

from typing import Callable

from ..engine.runner import SchemeRecipe
from ..graph.csr import CSRGraph
from ..obs.observe import resolve_observe
from .registry import (
    METHOD_ALIASES,
    SCHEMES,
    resolve_method,
    unknown_method_error,
    validate_options,
)
from .balance import balanced_greedy
from .base import ColoringResult
from .csrcolor import CsrColorRecipe, color_csrcolor
from .datadriven import DataDrivenRecipe, color_data_driven
from .gm import color_gm
from .grosset import ThreeStepGMRecipe, color_three_step_gm
from .jp import color_jp, color_jp_lf
from .sequential import greedy_sequential
from .topo import TopologyRecipe, color_topology_driven

__all__ = [
    "color_graph",
    "make_recipe",
    "METHODS",
    "ENGINE_RECIPES",
    "EVALUATED_SCHEMES",
    "SCHEMES",
]

#: The seven schemes of the paper's evaluation (Section IV), in figure order.
EVALUATED_SCHEMES: tuple[str, ...] = (
    "sequential",
    "3step-gm",
    "topo-base",
    "topo-ldg",
    "data-base",
    "data-ldg",
    "csrcolor",
)

METHODS: dict[str, Callable[..., ColoringResult]] = {
    "sequential": greedy_sequential,
    "3step-gm": color_three_step_gm,
    "topo-base": lambda g, **kw: color_topology_driven(g, use_ldg=False, **kw),
    "topo-ldg": lambda g, **kw: color_topology_driven(g, use_ldg=True, **kw),
    "data-base": lambda g, **kw: color_data_driven(g, use_ldg=False, **kw),
    "data-ldg": lambda g, **kw: color_data_driven(g, use_ldg=True, **kw),
    "csrcolor": color_csrcolor,
    "gm": color_gm,
    "jp": color_jp,
    "jp-gpu": lambda g, **kw: __import__("repro.coloring.jp", fromlist=["color_jp_gpu"]).color_jp_gpu(g, **kw),
    "jp-lf": color_jp_lf,
    "balanced-greedy": balanced_greedy,
    "dsatur": lambda g, **kw: __import__("repro.coloring.dsatur", fromlist=["dsatur"]).dsatur(g, **kw),
    "iterated-greedy": lambda g, **kw: __import__("repro.coloring.iterated", fromlist=["iterated_greedy"]).iterated_greedy(g, **kw),
    # Extensions (not part of the paper's seven evaluated schemes):
    # warp-centric load balancing for skewed graphs (the paper's
    # future-work direction).
    "data-lb": lambda g, **kw: color_data_driven(
        g, use_ldg=False, load_balance=True, **kw
    ),
    "data-ldg-lb": lambda g, **kw: color_data_driven(
        g, use_ldg=True, load_balance=True, **kw
    ),
}

#: Device-backed schemes expressed as engine recipes — the methods an
#: :class:`~repro.engine.context.ExecutionContext` (and its batched
#: ``color_many``) can run with cached uploads and pooled buffers.
ENGINE_RECIPES: dict[str, Callable[..., SchemeRecipe]] = {
    "3step-gm": ThreeStepGMRecipe,
    "topo-base": lambda **kw: TopologyRecipe(use_ldg=False, **kw),
    "topo-ldg": lambda **kw: TopologyRecipe(use_ldg=True, **kw),
    "data-base": lambda **kw: DataDrivenRecipe(use_ldg=False, **kw),
    "data-ldg": lambda **kw: DataDrivenRecipe(use_ldg=True, **kw),
    "data-lb": lambda **kw: DataDrivenRecipe(use_ldg=False, load_balance=True, **kw),
    "data-ldg-lb": lambda **kw: DataDrivenRecipe(use_ldg=True, load_balance=True, **kw),
    "csrcolor": CsrColorRecipe,
}


def make_recipe(
    method: str, *, entry_point: str | None = None, **kwargs
) -> SchemeRecipe:
    """Build the engine recipe for a device-backed method name.

    ``entry_point`` names the calling surface in validation errors
    (``"color_graph"``, ``"ExecutionContext.run"``, the CLI, ...).
    """
    method = METHOD_ALIASES.get(method, method)
    if method not in ENGINE_RECIPES:
        where = f"{entry_point}(): " if entry_point else ""
        raise ValueError(
            f"{where}method {method!r} is not a device scheme recipe; "
            f"choose from {sorted(ENGINE_RECIPES)}"
        )
    validate_options(method, kwargs, entry_point=entry_point)
    return ENGINE_RECIPES[method](**kwargs)


def color_graph(
    graph: CSRGraph,
    method: str = "data-ldg",
    *,
    validate: bool = True,
    backend=None,
    backend_opts=None,
    context=None,
    config=None,
    observe=None,
    cache=None,
    faults=None,
    health=None,
    deadline_ms=None,
    **kwargs,
) -> ColoringResult:
    """Color ``graph`` with the named scheme.

    Parameters
    ----------
    graph:
        A symmetric simple :class:`~repro.graph.csr.CSRGraph` (use the
        builders in :mod:`repro.graph` — they normalize input for you).
    method:
        One of :data:`METHODS`; the paper's best performer (``data-ldg``)
        is the default.
    validate:
        Verify properness/completeness before returning (cheap; disable
        only in tight benchmark loops that verify separately).
    backend:
        Execution substrate for device schemes: ``"gpusim"`` (default),
        ``"cpusim"``, or a backend/device instance; ``"compiled"`` is a
        deprecated alias of ``"gpusim"``.  Both run their hot loops on
        the C kernel tier when a compiler builds it (results identical
        either way).  Host-side methods (``sequential``, ``jp``, ...)
        reject it.
    backend_opts:
        Constructor keywords for a string ``backend=`` spec, e.g.
        ``{"seed": 3}`` or ``{"cache_model": "hit_rate"}``.
    context:
        A shared :class:`~repro.engine.context.ExecutionContext` — reuses
        cached graph uploads and pooled buffers across calls.
    config:
        A :class:`~repro.engine.config.RunConfig` (or mapping of its
        fields) bundling the execution options; fields this entry point
        supports merge with the explicit keywords (setting one both ways
        is an error).
    observe:
        The unified observation surface (:mod:`repro.obs`): ``None``
        (default, zero overhead), ``"trace"`` or a
        :class:`~repro.obs.tracer.Tracer`.  The run's tracer is attached
        to ``result.observation``.
    cache:
        A content-addressed result cache (see :mod:`repro.parallel.cache`):
        ``None`` (default, no caching), ``"memory"``, a directory path, or
        a :class:`~repro.parallel.ResultCache`.  A hit returns the stored
        result without entering the round loop (``result.cache_hit`` is
        True); a miss runs normally and stores the result.
    faults:
        Fault-injection plan (see :mod:`repro.faults`): a
        :class:`~repro.faults.FaultPlan`, a plan spec string
        (``'seed=7; kernel-transient: kernel=topo-color-0'``), or a ready
        :class:`~repro.faults.Robustness` bundle.  Device schemes route
        through an ephemeral engine context so injection sites, guard
        rails and the rerun degradation chain all apply; host schemes run
        with the bundle ambient (degradations recorded, audit via
        ``validate``).  The run's report lands on ``result.robustness``.
    health:
        Guard-rail policy: ``'strict'``, ``'off'``, or a
        :class:`~repro.faults.HealthPolicy` — convergence watchdog,
        per-round invariants, end-of-run audit, degradation budget.
        A cache hit never enters the round loop, so neither layer fires
        on hits.  Not combinable with ``context=`` (configure the context
        instead).
    deadline_ms:
        End-to-end budget for this run (or a ready
        :class:`~repro.resilience.RunControl`).  Device schemes check it
        cooperatively at every round boundary and raise the structured
        :class:`~repro.resilience.DeadlineExceeded`; host schemes check
        once at dispatch.  Not combinable with ``context=`` (pass
        ``deadline_ms`` to the :class:`ExecutionContext` instead).
    **kwargs:
        Scheme-specific options, e.g. ``block_size=256``,
        ``worklist_strategy='atomic'``, ``num_hashes=4``,
        ``ordering='smallest-last'``.  Validated against the scheme
        registry (:data:`~repro.coloring.registry.SCHEMES`): misspelled
        or unknown options raise instead of being silently ignored.

    Returns
    -------
    ColoringResult
        Colors, color count, iteration count and simulated timing.
    """
    method = resolve_method(method, METHODS, entry_point="color_graph")
    if config is not None:
        from ..engine.config import normalize_config

        merged = normalize_config(
            "color_graph",
            config,
            {
                "backend": backend, "backend_opts": backend_opts,
                "cache": cache, "faults": faults,
                "health": health, "observe": observe,
                "deadline_ms": deadline_ms,
            },
        )
        backend, backend_opts = merged["backend"], merged["backend_opts"]
        cache = merged["cache"]
        faults, health = merged["faults"], merged["health"]
        observe = merged["observe"]
        deadline_ms = merged["deadline_ms"]
    if backend_opts and not isinstance(backend, (str, type(None))):
        raise TypeError(
            "backend_opts= configures a string backend= spec; pass a "
            "ready-constructed instance without opts instead"
        )
    validate_options(method, kwargs, entry_point="color_graph")
    if context is not None and observe is not None:
        raise ValueError(
            "pass observe= to the ExecutionContext, not alongside context="
        )
    if context is not None and (faults is not None or health is not None):
        raise ValueError(
            "pass faults=/health= to the ExecutionContext, not alongside "
            "context="
        )
    if context is not None and deadline_ms is not None:
        raise ValueError(
            "pass deadline_ms= to the ExecutionContext, not alongside "
            "context="
        )
    if context is not None and backend_opts:
        raise ValueError(
            "pass backend_opts= to the ExecutionContext, not alongside "
            "context="
        )
    from ..faults import resolve_robustness
    from ..resilience.deadline import resolve_control

    robustness = resolve_robustness(faults, health)
    control = resolve_control(deadline_ms)
    if backend is not None and method not in ENGINE_RECIPES:
        raise ValueError(
            f"method {method!r} runs on the host and takes no backend; "
            f"backends apply to {sorted(ENGINE_RECIPES)}"
        )
    tracer = resolve_observe(observe)

    cache_obj = cache_key = None
    if cache is not None:
        from ..parallel.cache import job_cache_key, resolve_cache

        cache_obj = resolve_cache(cache)
        spec = backend if backend is not None else kwargs.get("device")
        cache_key = job_cache_key(graph, method, kwargs, spec, backend_opts)
        hit = cache_obj.get(cache_key)
        # (`or` would drop an empty tracer: Tracer defines __len__.)
        cache_tracer = tracer if context is None else context.tracer
        if cache_tracer is not None:
            cache_tracer.event(
                f"result-cache:{method}:{getattr(graph, 'name', '?')}",
                "cache", hit=int(hit is not None), miss=int(hit is None),
            )
        if hit is not None:
            if tracer is not None:
                hit.extra.setdefault("observation", tracer)
            if validate:
                hit.validate(graph)
            return hit

    if context is not None:
        result = context.run(graph, method, validate=validate, **kwargs)
    elif (
        tracer is not None or robustness is not None
        or control is not None
    ) and method in ENGINE_RECIPES:
        # Observed, fault-guarded or deadline-bound device runs route
        # through an ephemeral context so the tracer sees uploads,
        # kernels and transfers alike — and so the robustness layer
        # gets the full engine treatment (injection sites, guards,
        # rerun chain) and the deadline its round-boundary checks.
        from ..engine.context import ExecutionContext

        spec = backend if backend is not None else kwargs.pop("device", None)
        ctx = ExecutionContext(
            backend=spec, observe=tracer, faults=robustness,
            deadline_ms=control, **dict(backend_opts or {}),
        )
        result = ctx.run(graph, method, validate=validate, **kwargs)
    else:
        if control is not None:
            # Host schemes have no round loop; the budget is checked
            # once at dispatch (an already-expired deadline still
            # fails structurally instead of running to completion).
            control.check("dispatch")
        if backend_opts:
            from ..engine.backend import resolve_backend

            kwargs["backend"] = resolve_backend(
                backend, **dict(backend_opts)
            )
        elif backend is not None:
            kwargs["backend"] = backend
        if robustness is not None:
            # Host schemes have no round loop to guard, but the
            # ambient bundle still collects kernel degradations, and
            # ``validate`` is the audit.
            from ..faults import runtime as fault_runtime

            with fault_runtime.activate(robustness):
                result = METHODS[method](graph, **kwargs)
        else:
            result = METHODS[method](graph, **kwargs)
        if tracer is not None:
            _trace_host_run(tracer, graph, result)
            result.extra.setdefault("observation", tracer)
        if validate:
            result.validate(graph)
        if robustness is not None:
            result.extra["robustness"] = robustness.report()
    if cache_obj is not None:
        cache_obj.put(cache_key, result)
    return result


def _trace_host_run(tracer, graph, result: ColoringResult) -> None:
    """Synthesize a run span for a host-side scheme from its priced result.

    Host methods never touch a backend, so no kernel/transfer events flow
    into the tracer; the result's simulated totals still deserve a place
    on the timeline so mixed traces (e.g. ``compare``) stay complete.
    """
    span = tracer.begin(
        f"{result.scheme}:{getattr(graph, 'name', '?')}",
        "run",
        scheme=result.scheme,
        graph=getattr(graph, "name", "?"),
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        backend="host",
    )
    if result.total_time_us:
        tracer.event(
            "host-compute", "cpu", duration_us=result.total_time_us,
        )
    tracer.end(
        span,
        iterations=result.iterations,
        colors=result.num_colors,
        cpu_time_us=result.cpu_time_us,
    )
