"""Command-line interface: ``repro-color`` / ``python -m repro``.

Subcommands::

    repro-color color    --graph rmat-er --method data-ldg
    repro-color compare  --graph thermal2
    repro-color suite                       # Table I
    repro-color generate --graph rmat-g --out g.npz
    repro-color sweep    --graph rmat-er --method data-base

``--graph`` accepts a suite name (Table I), a ``.npz`` cache, a ``.mtx``
MatrixMarket file, or an edge-list path — so the real SuiteSparse inputs
drop in directly when available.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coloring.api import ENGINE_RECIPES, EVALUATED_SCHEMES, METHODS, color_graph
from .graph.csr import CSRGraph
from .graph.generators.suite import SUITE, load_graph
from .graph.stats import compute_stats
from .metrics.table import format_table
from .obs import flame_summary, round_rows, write_chrome_trace, write_jsonl

__all__ = ["main", "resolve_graph"]

#: Suffixes parsed as whitespace-separated edge lists.
_EDGELIST_SUFFIXES = (".el", ".txt", ".edges", ".edgelist", ".tsv")

BACKEND_CHOICES = ("gpusim", "cpusim", "compiled")
BACKEND_HELP = (
    "execution substrate for device schemes (default: gpusim); every run "
    "uses the C kernel tier when a compiler builds it, and 'compiled' is "
    "a deprecated alias of gpusim"
)


def _parse_faults(text):
    """Validate a ``--faults`` plan up front: bad grammar is a usage
    error, not a traceback from the middle of a run."""
    from .faults import resolve_faults

    try:
        return resolve_faults(text)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"bad --faults plan: {exc}")


def _guard_errors():
    """Exceptions a strict health policy raises on purpose."""
    from .distributed import DistributedColoringError
    from .engine.errors import AuditError, ConvergenceError, InvariantViolation
    from .faults import FaultInjected
    from .parallel import ShardedColoringError
    from .resilience import Cancelled, CheckpointError, DeadlineExceeded

    return (
        AuditError, ConvergenceError, InvariantViolation, FaultInjected,
        ShardedColoringError, DistributedColoringError,
        DeadlineExceeded, Cancelled, CheckpointError,
    )


def resolve_graph(spec: str, *, scale_div: int | None = None) -> CSRGraph:
    """Turn a ``--graph`` argument into a :class:`CSRGraph`."""
    if spec in SUITE:
        return load_graph(spec, scale_div=scale_div)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"unknown graph {spec!r}: not a suite name ({', '.join(SUITE)}) "
            f"and no such file"
        )
    if path.suffix == ".npz":
        from .graph.io.binary import load_npz

        return load_npz(path)
    if path.suffix == ".csrbin":
        from .graph.io.stream import read_csr_bin

        # mmap'd and unvalidated on purpose: these containers exist so
        # out-of-core graphs can be colored without ever loading O(m)
        # into private memory (pair with --stream-mb).
        return read_csr_bin(path, mmap=True, validate=False)
    if path.suffix in (".mtx", ".gz"):
        from .graph.io.matrix_market import read_matrix_market

        return read_matrix_market(path)
    if path.suffix in _EDGELIST_SUFFIXES:
        from .graph.io.edgelist import read_edgelist

        return read_edgelist(path)
    raise SystemExit(
        f"cannot read {spec!r}: unrecognized extension {path.suffix!r}. "
        f"Supported formats: .npz (save_npz cache), .csrbin (mmap "
        f"container), .mtx/.gz (MatrixMarket), "
        f"edge list ({', '.join(_EDGELIST_SUFFIXES)})"
    )


def _cmd_color(args) -> int:
    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    kwargs = {}
    if args.method not in ("sequential", "gm", "jp", "jp-lf", "balanced-greedy"):
        kwargs["block_size"] = args.block_size  # CPU schemes take no launch config
    if args.backend != "gpusim":
        if args.method not in ENGINE_RECIPES:
            raise SystemExit(
                f"--backend applies to device schemes only "
                f"({', '.join(sorted(ENGINE_RECIPES))}), not {args.method!r}"
            )
        kwargs["backend"] = args.backend
    if args.observe:
        kwargs["observe"] = args.observe
    elif args.trace_out:
        kwargs["observe"] = "trace"
    if args.faults:
        kwargs["faults"] = _parse_faults(args.faults)
    if args.health:
        kwargs["health"] = args.health
    if args.deadline_ms is not None:
        kwargs["deadline_ms"] = args.deadline_ms
    streaming = args.stream or args.stream_mb is not None
    if not args.devices:
        for flag, value in (
            ("--topology", args.topology),
            ("--transport", args.transport),
            ("--lockstep", args.lockstep),
        ):
            if value:
                raise SystemExit(f"{flag} needs --devices")
    if args.devices:
        if args.shards or streaming:
            raise SystemExit("--devices does not combine with --shards/--stream")
        if args.cache:
            raise SystemExit("--cache does not combine with --devices")
        from .distributed import color_distributed

        try:
            result = color_distributed(
                graph,
                args.method,
                devices=args.devices,
                topology=args.topology or "pcie",
                transport=args.transport,
                speculate=not args.lockstep,
                workers=args.workers,
                backend=kwargs.pop("backend", None),
                observe=kwargs.pop("observe", None),
                faults=kwargs.pop("faults", None),
                health=kwargs.pop("health", None),
                store=args.store,
                **kwargs,
            )
        except _guard_errors() as exc:
            print(f"FAILED ({type(exc).__name__}): {exc}")
            return 1
        stats = result.shard_stats
        print(result.summary())
        if stats.get("degraded"):
            print(
                f"devices: {stats['num_shards']} failed "
                f"(devices {stats['failed_devices']}), degraded to one "
                f"single-device {stats['degraded']} run"
            )
        else:
            print(
                f"devices: {stats['devices']} @ {stats['topology']} "
                f"({stats['transport']}, "
                f"{'speculative' if stats['speculate'] else 'lockstep'}): "
                f"{stats['resolution_rounds']} resolution rounds, "
                f"{stats['sync_rounds']} pair syncs, "
                f"{stats['halo_bytes_modeled']} halo B modeled, "
                f"{stats['speculation_hits']} speculation hits"
            )
    elif args.shards or streaming:
        if args.cache:
            raise SystemExit("--cache does not combine with --shards/--stream")
        if args.store and streaming:
            raise SystemExit(
                "--store applies to worker shipping; streaming runs "
                "in-process (use a .csrbin graph for out-of-core input)"
            )
        from .parallel import color_sharded

        try:
            result = color_sharded(
                graph,
                args.method,
                num_shards=args.shards or 4,
                workers=args.workers,
                backend=kwargs.pop("backend", None),
                observe=kwargs.pop("observe", None),
                faults=kwargs.pop("faults", None),
                health=kwargs.pop("health", None),
                store=args.store,
                stream=args.stream,
                memory_budget_mb=args.stream_mb,
                **kwargs,
            )
        except _guard_errors() as exc:
            print(f"FAILED ({type(exc).__name__}): {exc}")
            return 1
        stats = result.shard_stats
        print(result.summary())
        if stats.get("degraded"):
            print(
                f"shards: {stats['num_shards']} failed "
                f"(shards {stats['failed_shards']}), degraded to one "
                f"{stats['degraded']} run"
            )
        elif stats.get("mode") == "stream":
            print(
                f"windows: {stats['num_shards']} (peak window "
                f"{stats['peak_window_bytes']} B), "
                f"{stats['resolution_rounds']} resolution rounds, "
                f"{stats['recolored']} recolored"
            )
        else:
            print(
                f"shards: {stats['num_shards']}, "
                f"boundary {stats['boundary_vertices']} vertices, "
                f"{stats['resolution_rounds']} resolution rounds, "
                f"{stats['recolored']} recolored"
            )
    else:
        if args.store:
            raise SystemExit(
                "--store needs worker processes: combine with --shards "
                "or --devices (or use the batch subcommand)"
            )
        if args.cache:
            kwargs["cache"] = args.cache
        try:
            result = color_graph(graph, method=args.method, **kwargs)
        except _guard_errors() as exc:
            print(f"FAILED ({type(exc).__name__}): {exc}")
            return 1
        print(result.summary())
        if result.cache_hit:
            print("(served from result cache)")
    report = result.robustness
    if report is not None:
        fired = report.get("fired", [])
        degradations = report.get("degradations", [])
        print(
            f"robustness: {len(fired)} fault(s) fired, "
            f"{len(degradations)} degradation chain(s) engaged"
        )
        for d in degradations:
            print(
                f"  degraded {d['chain']}: {d['from']} -> {d['to']} "
                f"({d['reason']}, x{d['count']})"
            )
    if args.faults_report:
        import json

        path = Path(args.faults_report)
        path.write_text(
            json.dumps(report or {}, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote robustness report -> {path}")
    tracer = result.observation
    if tracer is not None:
        _print_trace(tracer)
        if args.trace_out:
            path = write_chrome_trace(tracer, args.trace_out)
            print(f"\nwrote Chrome trace -> {path} (open in chrome://tracing)")
    return 0


def _print_trace(tracer, by_graph: bool = False) -> None:
    """Print a trace's flame summary and its per-round table.

    ``by_graph`` splits the table by run, with a graph column: a batch
    trace holds one run per graph, each counting rounds from 0.
    """
    print()
    print(flame_summary(tracer))
    headers = ["round", "active", "conflicts", "us"]
    runs = tracer.runs() if by_graph else [tracer]
    rows = [
        ([run.counters.get("graph", "?")] if by_graph else [])
        + [r["iteration"], r["active"], r["conflicts"], round(r["time_us"], 1)]
        for run in runs for r in round_rows(run)
    ]
    if rows:
        print()
        print(format_table(["graph", *headers] if by_graph else headers, rows,
                           title="per-round trace:"))


def _cmd_trace(args) -> int:
    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    kwargs = {"block_size": args.block_size} if args.method in ENGINE_RECIPES else {}
    if args.backend != "gpusim":
        kwargs["backend"] = args.backend
    result = color_graph(graph, method=args.method, observe="trace", **kwargs)
    tracer = result.observation
    print(result.summary() + "\n")
    print(flame_summary(tracer, top=args.top))
    out = args.out or f"{graph.name}-{args.method}-trace.json"
    path = write_chrome_trace(tracer, out)
    print(f"\nwrote Chrome trace -> {path} (open in chrome://tracing or Perfetto)")
    if args.jsonl:
        path = write_jsonl(tracer, args.jsonl)
        print(f"wrote JSONL event log -> {path}")
    return 0


def _cmd_batch(args) -> int:
    import hashlib

    from .engine import ExecutionContext, color_many

    resolved: dict[str, CSRGraph] = {}  # repeat specs share one object/upload
    for spec in args.graphs:
        if spec not in resolved:
            resolved[spec] = resolve_graph(spec, scale_div=args.scale_div)
    graphs = [resolved[spec] for spec in args.graphs]
    observe = args.observe or ("trace" if args.trace_out else None)
    parallel = (
        bool(args.workers)
        or args.cache is not None
        or args.store is not None
        or observe is not None
        or args.faults is not None
        or args.health is not None
        or args.deadline_ms is not None
    )

    if args.topology and not args.devices:
        raise SystemExit("--topology needs --devices")

    cache_obj = None
    ctx = None
    failures = []
    if args.devices:
        if args.cache:
            raise SystemExit("--cache does not combine with --devices")
        from .distributed import color_distributed

        results = []
        sync_rounds = halo_bytes = 0
        for g in graphs:
            try:
                r = color_distributed(
                    g,
                    args.method,
                    devices=args.devices,
                    topology=args.topology or "pcie",
                    workers=args.workers,
                    backend=args.backend,
                    store=args.store,
                    observe=observe,
                    faults=_parse_faults(args.faults) if args.faults else None,
                    health=args.health,
                    deadline_ms=args.deadline_ms,
                    block_size=args.block_size,
                )
            except _guard_errors() as exc:
                print(f"FAILED ({type(exc).__name__}): {exc}", file=sys.stderr)
                return 1
            results.append(r)
            sync_rounds += r.shard_stats["sync_rounds"]
            halo_bytes += r.shard_stats["halo_bytes_modeled"]
        title = (
            f"batch: distributed({args.method})x{args.devices}"
            f"@{args.topology or 'pcie'} on {len(graphs)} graphs "
            f"({sync_rounds} pair syncs, {halo_bytes} halo B modeled)"
        )
    elif parallel:
        from .parallel import resolve_cache

        cache_obj = resolve_cache(args.cache)
        try:
            results = color_many(
                graphs,
                method=args.method,
                block_size=args.block_size,
                backend=args.backend,
                workers=args.workers,
                cache=cache_obj,
                store=args.store,
                observe=observe,
                faults=_parse_faults(args.faults) if args.faults else None,
                health=args.health,
                deadline_ms=args.deadline_ms,
            )
        except _guard_errors() as exc:
            print(f"FAILED ({type(exc).__name__}): {exc}", file=sys.stderr)
            return 1
        failures = [r for r in results if not r]
        title = (
            f"batch: {args.method} on {len(graphs)} graphs "
            f"(workers={args.workers or 1}, {args.backend})"
        )
    else:
        ctx = ExecutionContext(backend=args.backend)
        results = ctx.color_many(
            graphs, method=args.method, block_size=args.block_size
        )
        title = (
            f"batch: {args.method} on {len(graphs)} graphs ({ctx.backend.name})"
        )

    # --digest swaps the (scheduler-dependent) sim_us column for a colors
    # digest, so serial and parallel outputs compare byte-for-byte.
    rows = []
    for g, r in zip(graphs, results):
        if not r:
            rows.append([g.name, "FAILED", r.attempts, r.error[:40]])
        elif args.digest:
            rows.append([
                g.name, r.num_colors, r.iterations,
                hashlib.sha256(r.colors.tobytes()).hexdigest()[:16],
            ])
        else:
            rows.append([
                g.name, r.num_colors, r.iterations, round(r.total_time_us, 1),
            ])
    headers = (
        ["graph", "colors", "iters", "sha16"]
        if args.digest
        else ["graph", "colors", "iters", "sim_us"]
    )
    print(format_table(headers, rows, title=title))

    if ctx is not None:
        pool = getattr(ctx.backend, "device", None)
        print(
            f"uploads: {ctx.uploads} (reused {ctx.upload_reuses})"
            + (
                f"; buffer pool: {pool.pool_hits} hits / {pool.pool_misses} misses"
                if pool is not None
                else ""
            )
        )
    if cache_obj is not None:
        stats = cache_obj.stats()
        print(
            f"result cache: {stats['hits']} hits / {stats['misses']} misses "
            f"({stats['entries']} entries)"
        )
    for f in failures:
        print(
            f"FAILED job {f.index} ({f.method} on {f.graph}) after "
            f"{f.attempts} attempts: {f.error}",
            file=sys.stderr,
        )
    tracers = list({
        id(r.observation): r.observation
        for r in results if r and r.observation is not None
    }.values())
    for tracer in tracers:
        _print_trace(tracer, by_graph=True)
    if args.trace_out and tracers:
        path = write_chrome_trace(tracers[0], args.trace_out)
        print(f"wrote Chrome trace -> {path} (open in chrome://tracing)")
    return 1 if failures else 0


def _cmd_compare(args) -> int:
    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    rows = []
    baseline = None
    for scheme in EVALUATED_SCHEMES:
        result = color_graph(graph, method=scheme)
        if scheme == "sequential":
            baseline = result.total_time_us
        rows.append(
            [
                scheme,
                result.num_colors,
                result.iterations,
                round(result.total_time_us, 1),
                round(baseline / result.total_time_us, 2) if baseline else 1.0,
            ]
        )
    print(
        format_table(
            ["scheme", "colors", "iters", "sim_us", "speedup"],
            rows,
            title=f"{graph.name}: n={graph.num_vertices} m={graph.num_edges}",
        )
    )
    return 0


def _cmd_suite(args) -> int:
    rows = []
    for name, entry in SUITE.items():
        g = load_graph(name, scale_div=args.scale_div)
        s = compute_stats(g)
        p = entry.paper
        rows.append(
            [
                name,
                s.num_vertices,
                s.num_edges,
                s.min_degree,
                s.max_degree,
                round(s.avg_degree, 2),
                round(s.variance, 2),
                f"{p.avg_degree:.2f}/{p.variance:.2f}",
            ]
        )
    print(
        format_table(
            ["graph", "n", "m", "min", "max", "avg", "var", "paper avg/var"],
            rows,
            title="Table I (generated stand-ins vs paper degree stats)",
        )
    )
    return 0


def _cmd_generate(args) -> int:
    from .graph.io.binary import save_npz

    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    save_npz(graph, args.out)
    print(f"wrote {graph} -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    rows = []
    for bs in (32, 64, 128, 256, 512):
        result = color_graph(graph, method=args.method, block_size=bs)
        rows.append([bs, round(result.total_time_us, 1), result.num_colors])
    print(
        format_table(
            ["block_size", "sim_us", "colors"],
            rows,
            title=f"Fig. 8 sweep: {args.method} on {graph.name}",
        )
    )
    return 0


def _cmd_verify(args) -> int:
    from .coloring.base import ColoringError, load_result

    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    result = load_result(args.colors)
    try:
        result.validate(graph)
    except ColoringError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(
        f"OK: {result.scheme} coloring of {graph.name} is proper and complete "
        f"({result.num_colors} colors)"
    )
    return 0


def _cmd_profile(args) -> int:
    from .gpusim.device import Device
    from .gpusim.profiler import profile_report, timeline_report

    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    if args.method in ("sequential", "gm", "jp", "jp-lf", "balanced-greedy",
                       "iterated-greedy", "dsatur"):
        print(f"{args.method} launches no simulated kernels (CPU scheme)")
        return 0
    device = Device()
    result = color_graph(graph, method=args.method, device=device)
    print(result.summary() + "\n")
    print(profile_report(result.profiles, top=args.top))
    print()
    print(timeline_report(device))
    return 0


def _cmd_serve(args) -> int:
    """Drive the async coloring service with a concurrent request storm.

    Submits ``--requests`` concurrent requests for the same graph (the
    duplicate-heavy shape the coalescer exists for), optionally runs a
    dynamic session of random edits, and prints the admission /
    coalescing / batching counters.  ``--check`` turns the run into a
    smoke gate: nonzero exit unless the storm coalesced onto exactly one
    engine computation, every returned coloring is byte-identical to a
    direct ``color_graph`` run, a deliberately expired-deadline probe
    came back as a structured ``DeadlineExceeded`` (not a success, not a
    bare error), the circuit breaker closed out healthy, and the service
    shut down cleanly.
    """
    import asyncio

    import numpy as np

    from .engine.config import RunConfig
    from .resilience import DeadlineExceeded
    from .service import ColoringService, ServiceClient

    graph = resolve_graph(args.graph, scale_div=args.scale_div)
    config = RunConfig(
        workers=args.workers,
        store=args.store,
        cache=args.cache,
        observe="trace" if args.trace_out else None,
    )
    service = ColoringService(
        args.method,
        config=config,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
    )

    async def drive():
        async with service:
            client = ServiceClient(service)
            results = await client.color_many(
                [graph] * args.requests, priority="normal"
            )
            # Deadline probe: a request admitted with an already-spent
            # budget must fail *structurally* — the structured error (and
            # a breaker still closed afterwards) is what --check gates on.
            deadline_probe = None
            try:
                await service.submit(graph, deadline_ms=0.0)
            except DeadlineExceeded as exc:
                deadline_probe = exc.to_dict()
            except Exception as exc:  # wrong shape: recorded, fails --check
                deadline_probe = {"error": type(exc).__name__,
                                  "detail": str(exc)}
            session_report = None
            if args.session_edits:
                rng = np.random.default_rng(7)
                n = graph.num_vertices
                sess = await service.session(graph, max_drift=args.max_drift)
                for _ in range(args.session_edits):
                    u, v = (int(x) for x in rng.integers(0, n, size=2))
                    if u == v:
                        continue
                    g_now = sess._dyn
                    if g_now.has_edge(u, v):
                        await sess.delete(u, v)
                    else:
                        await sess.insert(u, v)
                final = await sess.close()
                g_now.validate()
                session_report = final.extra.peek("dynamic")
            return results, session_report, deadline_probe

    results, session_report, deadline_probe = asyncio.run(drive())
    stats = service.stats
    direct = color_graph(graph, args.method, validate=False)
    identical = all(
        r is not None and np.array_equal(r.colors, direct.colors)
        for r in results
    )

    rows = [
        ("requests", stats["submitted"]),
        ("completed", stats["completed"]),
        ("coalesced", stats["coalesced"]),
        ("cache hits", stats["cache_hits"]),
        ("engine runs", stats["engine_runs"]),
        ("batches", stats["batches"]),
        ("rejected", stats["rejected"]),
        ("failed", stats["failed"]),
        ("deadline hits", stats["deadline_hits"]),
        ("cancelled", stats["cancelled"]),
        ("dispatcher restarts", stats["dispatcher_restarts"]),
        ("breaker", f"{stats['breaker']['state']} "
                    f"(trips {stats['breaker']['trips']}, "
                    f"rejections {stats['breaker']['rejections']})"),
        ("deadline probe", (deadline_probe or {}).get("error", "MISSING")),
        ("digest-identical", "yes" if identical else "NO"),
    ]
    if session_report is not None:
        rows += [
            ("session version", session_report["version"]),
            ("session colors", session_report["num_colors"]),
            ("session repaired", session_report["repaired"]),
            ("session improved", session_report["improved"]),
            ("compactions", stats["compactions"]),
        ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    if args.trace_out and service.observation is not None:
        write_chrome_trace(service.observation, args.trace_out)
        print(f"trace written to {args.trace_out}")

    if args.check:
        problems = []
        if stats["coalesced"] <= 0:
            problems.append("no requests coalesced")
        if stats["engine_runs"] != 1:
            problems.append(f"expected 1 engine run, saw {stats['engine_runs']}")
        if not identical:
            problems.append("service colors differ from direct color_graph")
        if stats["failed"] or stats["rejected"]:
            problems.append("requests failed or were rejected")
        if stats["queue_depth"] or stats["inflight"]:
            problems.append("service did not drain cleanly")
        if (deadline_probe or {}).get("error") != "DeadlineExceeded":
            problems.append(
                f"expired-deadline probe did not raise DeadlineExceeded "
                f"(got {deadline_probe!r})"
            )
        elif deadline_probe.get("where") != "admission":
            problems.append(
                f"deadline probe failed at {deadline_probe.get('where')!r}, "
                f"expected 'admission'"
            )
        if stats["deadline_hits"] < 1:
            problems.append("service did not count the deadline hit")
        if stats["breaker"]["state"] != "closed":
            problems.append(
                f"circuit breaker is {stats['breaker']['state']!r} after a "
                f"healthy storm (expected 'closed')"
            )
        if problems:
            print("CHECK FAILED: " + "; ".join(problems))
            return 1
        print("CHECK OK")
    return 0


def _method_arg(value: str) -> str:
    """Canonicalize a --method argument through the registry aliases.

    The same resolver backs color_graph/color_sharded, so the CLI accepts
    and rejects exactly the spellings the API does, with the same
    did-you-mean message.
    """
    from .coloring.registry import resolve_method

    try:
        return resolve_method(value, METHODS, entry_point="repro-color")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _topology_arg(value: str) -> str:
    """Validate a --topology preset with the API's own error message."""
    from .distributed.topology import TOPOLOGIES, unknown_topology_error

    if value not in TOPOLOGIES:
        raise argparse.ArgumentTypeError(
            str(unknown_topology_error(value, entry_point="repro-color"))
        )
    return value


def _engine_method_arg(value: str) -> str:
    from .coloring.registry import resolve_method

    try:
        return resolve_method(value, ENGINE_RECIPES, entry_point="repro-color")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-color",
        description="Speculative-greedy GPU graph coloring (IPPS'16 reproduction)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale-div",
        type=int,
        default=None,
        help="downscale divisor for suite graphs (default: REPRO_SCALE_DIV or 16)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", parents=[common], help="color one graph with one scheme")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", default="data-ldg", type=_method_arg, metavar="METHOD")
    p.add_argument("--block-size", type=int, default=128)
    p.add_argument(
        "--backend", default="gpusim", choices=BACKEND_CHOICES,
        help=BACKEND_HELP,
    )
    p.add_argument(
        "--observe", default=None, choices=("trace",),
        help="attach a span trace; prints its flame summary and per-round table",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON here (implies --observe trace)",
    )
    p.add_argument(
        "--cache", default=None, metavar="DIR|memory",
        help="content-addressed result cache: 'memory' or a directory path",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition-sharded coloring: split into N shards, color "
        "concurrently, resolve boundary conflicts",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --shards (default: serial)",
    )
    p.add_argument(
        "--store", default=None, metavar="KIND",
        help="graph arena for worker processes: 'heap' (pickle, default), "
        "'shm' (shared-memory segments), or 'mmap'/'mmap:<dir>' "
        "(on-disk containers); combine with --shards --workers",
    )
    p.add_argument(
        "--devices", type=int, default=None, metavar="N",
        help="multi-device distributed coloring: one contiguous shard "
        "per simulated device, boundary repair via per-round halo "
        "exchange priced on the interconnect (colors byte-identical "
        "to --shards N)",
    )
    p.add_argument(
        "--topology", type=_topology_arg, default=None, metavar="KIND",
        help="interconnect model for --devices: 'pcie' (default, shared "
        "bus), 'nvlink' (all-to-all peers), or 'ring' (hop-routed)",
    )
    p.add_argument(
        "--transport", default=None, choices=("local", "pool"),
        help="how device shards execute with --devices: in-process "
        "contexts ('local', default) or worker processes ('pool'; "
        "implied by --workers)",
    )
    p.add_argument(
        "--lockstep", action="store_true",
        help="disable speculative boundary coloring: full halo exchange "
        "at every round's global barrier (same colors, more traffic)",
    )
    p.add_argument(
        "--stream", action="store_true",
        help="color --shards windows sequentially with bounded peak "
        "memory (byte-identical colors to the non-streamed run)",
    )
    p.add_argument(
        "--stream-mb", type=float, default=None, metavar="MB",
        help="stream with a peak-memory budget: window count sized so "
        "one window's working set fits MB (implies --stream)",
    )
    p.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="deterministic fault-injection plan, e.g. 'seed=7; "
        "kernel-transient: kernel=topo-color-0' (see docs/ROBUSTNESS.md)",
    )
    p.add_argument(
        "--health", default=None, choices=("default", "strict", "off"),
        help="guard-rail policy: convergence watchdog, round invariants, "
        "end-of-run audit ('strict' disables degradation chains)",
    )
    p.add_argument(
        "--faults-report", default=None, metavar="PATH",
        help="write the run's robustness report (fired faults, "
        "degradation events) as JSON",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="end-to-end budget: checked cooperatively at round/window/"
        "sync boundaries; overruns exit 1 with a structured "
        "DeadlineExceeded instead of running on",
    )
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser(
        "trace", parents=[common],
        help="span-trace one run and export a Chrome trace (chrome://tracing)",
    )
    p.add_argument("graph", help="suite name or graph file")
    p.add_argument("method", nargs="?", default="data-ldg", type=_method_arg, metavar="METHOD")
    p.add_argument("--out", default=None, help="Chrome trace path "
                   "(default: <graph>-<method>-trace.json)")
    p.add_argument("--jsonl", default=None, help="also write a flat JSONL event log")
    p.add_argument("--block-size", type=int, default=128)
    p.add_argument("--backend", default="gpusim", choices=BACKEND_CHOICES,
                   help=BACKEND_HELP)
    p.add_argument("--top", type=int, default=None,
                   help="show only the N hottest rows in the flame summary")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "batch", parents=[common],
        help="color several graphs through one execution context "
        "(uploads cached, buffers pooled)",
    )
    p.add_argument("--graphs", required=True, nargs="+")
    p.add_argument("--method", default="data-ldg", type=_engine_method_arg, metavar="METHOD")
    p.add_argument("--block-size", type=int, default=128)
    p.add_argument("--backend", default="gpusim", choices=BACKEND_CHOICES,
                   help=BACKEND_HELP)
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the batch across N worker processes "
        "(colors byte-identical to serial; timings may differ)",
    )
    p.add_argument(
        "--cache", default=None, metavar="DIR|memory",
        help="content-addressed result cache: 'memory' or a directory path",
    )
    p.add_argument(
        "--store", default=None, metavar="KIND",
        help="graph arena for worker processes: 'heap' (pickle, default), "
        "'shm', or 'mmap'/'mmap:<dir>' — workers attach zero-copy "
        "instead of unpickling private graph copies",
    )
    p.add_argument(
        "--devices", type=int, default=None, metavar="N",
        help="run each graph as a multi-device distributed coloring "
        "(colors byte-identical to --shards N on the color subcommand)",
    )
    p.add_argument(
        "--topology", type=_topology_arg, default=None, metavar="KIND",
        help="interconnect model for --devices: 'pcie' (default), "
        "'nvlink', or 'ring'",
    )
    p.add_argument(
        "--observe", default=None, choices=("trace",),
        help="attach one span trace to the whole batch",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the merged batch Chrome trace here (implies --observe trace)",
    )
    p.add_argument(
        "--digest", action="store_true",
        help="print a colors digest instead of sim_us (scheduler-independent "
        "output, for byte-identity checks)",
    )
    p.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="deterministic fault-injection plan applied to every job "
        "(see docs/ROBUSTNESS.md)",
    )
    p.add_argument(
        "--health", default=None, choices=("default", "strict", "off"),
        help="guard-rail policy for every job ('strict' disables "
        "degradation chains)",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="end-to-end budget per job (remaining budget ships into "
        "worker processes); overruns exit 1 with a structured "
        "DeadlineExceeded",
    )
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("compare", parents=[common], help="run all evaluated schemes on one graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("suite", parents=[common], help="print Table I for the generated suite")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("generate", parents=[common], help="generate a suite graph and save .npz")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("sweep", parents=[common], help="block-size sweep (Fig. 8)")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", default="data-base", type=_method_arg, metavar="METHOD")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "verify", parents=[common],
        help="check a saved coloring (.npz from save_result) against a graph",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", required=True, help=".npz written by save_result")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "profile", parents=[common],
        help="nvprof-style per-kernel profile of one scheme (Fig. 3 data)",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--method", default="data-ldg", type=_method_arg, metavar="METHOD")
    p.add_argument("--top", type=int, default=None, help="show only the N slowest kernels")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "serve", parents=[common],
        help="drive the async coloring service: concurrent duplicate "
        "requests, coalescing/admission counters, optional session edits",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--method", default="data-ldg", type=_method_arg, metavar="METHOD")
    p.add_argument(
        "--requests", type=int, default=50, metavar="N",
        help="concurrent duplicate requests to storm the service with",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="engine worker-pool size for batches (default serial)",
    )
    p.add_argument(
        "--store", default=None, choices=("heap", "shm", "mmap"),
        help="graph arena workers attach to (service-owned, closed on exit)",
    )
    p.add_argument(
        "--cache", default=None, metavar="DIR|memory",
        help="shared result cache (default: fresh in-memory LRU)",
    )
    p.add_argument("--max-queue", type=int, default=64, metavar="N")
    p.add_argument("--batch-max", type=int, default=8, metavar="N")
    p.add_argument(
        "--session-edits", type=int, default=0, metavar="N",
        help="also run a dynamic session applying N random edits",
    )
    p.add_argument(
        "--max-drift", type=int, default=None, metavar="K",
        help="session compaction threshold (colors above baseline)",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the service-level Chrome trace here",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless coalescing collapsed the storm to one "
        "engine run with byte-identical colors, an expired-deadline "
        "probe failed structurally (DeadlineExceeded at admission, "
        "breaker still closed), and the service shut down cleanly",
    )
    p.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
