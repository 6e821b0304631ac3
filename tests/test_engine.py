"""The execution engine: backends, contexts, batching, convergence cap."""

import numpy as np
import pytest

from repro.coloring.api import ENGINE_RECIPES, color_graph, make_recipe
from repro.engine import (
    Backend,
    ConvergenceError,
    CpuSimBackend,
    ExecutionContext,
    GpuSimBackend,
    RoundStatus,
    SchemeRecipe,
    color_many,
    resolve_backend,
    run_scheme,
)
from repro.gpusim.device import Device
from repro.obs import round_rows


# ------------------------------------------------------------- backends
def test_resolve_backend_specs():
    assert isinstance(resolve_backend(None), GpuSimBackend)
    assert isinstance(resolve_backend("cpusim"), CpuSimBackend)
    dev = Device()
    be = resolve_backend(dev)
    assert isinstance(be, GpuSimBackend) and be.device is dev
    inst = CpuSimBackend()
    assert resolve_backend(inst) is inst
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("tpusim")
    with pytest.raises(TypeError):
        resolve_backend(42)


def test_backends_satisfy_protocol():
    assert isinstance(GpuSimBackend(), Backend)
    assert isinstance(CpuSimBackend(), Backend)


def test_cpusim_backend_runs_every_recipe(small_er):
    for method in ("topo-base", "data-ldg", "3step-gm", "csrcolor"):
        result = color_graph(small_er, method, backend="cpusim")
        assert result.extra["backend"] == "cpusim"
        assert result.gpu_time_us == 0.0
        assert result.transfer_time_us == 0.0  # unified memory
        assert result.cpu_time_us > 0.0
        assert result.num_kernel_launches > 0


def test_cpusim_races_at_core_granularity(small_mesh):
    # Mesh in natural order: the race window (cores vs 32-wide warp)
    # changes which neighbors collide, so the runs are independent but
    # both must converge to proper colorings.
    gpu = color_graph(small_mesh, "topo-base")
    cpu = color_graph(small_mesh, "topo-base", backend="cpusim")
    assert gpu.num_colors >= 2 and cpu.num_colors >= 2


def test_backend_rejected_for_host_methods(p10):
    with pytest.raises(ValueError, match="takes no backend"):
        color_graph(p10, "sequential", backend="cpusim")


# ------------------------------------------------------------- contexts
def test_context_uploads_each_graph_once(small_er, small_mesh):
    ctx = ExecutionContext()
    for method in ("topo-base", "data-ldg", "csrcolor"):
        ctx.color_many([small_er, small_mesh, small_er], method)
    htod = [t for t in ctx.backend.device.timeline.transfers() if t.direction == "htod"]
    assert len(htod) == 2  # one R/C burst per distinct graph, ever
    assert ctx.uploads == 2
    assert ctx.upload_reuses == 3 * 3 - 2
    # the burst covers exactly the CSR payload
    sizes = sorted(t.nbytes for t in htod)
    for g, nbytes in zip(sorted([small_er, small_mesh], key=lambda g: g.num_edges), sizes):
        assert nbytes == (g.num_vertices + 1) * 4 + g.num_edges * 4


def test_color_many_table1_suite_uploads_once_per_graph():
    from repro.graph.generators.suite import SUITE_ORDER, load_graph

    graphs = [load_graph(name, scale_div=256) for name in SUITE_ORDER]
    ctx = ExecutionContext()
    for method in ("topo-ldg", "data-ldg"):
        results = ctx.color_many(graphs, method)
        assert len(results) == len(graphs)
        assert all(r.num_colors > 0 for r in results)
    htod = [t for t in ctx.backend.device.timeline.transfers() if t.direction == "htod"]
    assert len(htod) == len(graphs)  # each Table I graph crosses PCIe once, ever
    assert ctx.uploads == len(graphs)
    assert ctx.upload_reuses == 2 * len(graphs) - len(graphs)
    for g, t in zip(graphs, htod):
        assert t.nbytes == (g.num_vertices + 1) * 4 + g.num_edges * 4


def test_context_runs_match_single_shot(small_er):
    ctx = ExecutionContext()
    for method in sorted(ENGINE_RECIPES):
        fresh = color_graph(small_er, method)
        shared = ctx.run(small_er, method)
        assert np.array_equal(fresh.colors, shared.colors)
        assert fresh.iterations == shared.iterations
        assert fresh.num_kernel_launches == shared.num_kernel_launches


def test_context_pools_worklist_buffers(small_er):
    ctx = ExecutionContext()
    ctx.run(small_er, "data-base")
    misses = ctx.backend.device.pool_misses
    ctx.run(small_er, "data-base")
    assert ctx.backend.device.pool_hits >= 4  # both queues + both tails reused
    assert ctx.backend.device.pool_misses == misses


def test_context_evict_forces_reupload(small_er):
    ctx = ExecutionContext()
    ctx.run(small_er, "topo-base")
    ctx.evict(small_er)
    ctx.run(small_er, "topo-base")
    assert ctx.uploads == 2 and ctx.upload_reuses == 0


def test_context_rejects_host_methods(p10):
    with pytest.raises(ValueError, match="not a device scheme"):
        ExecutionContext().run(p10, "sequential")


def test_color_graph_routes_through_context(small_er):
    ctx = ExecutionContext()
    r1 = color_graph(small_er, "data-ldg", context=ctx)
    r2 = color_graph(small_er, "data-ldg", context=ctx)
    assert ctx.uploads == 1 and ctx.upload_reuses == 1
    assert np.array_equal(r1.colors, r2.colors)


def test_color_many_module_function(small_er, small_bipartite):
    results = color_many([small_er, small_bipartite], "data-ldg")
    assert len(results) == 2
    assert results[1].num_colors == 2  # bipartite oracle
    for r in results:
        assert r.scheme == "data-ldg"


def test_make_recipe_registry():
    for method in ENGINE_RECIPES:
        assert isinstance(make_recipe(method), SchemeRecipe)
    with pytest.raises(ValueError, match="not a device scheme"):
        make_recipe("jp")


# ------------------------------------------------------- convergence cap
def test_convergence_error_carries_diagnostics(small_mesh):
    ctx = ExecutionContext(max_iterations=1)
    with pytest.raises(ConvergenceError) as exc:
        ctx.run(small_mesh, "topo-base")
    err = exc.value
    assert err.scheme == "topo-base"
    assert err.iterations == 1
    assert 0 < err.uncolored <= small_mesh.num_vertices
    assert "failed to converge after 1 rounds" in str(err)
    assert isinstance(err, RuntimeError)  # legacy except-clauses keep working


def test_convergence_error_releases_worklists(small_mesh):
    ctx = ExecutionContext(max_iterations=1)
    with pytest.raises(ConvergenceError):
        ctx.run(small_mesh, "data-base")
    misses = ctx.backend.device.pool_misses
    ctx2_hits = ctx.backend.device.pool_hits
    with pytest.raises(ConvergenceError):
        ctx.run(small_mesh, "data-base")
    # cleanup ran despite the raise: the second run recycles the queues
    assert ctx.backend.device.pool_hits > ctx2_hits
    assert ctx.backend.device.pool_misses == misses


# ------------------------------------------------------- round recording
def test_round_spans_carry_round_trace(small_er):
    ctx = ExecutionContext(observe="trace")
    result = ctx.run(small_er, "topo-base")
    [run] = ctx.tracer.runs()
    assert run.counters["graph"] == small_er.name
    rounds = round_rows(run)
    assert len(rounds) == result.iterations
    assert [r["iteration"] for r in rounds] == list(range(result.iterations))
    assert rounds[0]["active"] == small_er.num_vertices
    assert rounds[-1]["active"] == 0  # the terminating empty round
    assert all(r["time_us"] >= 0.0 for r in rounds)


# ------------------------------------------------------- custom recipes
def test_run_scheme_accepts_custom_recipe(c6):
    class ConstantRecipe(SchemeRecipe):
        scheme = "constant"

        def setup(self, ex, graph, bufs):
            self.bufs = bufs
            self.done = False

        def has_work(self):
            return not self.done

        def round(self, iteration):
            self.done = True
            self.bufs.colors.data[:] = np.arange(1, len(self.bufs.colors.data) + 1)
            return RoundStatus(active=len(self.bufs.colors.data))

        def finalize(self):
            from repro.engine import SchemeOutcome

            return SchemeOutcome(colors=self.bufs.colors.data.copy())

    result = run_scheme(c6, ConstantRecipe())
    assert result.scheme == "constant"
    assert result.iterations == 1
    assert result.extra["backend"] == "gpusim"
    assert result.num_colors == 6
