"""The C kernel tier: byte-identity, fallback, RunConfig, cache keys.

Every ``gpusim``/``cpusim`` run uses the C tier when a compiler builds
it, and the pure-NumPy paths otherwise.  The tier's contract is
*wall-clock only*: colors, iteration counts, and every simulated timing
figure must be byte-identical to the NumPy reference.  These tests hold
it to that, keep the ``backend="compiled"`` alias working, and cover the
unified ``config=`` surface.
"""

import dataclasses
import shutil
import sys
import time
import warnings

import numpy as np
import pytest

from repro import (
    ExecutionContext,
    ResultCache,
    RunConfig,
    color_graph,
    color_many,
    color_sharded,
    compiledsim,
    from_edges,
    rmat_er,
)
from repro.compiledsim import runtime
from repro.engine.backend import (
    BACKEND_ALIASES,
    GpuSimBackend,
    resolve_backend,
)
from repro.engine.config import normalize_config
from repro.parallel import color_streamed
from repro.parallel.cache import backend_fingerprint, job_cache_key

TIMING_FIELDS = (
    "iterations", "num_colors", "gpu_time_us", "cpu_time_us",
    "transfer_time_us", "num_kernel_launches",
)


@pytest.fixture(scope="module")
def medium():
    return rmat_er(scale=11, seed=7)


@pytest.fixture(scope="module")
def small():
    return rmat_er(scale=8, seed=3)


def _assert_identical(ref, res):
    assert np.array_equal(ref.colors, res.colors)
    for field in TIMING_FIELDS:
        assert getattr(ref, field) == getattr(res, field), field
    assert ref.total_time_us == res.total_time_us


# ----------------------------------------------------------------------
# byte-identity: the default (C-tier) run vs the NumPy reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "method",
    ["data-ldg", "data-base", "topo-ldg", "topo-base", "csrcolor",
     "3step-gm", "data-lb", "data-ldg-lb"],
)
def test_compiled_matches_gpusim_exactly(medium, method):
    with runtime._forced_numpy_tier():
        ref = color_graph(medium, method)
    res = color_graph(medium, method, backend="compiled")
    _assert_identical(ref, res)


@pytest.mark.parametrize("method", ["data-ldg", "topo-ldg"])
def test_compiled_on_degenerate_graphs(method):
    cases = [
        from_edges([], [], num_vertices=0, name="empty"),
        from_edges([], [], num_vertices=1, name="isolated"),
        from_edges([0] * 6, list(range(1, 7)), name="star"),
        from_edges(*np.triu_indices(9, k=1), name="k9"),
        from_edges([0, 1, 2], [1, 2, 0], num_vertices=64, name="sparse"),
    ]
    for graph in cases:
        with runtime._forced_numpy_tier():
            ref = color_graph(graph, method)
        res = color_graph(graph, method)
        _assert_identical(ref, res)
        assert res.colors.dtype == ref.colors.dtype


def test_compiled_backend_instance_and_registry(medium):
    # "compiled" is an alias: it resolves to the gpusim backend.
    assert BACKEND_ALIASES["compiled"] == "gpusim"
    backend = resolve_backend("compiled")
    assert type(backend) is GpuSimBackend
    assert backend.name == "gpusim"
    res = color_graph(medium, "data-ldg", backend=backend)
    _assert_identical(color_graph(medium, "data-ldg"), res)
    with pytest.raises(ValueError, match="'compiled'"):
        resolve_backend("compiler")


def test_compiled_sharded_and_streamed_match(medium):
    with runtime._forced_numpy_tier():
        ref = color_sharded(medium, "data-ldg", num_shards=3)
        ref_s = color_streamed(medium, "data-ldg", num_windows=3)
    res = color_sharded(medium, "data-ldg", num_shards=3, backend="compiled")
    assert np.array_equal(ref.colors, res.colors)
    assert ref.iterations == res.iterations
    assert ref.total_time_us == res.total_time_us

    res_s = color_streamed(medium, "data-ldg", num_windows=3)
    assert np.array_equal(ref_s.colors, res_s.colors)


def test_compiled_color_many_parallel_matches(small):
    # Compare against the gpusim *parallel* run: serial batches share one
    # context (warm device-cache state prices the second graph slightly
    # differently), so like-for-like is workers=2 vs workers=2.
    graphs = [small, rmat_er(scale=8, seed=5)]
    with runtime._forced_numpy_tier():  # forked workers inherit the forced tier
        reference = color_many(graphs, "data-ldg", workers=2)
    compiled = color_many(graphs, "data-ldg", backend="compiled", workers=2)
    for ref, res in zip(reference, compiled):
        assert np.array_equal(ref.colors, res.colors)
        assert ref.total_time_us == res.total_time_us


# ----------------------------------------------------------------------
# tier resolution and the NumPy fallback
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def medium_ref(medium):
    with runtime._forced_numpy_tier():
        return color_graph(medium, "data-ldg")


@pytest.fixture
def no_compiler(monkeypatch):
    """Resolve the tier as on a machine where the C build fails."""
    runtime._reset_for_tests()
    monkeypatch.setattr(runtime, "_try_cc", lambda: None)
    yield
    runtime._reset_for_tests()


def test_fallback_warns_once_with_identical_results(medium, medium_ref,
                                                    no_compiler):
    with pytest.warns(RuntimeWarning, match="falling back to the pure-NumPy"):
        res = color_graph(medium, "data-ldg")
    _assert_identical(medium_ref, res)
    # One-time: a second run under the same fallback stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res2 = color_graph(medium, "data-ldg", backend="compiled")
    _assert_identical(medium_ref, res2)


def test_tier_resolves_lazily_not_at_import(no_compiler):
    # Importing and constructing backends builds nothing; the first hook
    # call resolves the tier.
    resolve_backend("gpusim")
    assert runtime.current_tier() is None
    with pytest.warns(RuntimeWarning, match="could not be built"):
        assert not compiledsim.active()
    assert runtime.current_tier() == "numpy"


def test_disabled_tiers_resolve_to_numpy(no_compiler):
    with pytest.warns(RuntimeWarning):
        tier = compiledsim.warmup()
    assert tier == "numpy"
    assert runtime.current_tier() == "numpy"
    assert runtime.kernels() is None


def test_failed_build_falls_back_to_numpy(monkeypatch):
    # Any build or load failure (here an unwritable cache directory)
    # degrades to the NumPy tier instead of failing every run.
    from repro.compiledsim import cc

    def unwritable():
        raise PermissionError("read-only cache directory")

    runtime._reset_for_tests()
    monkeypatch.setattr(cc, "load_kernels", unwritable)
    try:
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert compiledsim.warmup() == "numpy"
    finally:
        runtime._reset_for_tests()


def test_unknown_jit_tier_rejected(small):
    # No option picks the tier: jit= is an unknown keyword everywhere.
    with pytest.raises(TypeError, match="jit"):
        resolve_backend("compiled", jit="cc")
    with pytest.raises(TypeError, match="jit"):
        color_graph(small, "data-ldg", backend="compiled",
                    backend_opts={"jit": "cc"})


def test_warmup_resolves_and_reports_a_real_tier():
    tier = compiledsim.warmup()
    assert tier in ("cc", "numpy")
    assert runtime.current_tier() == tier


@pytest.mark.skipif(
    not any(shutil.which(c) for c in ("cc", "gcc", "clang")),
    reason="no C compiler on PATH",
)
def test_c_compiler_on_path_engages_cc_tier():
    assert compiledsim.warmup() == "cc"


@pytest.mark.filterwarnings("ignore:the simulator's C kernels")
def test_fork_while_resolving_does_not_deadlock_the_child(monkeypatch):
    # A fork taken while another thread holds the resolve lock (for a
    # whole cold build) must leave the child able to resolve on its own.
    import os
    import signal

    monkeypatch.setattr(runtime, "_resolved", None)
    with runtime._RESOLVE_LOCK:
        pid = os.fork()
        if pid == 0:  # child: resolve, report through the exit code
            try:
                os._exit(0 if runtime.warmup() in ("cc", "numpy") else 1)
            except BaseException:
                os._exit(2)
    deadline = time.monotonic() + 120
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung resolving the kernel tier")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.filterwarnings("ignore:the simulator's C kernels")
def test_pool_creation_resolves_the_tier_before_forking():
    # Forked workers then inherit the table instead of each building or
    # loading it (on a cold cache, each would run its own compile).
    from repro.parallel.scheduler import ProcessPoolScheduler

    runtime._reset_for_tests()
    pool = ProcessPoolScheduler(workers=1)._new_pool(None, {})
    try:
        assert runtime.current_tier() in ("cc", "numpy")
    finally:
        pool.shutdown()


@pytest.mark.filterwarnings("ignore:the simulator's C kernels")
def test_concurrent_runs_see_one_tier(small, monkeypatch):
    # Threads racing to resolve the tier build the kernel table once and
    # all run on it.
    from concurrent.futures import ThreadPoolExecutor

    runtime._reset_for_tests()
    builds = []
    real_try_cc = runtime._try_cc

    def slow_try_cc():
        builds.append(1)
        time.sleep(0.05)  # widen the race window
        return real_try_cc()

    monkeypatch.setattr(runtime, "_try_cc", slow_try_cc)

    def run():
        color_graph(small, "data-ldg")
        return runtime.current_tier(), runtime.kernels()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            seen = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    kernels = runtime.get_kernels()[1]
    assert all(tier == runtime.current_tier() and table is kernels
               for tier, table in seen)


def test_dispatch_declines_on_numpy_tier(numpy_tier):
    # On the NumPy tier every dispatch hook returns None, so each call
    # site runs its vectorized path.
    from repro.compiledsim import dispatch

    seg = np.zeros(4, dtype=np.int64)
    cols = np.ones(4, dtype=np.int32)
    assert not dispatch.active()
    assert dispatch.mex_sorted(seg, cols, 1) is None
    assert dispatch.pack_mask(np.ones(4, dtype=bool)) is None


def test_fresh_mex_stamp_cannot_fake_forbidden_colors(monkeypatch, cc_tier):
    # The mex stamp array is never cleared: a color counts as forbidden
    # when its stamp equals the segment's generation.  Memory recycled
    # from earlier arrays can hold such values, so a fresh arena's stamp
    # must start below every live generation.
    from repro.coloring.kernels import _mex_sort
    from repro.compiledsim import dispatch

    real_empty = np.empty

    def recycled_empty(shape, dtype=float, **kwargs):
        arr = real_empty(shape, dtype=dtype, **kwargs)
        arr.fill(2)  # the first generation a fresh arena stamps
        return arr

    seg = np.array([0, 0, 1], dtype=np.int64)
    cols = np.array([1, 3, 2], dtype=np.int32)
    dispatch._reset_for_tests()  # no idle arena: the call allocates one
    monkeypatch.setattr(np, "empty", recycled_empty)
    got = dispatch.mex_sorted(seg, cols, 2)
    monkeypatch.undo()
    dispatch._reset_for_tests()
    assert np.array_equal(got, _mex_sort(seg, cols, 2))


def test_concurrent_compiled_runs_match_gpusim(medium, monkeypatch):
    # Device.commit_pair prices on a helper thread only for long launch
    # pairs on multi-core hosts; force that branch so three concurrent
    # default-backend runs keep up to six hook calls in flight at once.
    from concurrent.futures import ThreadPoolExecutor

    from repro.gpusim import device

    monkeypatch.setattr(device, "_MULTICORE", True)
    monkeypatch.setattr(device, "OVERLAP_MIN_TRANSACTIONS", 0)
    with runtime._forced_numpy_tier():
        ref = color_graph(medium, "topo-ldg")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(color_graph, medium, "topo-ldg")
                for _ in range(3)
            ]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for res in results:
        _assert_identical(ref, res)


def test_retained_scratch_is_bounded(cc_tier):
    # Idle arenas keep only small buffers between calls: a paper-scale
    # mesh run leaves ~1-2 MB per arena, not n-row radix buffers (it was
    # ~25 MB per arena when every buffer was kept at its peak size).
    from repro.compiledsim import dispatch
    from repro.graph.generators.suite import load_graph

    graph = load_graph("thermal2", scale_div=16)
    dispatch._reset_for_tests()
    color_graph(graph, "data-ldg")
    arenas = dispatch._ARENAS
    assert arenas
    sizes = [buf.nbytes for a in arenas for buf, _ in a.buffers.values()]
    assert max(sizes) <= dispatch.RETAIN_BYTES
    assert sum(sizes) <= len(arenas) * 3 * 2**20
    dispatch._reset_for_tests()


# ----------------------------------------------------------------------
# RunConfig: the unified typed execution-option surface
# ----------------------------------------------------------------------

def test_runconfig_is_frozen_and_replace_derives():
    cfg = RunConfig(backend="compiled", workers=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.backend = "gpusim"
    derived = cfg.replace(workers=None, observe="trace")
    assert derived.backend == "compiled"
    assert derived.workers is None and derived.observe == "trace"
    assert cfg.workers == 2  # original untouched


def test_runconfig_replace_rejects_unknown_fields():
    with pytest.raises(TypeError, match="backend_opt"):
        RunConfig().replace(backend_opt={})


def test_runconfig_as_kwargs_drops_defaults():
    assert RunConfig().as_kwargs() == {}
    assert RunConfig(backend="compiled").as_kwargs() == {
        "backend": "compiled"
    }


def test_runconfig_from_mapping_did_you_mean():
    cfg = RunConfig.from_mapping({"backend": "gpusim", "workers": 4})
    assert cfg.backend == "gpusim" and cfg.workers == 4
    with pytest.raises(TypeError, match="did you mean 'backend'"):
        RunConfig.from_mapping({"backned": "gpusim"})


def test_config_equals_legacy_kwargs(medium):
    legacy = color_graph(medium, "data-ldg", backend="compiled")
    via_config = color_graph(
        medium, "data-ldg", config=RunConfig(backend="compiled")
    )
    via_mapping = color_graph(
        medium, "data-ldg", config={"backend": "compiled"}
    )
    _assert_identical(legacy, via_config)
    _assert_identical(legacy, via_mapping)


def test_config_conflict_with_kwarg_raises(medium):
    with pytest.raises(TypeError, match=r"got 'backend' both ways"):
        color_graph(
            medium, "data-ldg",
            backend="gpusim", config=RunConfig(backend="compiled"),
        )


def test_config_unsupported_field_names_entry_point(medium):
    # color_streamed has no cache= — the error names the entry point,
    # the field, and the escape hatch.
    cfg = RunConfig(backend="compiled", cache=ResultCache())
    with pytest.raises(TypeError, match=r"color_streamed\(\) does not take"):
        color_streamed(medium, "data-ldg", num_windows=2, config=cfg)
    with pytest.raises(TypeError, match=r"config\.replace\(cache=None\)"):
        color_streamed(medium, "data-ldg", num_windows=2, config=cfg)


def test_config_accepted_by_context_and_batch_apis(medium):
    ref = color_graph(medium, "data-ldg")
    ctx = ExecutionContext(config=RunConfig(backend="compiled"))
    _assert_identical(ref, ctx.run(medium, "data-ldg"))

    [batch] = color_many([medium], "data-ldg", config=RunConfig())
    _assert_identical(ref, batch)

    sharded = color_sharded(
        medium, "data-ldg", num_shards=2,
        config=RunConfig(backend="compiled"),
    )
    sharded_ref = color_sharded(medium, "data-ldg", num_shards=2)
    assert np.array_equal(sharded.colors, sharded_ref.colors)


def test_normalize_config_passthrough_without_config():
    explicit = {"backend": "gpusim", "workers": None}
    assert normalize_config("f", None, explicit) == explicit


# ----------------------------------------------------------------------
# cache keys: config spelling and backend must not fork entries
# ----------------------------------------------------------------------

def test_compiled_shares_cache_fingerprint_with_gpusim():
    assert backend_fingerprint("compiled") == backend_fingerprint("gpusim")
    assert backend_fingerprint(resolve_backend("compiled")) == \
        backend_fingerprint(resolve_backend("gpusim"))
    assert backend_fingerprint("cpusim") != backend_fingerprint("gpusim")


def test_job_cache_key_invariant_across_spellings(small):
    base = job_cache_key(small, "data-ldg", {}, None)
    assert job_cache_key(small, "data-ldg", {}, "gpusim") == base
    assert job_cache_key(small, "data-ldg", {}, "compiled") == base
    assert job_cache_key(small, "data-ldg", {}, "cpusim") != base


def test_compiled_run_hits_gpusim_cache_entry(small):
    cache = ResultCache()
    first = color_graph(small, "data-ldg", cache=cache)
    assert cache.misses == 1
    hit = color_graph(small, "data-ldg", cache=cache, backend="compiled")
    assert cache.hits == 1
    assert np.array_equal(first.colors, hit.colors)
    via_config = color_graph(
        small, "data-ldg", config=RunConfig(backend="compiled", cache=cache)
    )
    assert cache.hits == 2
    assert np.array_equal(first.colors, via_config.colors)


# ----------------------------------------------------------------------
# registry aliases and entry-point-tagged errors
# ----------------------------------------------------------------------

def test_method_aliases_resolve_everywhere(small):
    ref = color_graph(small, "data-ldg")
    assert np.array_equal(
        ref.colors, color_graph(small, "data_ldg").colors
    )
    assert np.array_equal(
        ref.colors, color_many([small], "data_ldg")[0].colors
    )


@pytest.mark.parametrize(
    ("call", "prefix"),
    [
        (lambda g: color_graph(g, "data-lgd"), "color_graph"),
        (lambda g: color_many([g], "data-lgd"), "color_many"),
        (lambda g: color_streamed(g, "data-lgd", num_windows=2),
         "color_streamed"),
    ],
)
def test_unknown_method_errors_name_their_entry_point(small, call, prefix):
    with pytest.raises(ValueError, match=rf"{prefix}\(\): unknown method"):
        call(small)
    with pytest.raises(ValueError, match=r"did you mean 'data-ldg'"):
        call(small)


def test_backend_opts_thread_through_color_graph(medium):
    res = color_graph(
        medium, "data-ldg", backend="compiled",
        backend_opts={"cache_model": "reuse_distance"},
    )
    _assert_identical(color_graph(medium, "data-ldg"), res)
    with pytest.raises(TypeError, match="backend_opts"):
        color_graph(
            medium, "data-ldg",
            backend=resolve_backend("gpusim"), backend_opts={"seed": 1},
        )
