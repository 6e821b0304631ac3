"""backend='compiled': byte-identity, tier fallback, RunConfig, cache keys.

The compiled backend's contract is *wall-clock only*: colors, iteration
counts, and every simulated timing figure must be byte-identical to the
``gpusim`` reference whether the C kernels or the NumPy fallback end up
executing the loop bodies.  These tests hold it to
that, and cover the unified ``config=`` surface the backend ships with.
"""

import dataclasses
import os
import shutil
import sys
import time
import warnings
from contextlib import contextmanager

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
from repro.engine.backend import BACKENDS, CompiledSimBackend, resolve_backend
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
# byte-identity vs the gpusim reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "method",
    ["data-ldg", "data-base", "topo-ldg", "topo-base", "csrcolor",
     "3step-gm", "data-lb", "data-ldg-lb"],
)
def test_compiled_matches_gpusim_exactly(medium, method):
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
        ref = color_graph(graph, method)
        res = color_graph(graph, method, backend="compiled")
        _assert_identical(ref, res)
        assert res.colors.dtype == ref.colors.dtype


def test_compiled_backend_instance_and_registry(medium):
    assert "compiled" in BACKENDS
    backend = resolve_backend("compiled")
    assert isinstance(backend, CompiledSimBackend)
    assert backend.name == "compiled"
    assert backend.tier in ("cc", "numpy")
    res = color_graph(medium, "data-ldg", backend=backend)
    _assert_identical(color_graph(medium, "data-ldg"), res)


def test_compiled_sharded_and_streamed_match(medium):
    ref = color_sharded(medium, "data-ldg", num_shards=3)
    res = color_sharded(medium, "data-ldg", num_shards=3, backend="compiled")
    assert np.array_equal(ref.colors, res.colors)
    assert ref.iterations == res.iterations

    ref_s = color_streamed(medium, "data-ldg", num_windows=3)
    res_s = color_streamed(
        medium, "data-ldg", num_windows=3, backend="compiled"
    )
    assert np.array_equal(ref_s.colors, res_s.colors)


def test_compiled_color_many_parallel_matches(small):
    # Compare against the gpusim *parallel* run: serial batches share one
    # context (warm device-cache state prices the second graph slightly
    # differently), so like-for-like is workers=2 vs workers=2.
    graphs = [small, rmat_er(scale=8, seed=5)]
    reference = color_many(graphs, "data-ldg", workers=2)
    compiled = color_many(graphs, "data-ldg", backend="compiled", workers=2)
    for ref, res in zip(reference, compiled):
        assert np.array_equal(ref.colors, res.colors)
        assert ref.total_time_us == res.total_time_us


# ----------------------------------------------------------------------
# tier resolution and the NumPy fallback
# ----------------------------------------------------------------------

@pytest.fixture
def no_compiler(monkeypatch):
    """Resolve the tier as on a machine where the C build fails."""
    runtime._reset_for_tests()
    monkeypatch.setattr(runtime, "_try_cc", lambda: None)
    yield
    runtime._reset_for_tests()


def test_fallback_warns_once_with_identical_results(medium, no_compiler):
    ref = color_graph(medium, "data-ldg")
    with pytest.warns(RuntimeWarning, match="falling back to the pure-NumPy"):
        res = color_graph(medium, "data-ldg", backend="compiled")
    _assert_identical(ref, res)
    # One-time: a second run under the same fallback stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res2 = color_graph(medium, "data-ldg", backend="compiled")
    _assert_identical(ref, res2)


def test_disabled_tiers_resolve_to_numpy(no_compiler):
    with pytest.warns(RuntimeWarning):
        tier = compiledsim.warmup()
    assert tier == "numpy"
    assert runtime.current_tier() == "numpy"
    assert CompiledSimBackend().tier == "numpy"


def test_unknown_jit_tier_rejected(small):
    # No option picks the tier: jit= is an unknown keyword everywhere.
    with pytest.raises(TypeError, match="jit"):
        CompiledSimBackend(jit="cc")
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


@pytest.mark.filterwarnings("ignore:backend='compiled'")
def test_concurrent_runs_see_one_tier(small, monkeypatch):
    # Threads racing to resolve the tier build the kernel table once and
    # all run on it, so every backend reports the same tier.
    from concurrent.futures import ThreadPoolExecutor

    from repro.compiledsim import dispatch

    runtime._reset_for_tests()
    builds = []
    real_try_cc = runtime._try_cc

    def slow_try_cc():
        builds.append(1)
        time.sleep(0.05)  # widen the race window
        return real_try_cc()

    monkeypatch.setattr(runtime, "_try_cc", slow_try_cc)
    seen = []
    real_scope = dispatch.scope

    @contextmanager
    def spying_scope():
        with real_scope():
            seen.append(dispatch._K)
            yield

    monkeypatch.setattr(dispatch, "scope", spying_scope)

    def run():
        backend = CompiledSimBackend()
        color_graph(small, "data-ldg", backend=backend)
        return backend.tier

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            tiers = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    assert set(tiers) == {runtime.current_tier()}
    kernels = runtime.get_kernels()[1]
    assert len(seen) == 4 and all(k is kernels for k in seen)


def test_dispatch_declines_outside_scope():
    # Outside an active run scope every dispatch hook returns None, so
    # plain NumPy callers never accidentally route through the JIT.
    from repro.compiledsim import dispatch

    seg = np.zeros(4, dtype=np.int64)
    cols = np.ones(4, dtype=np.int32)
    assert not dispatch.active()
    assert dispatch.mex_sorted(seg, cols, 1) is None


def test_fresh_mex_stamp_cannot_fake_forbidden_colors(monkeypatch):
    # The mex stamp array is never cleared: a color counts as forbidden
    # when its stamp equals the segment's generation.  Memory recycled
    # from earlier arrays can hold such values, so a fresh arena's stamp
    # must start below every live generation.
    from repro.coloring.kernels import _mex_sort
    from repro.compiledsim import dispatch

    if runtime.get_kernels()[1] is None:
        pytest.skip("no C tier on this host")
    real_empty = np.empty

    def recycled_empty(shape, dtype=float, **kwargs):
        arr = real_empty(shape, dtype=dtype, **kwargs)
        arr.fill(2)  # the first generation a fresh arena stamps
        return arr

    seg = np.array([0, 0, 1], dtype=np.int64)
    cols = np.array([1, 3, 2], dtype=np.int32)
    dispatch._reset_for_tests()  # no idle arena: the call allocates one
    monkeypatch.setattr(np, "empty", recycled_empty)
    with dispatch.scope():
        got = dispatch.mex_sorted(seg, cols, 2)
    monkeypatch.undo()
    dispatch._reset_for_tests()
    assert np.array_equal(got, _mex_sort(seg, cols, 2))


def test_concurrent_compiled_runs_match_gpusim(medium, monkeypatch):
    # Device.commit_pair prices on a helper thread only on multi-core
    # hosts; force that branch so three concurrent compiled runs keep up
    # to six hook calls in flight at once on a two-core host.
    from concurrent.futures import ThreadPoolExecutor

    from repro.compiledsim import dispatch

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ref = color_graph(medium, "topo-ldg")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(color_graph, medium, "topo-ldg", backend="compiled")
                for _ in range(3)
            ]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for res in results:
        _assert_identical(ref, res)
    # The last scope out deactivates the shared kernel table.
    assert not dispatch.active()


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
    assert backend_fingerprint(CompiledSimBackend()) == \
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
