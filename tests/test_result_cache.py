"""Content-addressed result cache: keying, LRU, disk store, hit semantics.

The defining property: a cache *hit* skips the round loop entirely —
verified by the absence of a ``run`` span in an attached trace — while
``cache=None`` stays byte-identical to an uncached run.
"""

import numpy as np
import pytest

from repro import color_graph, color_many, rmat_er
from repro.parallel import ResultCache, job_cache_key, resolve_cache


@pytest.fixture(scope="module")
def g():
    return rmat_er(scale=8, seed=11)


@pytest.fixture(scope="module")
def g2():
    return rmat_er(scale=8, seed=12)


# ---------------------------------------------------------------------------
# Keying.
# ---------------------------------------------------------------------------
def test_key_is_content_addressed(g, g2):
    base = job_cache_key(g, "data-ldg", {})
    assert base == job_cache_key(g, "data-ldg", {})
    assert base != job_cache_key(g2, "data-ldg", {})
    assert base != job_cache_key(g, "topo-ldg", {})
    # Same topology under a different name shares the key.
    twin = type(g)(g.row_offsets.copy(), g.col_indices.copy(), name="twin")
    assert job_cache_key(twin, "data-ldg", {}) == base


def test_key_resolves_options_against_registry_defaults(g):
    base = job_cache_key(g, "data-ldg", {})
    # Spelling a default explicitly does not fork the key...
    assert job_cache_key(g, "data-ldg", {"block_size": 128}) == base
    # ...but changing it does.
    assert job_cache_key(g, "data-ldg", {"block_size": 256}) != base


def test_key_ignores_engine_keywords_but_not_backend(g):
    base = job_cache_key(g, "data-ldg", {})
    assert job_cache_key(g, "data-ldg", {"observe": "trace", "workers": 4}) == base
    assert job_cache_key(g, "data-ldg", {}, "gpusim") == base  # None == default
    assert job_cache_key(g, "data-ldg", {}, "cpusim") != base
    assert job_cache_key(g, "data-ldg", {}, "gpusim", {"seed": 3}) != base


# ---------------------------------------------------------------------------
# Hit semantics.
# ---------------------------------------------------------------------------
def test_hit_skips_round_loop_entirely(g):
    cache = ResultCache()
    miss = color_graph(g, "data-ldg", cache=cache, observe="trace")
    assert not miss.cache_hit
    assert miss.observation.runs()  # the miss executed a run span

    hit = color_graph(g, "data-ldg", cache=cache, observe="trace")
    assert hit.cache_hit
    tracer = hit.observation
    assert tracer.runs() == []  # no run span: the round loop never ran
    [event] = tracer.spans("cache")
    assert event.counters == {"hit": 1, "miss": 0}
    assert np.array_equal(hit.colors, miss.colors)
    assert hit.iterations == miss.iterations
    assert cache.stats()["hits"] == 1


def test_cache_none_stays_byte_identical(g):
    plain = color_graph(g, "data-ldg")
    uncached = color_graph(g, "data-ldg", cache=None)
    assert np.array_equal(plain.colors, uncached.colors)
    assert plain.iterations == uncached.iterations


def test_hit_returns_isolated_copy(g):
    cache = ResultCache()
    color_graph(g, "data-ldg", cache=cache)
    first = color_graph(g, "data-ldg", cache=cache)
    first.colors[:] = -1  # corrupting the returned copy...
    second = color_graph(g, "data-ldg", cache=cache)
    assert second.colors.min() >= 1  # ...does not poison the cache


def test_cache_in_color_many_coordinator(g, g2):
    cache = ResultCache()
    first = color_many([g, g2], "data-ldg", cache=cache)
    again = color_many([g, g2], "data-ldg", cache=cache, workers=2)
    assert cache.stats()["hits"] == 2  # hits resolved without touching a worker
    for a, b in zip(first, again):
        assert b.cache_hit
        assert np.array_equal(a.colors, b.colors)


# ---------------------------------------------------------------------------
# LRU + disk store.
# ---------------------------------------------------------------------------
def test_lru_eviction():
    cache = ResultCache(max_entries=2)
    results = {}
    for seed in (1, 2, 3):
        graph = rmat_er(scale=6, seed=seed)
        key = job_cache_key(graph, "data-ldg", {})
        results[key] = color_graph(graph, "data-ldg", cache=cache)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    oldest = job_cache_key(rmat_er(scale=6, seed=1), "data-ldg", {})
    assert cache.get(oldest) is None


def test_disk_store_survives_processes(tmp_path, g):
    first = ResultCache(directory=tmp_path)
    stored = color_graph(g, "data-ldg", cache=first)
    assert list(tmp_path.glob("*.npz"))

    fresh = ResultCache(directory=tmp_path)  # simulates a new process
    hit = color_graph(g, "data-ldg", cache=fresh)
    assert hit.cache_hit
    assert np.array_equal(hit.colors, stored.colors)
    assert hit.iterations == stored.iterations
    assert hit.scheme == stored.scheme


def test_corrupt_disk_entry_is_a_miss(tmp_path, g):
    cache = ResultCache(directory=tmp_path)
    color_graph(g, "data-ldg", cache=cache)
    for path in tmp_path.glob("*.npz"):
        path.write_bytes(b"not an npz")
    fresh = ResultCache(directory=tmp_path)
    result = color_graph(g, "data-ldg", cache=fresh)  # recomputes, no crash
    assert not result.cache_hit


def test_garbage_bytes_entry_is_quarantined_then_rewritten(tmp_path, g):
    """Regression: corrupt disk entries must be *renamed aside*, not just
    skipped — a garbage file left at the key's path would be re-parsed
    (and re-fail) on every lookup forever."""
    cache = ResultCache(directory=tmp_path)
    baseline = color_graph(g, "data-ldg", cache=cache)
    (entry,) = tmp_path.glob("*.npz")
    entry.write_bytes(b"\x00\x89garbage bytes, definitely not a zip archive")

    fresh = ResultCache(directory=tmp_path)
    recomputed = color_graph(g, "data-ldg", cache=fresh)
    assert not recomputed.cache_hit
    assert np.array_equal(recomputed.colors, baseline.colors)
    assert fresh.quarantined == 1
    assert fresh.stats()["quarantined"] == 1
    bad = entry.with_name(entry.name + ".bad")
    assert bad.exists()  # inspectable, but out of the lookup path
    assert entry.exists()  # the recompute re-stored a clean entry

    # The rewritten entry round-trips: next process gets a real hit.
    final = ResultCache(directory=tmp_path)
    hit = color_graph(g, "data-ldg", cache=final)
    assert hit.cache_hit and final.quarantined == 0
    assert np.array_equal(hit.colors, baseline.colors)


# ---------------------------------------------------------------------------
# resolve_cache + construction.
# ---------------------------------------------------------------------------
def test_resolve_cache(tmp_path):
    assert resolve_cache(None) is None
    mem = resolve_cache("memory")
    assert isinstance(mem, ResultCache) and mem.directory is None
    disk = resolve_cache(str(tmp_path / "store"))
    assert disk.directory is not None and disk.directory.is_dir()
    assert resolve_cache(mem) is mem
    with pytest.raises(TypeError, match="as a result cache"):
        resolve_cache(42)


def test_max_entries_validated():
    with pytest.raises(ValueError, match="max_entries"):
        ResultCache(max_entries=0)
