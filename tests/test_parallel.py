"""Process-pool scheduler: byte-identity, ordering, failures, retries.

The headline guarantee: ``color_many(..., workers=N)`` returns the same
colors and iteration counts as a serial run, for every scheme and every
ablation knob — proven against the same golden fingerprints the engine
refactor is held to (tests/test_engine_equivalence.py).  Timings are
exempt by design (each worker's device starts cold).
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from repro import color_graph, color_many
from repro.obs import chrome_trace, flame_summary, round_rows
from repro.parallel import (
    ColorJob,
    JobFailure,
    ProcessPoolScheduler,
    SerialScheduler,
    normalize_jobs,
    resolve_scheduler,
)
from repro.parallel.scheduler import run_jobs

from .test_engine_equivalence import GOLDEN, _graph

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"
fork_only = pytest.mark.skipif(
    not _FORK, reason="flaky-scheme injection relies on fork inheritance"
)


def _golden_jobs():
    """The full golden matrix as one heterogeneous batch."""
    cases = sorted(GOLDEN)
    jobs = [
        (_graph(gname), method, dict(kwargs)) for gname, method, kwargs in cases
    ]
    return cases, jobs


def test_workers_match_golden_suite():
    """workers=2 reproduces every golden (graph, scheme, knobs) cell."""
    cases, jobs = _golden_jobs()
    results = color_many(jobs, workers=2)
    assert len(results) == len(cases)
    for case, result in zip(cases, results):
        assert result, f"{case} failed: {result}"
        digest = hashlib.sha256(result.colors.tobytes()).hexdigest()[:16]
        assert (digest, result.iterations, result.num_colors) == GOLDEN[case], case


def test_serial_scheduler_matches_plain_batch():
    graphs = [_graph("rmat-er"), _graph("rmat-g")]
    plain = color_many(graphs, "data-ldg")
    via_sched = color_many(graphs, "data-ldg", scheduler="serial")
    for a, b in zip(plain, via_sched):
        assert np.array_equal(a.colors, b.colors)
        assert a.iterations == b.iterations


def test_results_stream_in_submission_order():
    graphs = [_graph("rmat-er"), _graph("thermal2"), _graph("rmat-g")]
    results = color_many(graphs, "data-ldg", workers=2)
    direct = [color_graph(g, "data-ldg") for g in graphs]
    for got, want in zip(results, direct):
        assert np.array_equal(got.colors, want.colors)


def test_mixed_host_and_device_jobs():
    g = _graph("rmat-er")
    results = color_many([(g, "sequential"), (g, "data-ldg")], workers=2)
    assert all(results)
    assert results[0].scheme == "sequential"
    assert np.array_equal(results[0].colors, color_graph(g, "sequential").colors)
    assert np.array_equal(results[1].colors, color_graph(g, "data-ldg").colors)


def test_failure_surfaces_in_place_without_killing_batch():
    g = _graph("rmat-er")
    results = color_many(
        [g, (g, "no-such-method"), g], "data-ldg", workers=2
    )
    assert results[0] and results[2]
    failure = results[1]
    assert isinstance(failure, JobFailure)
    assert not failure  # falsy, so all(results) screens batches
    assert failure.index == 1
    assert failure.method == "no-such-method"
    assert "unknown method" in failure.error
    assert failure.attempts == 3  # 1 + default 2 retries


def test_serial_failure_surfaces_too():
    g = _graph("rmat-er")
    results = color_many([(g, "no-such-method"), g], "data-ldg")
    assert isinstance(results[0], JobFailure)
    assert results[0].attempts == 1  # serial default: no retries
    assert results[1]


# ---------------------------------------------------------------------------
# Retry / crash / timeout behavior (fork-inherited fault injection).
# ---------------------------------------------------------------------------
@fork_only
def test_retry_recovers_from_transient_failures(tmp_path, monkeypatch):
    from repro.coloring import api
    from repro.coloring.base import ColoringResult

    marker = tmp_path / "attempts"

    def flaky(graph, **kwargs):
        count = len(marker.read_text()) if marker.exists() else 0
        marker.write_text("x" * (count + 1))
        if count < 2:
            raise RuntimeError(f"transient #{count}")
        return ColoringResult(
            colors=np.ones(graph.num_vertices, dtype=np.int32), scheme="flaky"
        )

    monkeypatch.setitem(api.METHODS, "flaky", flaky)
    sched = ProcessPoolScheduler(workers=1, retries=2, backoff_s=0.0)
    results = run_jobs(
        [ColorJob(_graph("rmat-er"), "flaky", {})], scheduler=sched,
        validate=False,
    )
    assert results[0], results[0]
    assert results[0].scheme == "flaky"
    assert len(marker.read_text()) == 3


@fork_only
def test_worker_crash_becomes_structured_failure(monkeypatch):
    from repro.coloring import api

    def die(graph, **kwargs):
        os._exit(3)

    monkeypatch.setitem(api.METHODS, "die", die)
    sched = ProcessPoolScheduler(workers=1, retries=1, backoff_s=0.0)
    results = run_jobs(
        [ColorJob(_graph("rmat-er"), "die", {})], scheduler=sched,
        validate=False,
    )
    failure = results[0]
    assert isinstance(failure, JobFailure)
    assert "BrokenProcessPool" in failure.error
    assert failure.attempts == 2


@fork_only
def test_hung_worker_times_out(monkeypatch):
    import time as _time

    from repro.coloring import api

    def hang(graph, **kwargs):
        _time.sleep(5.0)

    monkeypatch.setitem(api.METHODS, "hang", hang)
    sched = ProcessPoolScheduler(
        workers=1, retries=0, backoff_s=0.0, timeout_s=0.3
    )
    results = run_jobs(
        [ColorJob(_graph("rmat-er"), "hang", {})], scheduler=sched,
        validate=False,
    )
    failure = results[0]
    assert isinstance(failure, JobFailure)
    assert "Timeout" in failure.error


# ---------------------------------------------------------------------------
# Observation threading.
# ---------------------------------------------------------------------------
def test_worker_subtraces_merge_into_one_exportable_trace():
    graphs = [_graph("rmat-er"), _graph("rmat-g")]
    results = color_many(graphs, "data-ldg", workers=2, observe="trace")
    tracer = results[0].observation
    assert tracer is results[1].observation  # one batch-wide tracer
    workers = [s for s in tracer.roots if s.category == "worker"]
    assert len(workers) == 2
    assert [len(w.find("run")) for w in workers] == [1, 1]
    # Monotone, re-based timestamps: the Chrome exporter's invariant.
    assert workers[0].start_us <= workers[0].end_us <= workers[1].start_us
    for span, _ in tracer.walk():
        assert span.end_us is not None and span.end_us >= span.start_us
    events = chrome_trace(tracer)["traceEvents"]
    assert events


def test_worker_runs_and_rounds_match_serial_batch():
    """Runs grafted under worker spans are found like root runs: the
    workers=2 trace lists the serial batch's runs and round rows."""
    graphs = [_graph("rmat-er"), _graph("rmat-g")]
    serial = color_many(graphs, "data-ldg", observe="trace")[0].observation
    parallel = color_many(graphs, "data-ldg", workers=2, observe="trace")[0].observation

    def listing(tracer):
        return [(r.name, r.counters["iterations"]) for r in tracer.runs()]

    assert listing(parallel) == listing(serial)
    assert len(listing(serial)) == 2
    pairs = [[(r["active"], r["conflicts"]) for r in round_rows(t)]
             for t in (serial, parallel)]
    assert pairs[0] == pairs[1] and pairs[0]
    summaries = [flame_summary(t).split("runs:\n")[1] for t in (serial, parallel)]
    assert [line.split(" rounds")[0] for line in summaries[0].splitlines()] == \
        [line.split(" rounds")[0] for line in summaries[1].splitlines()]


# ---------------------------------------------------------------------------
# Plumbing: normalize_jobs, resolve_scheduler, input validation.
# ---------------------------------------------------------------------------
def test_normalize_jobs_spellings():
    g = _graph("rmat-er")
    jobs = normalize_jobs(
        [g, (g,), (g, "csrcolor"), (g, None, {"block_size": 64}),
         ColorJob(g, options={"block_size": 32})],
        default_method="data-ldg", default_options={"block_size": 128},
    )
    assert [j.method for j in jobs] == [
        "data-ldg", "data-ldg", "csrcolor", "data-ldg", "data-ldg"
    ]
    assert [j.options["block_size"] for j in jobs] == [128, 128, 128, 64, 32]


def test_normalize_jobs_rejects_garbage():
    g = _graph("rmat-er")
    with pytest.raises(TypeError, match="cannot interpret"):
        normalize_jobs([42], default_method="data-ldg")
    with pytest.raises(TypeError, match="4 elements"):
        normalize_jobs([(g, "x", {}, "extra")], default_method="data-ldg")


def test_resolve_scheduler():
    assert isinstance(resolve_scheduler(None, None), SerialScheduler)
    assert isinstance(resolve_scheduler(None, 1), SerialScheduler)
    sched = resolve_scheduler(None, 3)
    assert isinstance(sched, ProcessPoolScheduler) and sched.workers == 3
    assert isinstance(resolve_scheduler("serial"), SerialScheduler)
    assert isinstance(resolve_scheduler("process", 2), ProcessPoolScheduler)
    custom = SerialScheduler()
    assert resolve_scheduler(custom) is custom
    with pytest.raises(ValueError, match="unknown scheduler"):
        resolve_scheduler("threads")
    with pytest.raises(TypeError, match="as a scheduler"):
        resolve_scheduler(42)


def test_process_scheduler_rejects_backend_instances():
    from repro.engine.backend import resolve_backend

    sched = ProcessPoolScheduler(workers=2)
    with pytest.raises(TypeError, match="picklable backend spec"):
        sched.execute(
            [ColorJob(_graph("rmat-er"), "data-ldg", {})],
            backend=resolve_backend("cpusim"),
        )


def test_workers_with_named_backend():
    g = _graph("rmat-er")
    serial = color_graph(g, "data-ldg", backend="cpusim")
    [parallel] = color_many([g], "data-ldg", backend="cpusim", workers=2)
    assert np.array_equal(serial.colors, parallel.colors)


# ------------------------------------------------------------ graph stores
def _shm_entries():
    from repro.graph.store import SHM_PREFIX

    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


@pytest.mark.parametrize("store", ["shm", "mmap"])
def test_workers_with_store_match_golden_suite(store):
    """Arena-backed workers reproduce every golden cell, and leak nothing."""
    before = _shm_entries()
    cases, jobs = _golden_jobs()
    results = color_many(jobs, workers=2, store=store)
    for case, result in zip(cases, results):
        assert result, f"{case} failed: {result}"
        digest = hashlib.sha256(result.colors.tobytes()).hexdigest()[:16]
        assert (digest, result.iterations, result.num_colors) == GOLDEN[case], case
    assert _shm_entries() == before, "run_jobs leaked shared-memory segments"


def test_store_with_serial_scheduler():
    g = _graph("rmat-er")
    serial = color_many([g, g], "data-ldg")
    arena = color_many([g, g], "data-ldg", scheduler="serial", store="shm")
    for a, b in zip(serial, arena):
        assert np.array_equal(a.colors, b.colors)
        assert a.iterations == b.iterations


def test_store_instance_deduplicates_across_jobs():
    from repro.graph.store import SharedMemoryStore

    g = _graph("rmat-er")
    with SharedMemoryStore() as store:
        results = color_many(
            [(g, "data-ldg"), (g, "topo-ldg"), (g, "csrcolor")],
            workers=2, store=store,
        )
        assert all(results)
        # Three jobs, one unique topology: one segment, not three.
        assert store.placements == 1
        assert store.stats()["graphs"] == 1


def test_worker_graph_lru_bounds_retention():
    from repro.parallel.scheduler import _GraphLRU

    evicted = []

    class _Ctx:
        def evict(self, graph):
            evicted.append(graph)

    lru = _GraphLRU(2)
    ctx_map = {"ctx": _Ctx()}
    a, b, c = object(), object(), object()
    assert lru.get_or_add("a", lambda: a, ctx_map) is a
    assert lru.get_or_add("b", lambda: b, ctx_map) is b
    # Refresh "a" so "b" is now the LRU entry.
    assert lru.get_or_add("a", lambda: object(), ctx_map) is a
    assert lru.get_or_add("c", lambda: c, ctx_map) is c
    assert evicted == [b], "LRU must evict the least-recent graph via ctx"
    assert len(lru) == 2


def test_store_cache_keying_is_arena_invariant(tmp_path):
    """ResultCache hits across stores: the digest hashes bytes, not pages."""
    from repro.parallel import ResultCache

    g = _graph("rmat-er")
    cache = ResultCache(directory=tmp_path / "cache")
    first = color_many([g], "data-ldg", cache=cache, store="shm", workers=2)
    second = color_many([g], "data-ldg", cache=cache, store="mmap")
    third = color_many([g], "data-ldg", cache=cache)
    assert np.array_equal(first[0].colors, second[0].colors)
    assert np.array_equal(first[0].colors, third[0].colors)
    stats = cache.stats()
    assert stats["hits"] >= 2, f"arena change must not miss the cache: {stats}"
