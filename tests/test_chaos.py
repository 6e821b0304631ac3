"""Chaos suite: scheduler contracts under seed-driven fault injection.

Two properties carry the whole suite:

* **Structure** — whatever a plan throws at a batch, every job lands at
  its submission position exactly once, as a ``ColoringResult`` or a
  structured ``JobFailure`` — never lost, never duplicated.
* **Determinism** — the same plan replays the same fault sequence, the
  same degradations, and the same colorings, run after run.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro import color_graph, rmat_er
from repro.coloring.base import ColoringResult
from repro.faults import resolve_robustness
from repro.parallel import (
    BACKOFF_CAP_S,
    ColorJob,
    JobFailure,
    ProcessPoolScheduler,
    ResultCache,
    SerialScheduler,
    backoff_delay,
)
from repro.parallel.scheduler import run_jobs

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"
fork_only = pytest.mark.skipif(
    not _FORK, reason="pool chaos tests rely on cheap fork workers"
)


@pytest.fixture(scope="module")
def jobs():
    return [
        ColorJob(rmat_er(scale=8, seed=s), "data-ldg", {}) for s in (21, 22, 23)
    ]


@pytest.fixture(scope="module")
def healthy(jobs):
    return [color_graph(j.graph, j.method) for j in jobs]


def _outcome_fingerprint(results):
    """A comparable, order-preserving view of a batch outcome."""
    out = []
    for r in results:
        if isinstance(r, JobFailure):
            out.append(("fail", r.index, r.attempts, r.error))
        else:
            out.append(("ok", r.colors.tobytes(), r.iterations))
    return out


# ---------------------------------------------------------------------------
# Structure: submission order, no lost/duplicated slots, typed failures.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_every_seed_keeps_batch_structure(jobs, healthy, seed):
    plan = f"seed={seed}; job-error: p=0.6"
    results = run_jobs(
        jobs, scheduler=SerialScheduler(), faults=plan, health="strict",
    )
    assert len(results) == len(jobs)
    for i, r in enumerate(results):
        assert isinstance(r, (ColoringResult, JobFailure)), r
        if isinstance(r, JobFailure):
            assert r.index == i
            assert "job-error" in r.error or "FaultInjected" in r.error
        else:
            assert np.array_equal(r.colors, healthy[i].colors)


def test_some_seed_actually_fails_and_some_passes(jobs):
    verdicts = set()
    for seed in range(5):
        results = run_jobs(
            jobs, scheduler=SerialScheduler(),
            faults=f"seed={seed}; job-error: p=0.6", health="strict",
        )
        verdicts.update(isinstance(r, JobFailure) for r in results)
    assert verdicts == {True, False}  # the chaos is not a no-op or a wipeout


# ---------------------------------------------------------------------------
# Determinism: identical double runs — outcomes, fired faults, degradations.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", (0, 3))
def test_serial_double_run_is_identical(jobs, seed):
    def once():
        rb = resolve_robustness(f"seed={seed}; job-error: p=0.5", "strict")
        results = run_jobs(jobs, scheduler=SerialScheduler(retries=1), faults=rb)
        return _outcome_fingerprint(results), rb.report()

    first, second = once(), once()
    assert first[0] == second[0]
    assert first[1] == second[1]


@fork_only
def test_pool_double_run_is_identical_on_deterministic_sites(jobs):
    # job-error decisions key on (job, attempt): independent of pool
    # scheduling races, so even the pool replays exactly.
    def once():
        rb = resolve_robustness("seed=9; job-error: p=0.5", "strict")
        results = run_jobs(
            jobs,
            scheduler=ProcessPoolScheduler(2, retries=1, backoff_s=0.0),
            backend="gpusim", faults=rb,
        )
        return _outcome_fingerprint(results), rb.report()

    first, second = once(), once()
    assert first[0] == second[0]
    assert first[1] == second[1]


# ---------------------------------------------------------------------------
# Crash / hang chaos against the pool.
# ---------------------------------------------------------------------------
@fork_only
def test_worker_crash_heals_byte_identically(jobs, healthy):
    rb = resolve_robustness("seed=11; worker-crash: job=0, attempt=1", None)
    results = run_jobs(
        jobs,
        scheduler=ProcessPoolScheduler(2, retries=2, backoff_s=0.0),
        backend="gpusim", faults=rb,
    )
    assert all(not isinstance(r, JobFailure) for r in results)
    for r, h in zip(results, healthy):
        assert np.array_equal(r.colors, h.colors)
    assert "worker-crash" in [f["site"] for f in rb.report()["fired"]]


@fork_only
def test_worker_hang_is_bounded_by_workers_not_jobs(jobs, healthy):
    # One worker sleeps 30 simulated-wall seconds; the timeout plus pool
    # recycling must finish the whole batch in a few seconds, not 30.
    rb = resolve_robustness(
        "seed=12; worker-hang: job=0, attempt=1, param=30", None
    )
    sched = ProcessPoolScheduler(2, retries=1, backoff_s=0.0, timeout_s=1.0)
    start = time.monotonic()
    results = run_jobs(jobs, scheduler=sched, backend="gpusim", faults=rb)
    elapsed = time.monotonic() - start
    assert elapsed < 20.0
    assert sched.pools_recycled >= 1
    assert all(not isinstance(r, JobFailure) for r in results)
    for r, h in zip(results, healthy):
        assert np.array_equal(r.colors, h.colors)
    assert "worker-hang" in [f["site"] for f in rb.report()["fired"]]


# ---------------------------------------------------------------------------
# Retry-then-succeed: caching and observation still behave.
# ---------------------------------------------------------------------------
def test_retry_then_succeed_reports_cache_and_observation(jobs, healthy):
    cache = ResultCache()
    results = run_jobs(
        [jobs[0]], scheduler=SerialScheduler(retries=1),
        faults="seed=1; job-error: job=0, attempt=1",
        observe="trace", cache=cache,
    )
    (result,) = results
    assert not isinstance(result, JobFailure)
    assert not result.cache_hit  # computed this run (after one retry)
    assert result.observation is not None
    assert result.observation.runs()
    assert np.array_equal(result.colors, healthy[0].colors)
    assert cache.stores == 1

    (hit,) = run_jobs([jobs[0]], scheduler=SerialScheduler(), cache=cache)
    assert hit.cache_hit
    assert np.array_equal(hit.colors, healthy[0].colors)
    assert hit.robustness is None  # fault reports never ride cache entries


def test_failure_attempts_accounting(jobs):
    (failure,) = run_jobs(
        [jobs[0]], scheduler=SerialScheduler(retries=1),
        faults="seed=1; job-error: job=0", health="strict",
    )
    assert isinstance(failure, JobFailure)
    assert failure.attempts == 2  # retries=1 → two attempts, both injected


# ---------------------------------------------------------------------------
# Backoff: exponential, capped, deterministically jittered.
# ---------------------------------------------------------------------------
def test_backoff_delay_shape():
    assert backoff_delay(0.0, 5) == 0.0
    assert backoff_delay(-1.0, 5) == 0.0
    for i in range(12):
        d = backoff_delay(0.1, i, seed=7)
        raw = min(0.1 * 2**i, BACKOFF_CAP_S)
        assert 0.5 * raw <= d <= raw
    # Deep rounds saturate at the documented cap (jitter may halve it).
    assert backoff_delay(0.1, 50, seed=7) <= BACKOFF_CAP_S


def test_backoff_delay_deterministic_per_seed():
    a = [backoff_delay(0.05, i, seed=3) for i in range(6)]
    b = [backoff_delay(0.05, i, seed=3) for i in range(6)]
    c = [backoff_delay(0.05, i, seed=4) for i in range(6)]
    assert a == b
    assert a != c
