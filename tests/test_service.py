"""The asyncio coloring service: admission, coalescing, batching, sessions."""

import asyncio

import numpy as np
import pytest

from repro import color_graph, rmat_er
from repro.engine import RunConfig
from repro.graph.builder import cycle_graph
from repro.service import (
    PRIORITIES,
    AdmissionError,
    ColoringService,
    RequestFailed,
    ServiceClient,
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def g():
    return rmat_er(scale=8, seed=3)


@pytest.fixture(scope="module")
def g2():
    return rmat_er(scale=8, seed=4)


# ------------------------------------------------------------- lifecycle
def test_submit_before_start_is_structured_rejection(g):
    async def main():
        svc = ColoringService()
        with pytest.raises(AdmissionError) as exc:
            await svc.submit(g)
        assert exc.value.reason == "not-running"

    run(main())


def test_context_manager_starts_and_drains(g):
    async def main():
        async with ColoringService() as svc:
            assert svc.running
            result = await svc.submit(g)
            assert result.num_colors > 0
        assert not svc.running
        assert svc.stats["queue_depth"] == 0
        assert svc.stats["inflight"] == 0

    run(main())


def test_close_without_drain_fails_queued_requests(g, g2):
    async def main():
        svc = ColoringService()
        await svc.start()
        # Stall dispatch long enough to catch requests still queued.
        svc.batch_window_s = 0.2
        tasks = [
            asyncio.create_task(svc.submit(g)),
            asyncio.create_task(svc.submit(g2)),
        ]
        await asyncio.sleep(0)  # let them enqueue
        await svc.close(drain=False)
        done = await asyncio.gather(*tasks, return_exceptions=True)
        assert all(isinstance(r, AdmissionError) for r in done)

    run(main())


# ------------------------------------------------------------ coalescing
def test_fifty_concurrent_duplicates_one_engine_run(g):
    async def main():
        async with ColoringService() as svc:
            client = ServiceClient(svc)
            results = await client.color_many([g] * 50, priority="normal")
            stats = svc.stats
            return results, stats

    results, stats = run(main())
    assert len(results) == 50
    assert stats["engine_runs"] == 1  # the acceptance criterion
    assert stats["coalesced"] + stats["cache_hits"] == 49
    assert stats["coalesced"] > 0
    # every caller gets an independent result object
    assert len({id(r.colors) for r in results}) == 50
    followers = [r for r in results if r.extra.peek("coalesced")]
    assert followers and all(
        np.array_equal(f.colors, results[0].colors) for f in followers
    )


def test_service_colors_byte_identical_to_direct(g):
    async def main():
        async with ColoringService("data-ldg") as svc:
            return await svc.submit(g, "data-ldg")

    result = run(main())
    direct = color_graph(g, "data-ldg")
    assert np.array_equal(result.colors, direct.colors)
    assert result.scheme == direct.scheme


def test_coalescing_in_trace_and_repeat_submission_hits_cache(g):
    async def main():
        cfg = RunConfig(observe="trace")
        async with ColoringService(config=cfg) as svc:
            await asyncio.gather(*(svc.submit(g) for _ in range(5)))
            later = await svc.submit(g)  # in-flight long gone: cache path
            return svc, later

    svc, later = run(main())
    stats = svc.stats
    assert stats["engine_runs"] == 1
    assert stats["cache_hits"] >= 1
    assert later.cache_hit is True
    names = [s.name for s in svc.observation.roots]
    assert names.count("service.batch") == 1
    coalesce_marks = [
        s for s in svc.observation.roots
        if s.name == "service.request" and s.counters.get("coalesced")
    ]
    assert coalesce_marks  # coalescing is observable in the trace


def test_distinct_graphs_do_not_coalesce(g, g2):
    async def main():
        async with ColoringService() as svc:
            await asyncio.gather(svc.submit(g), svc.submit(g2))
            return svc.stats

    stats = run(main())
    assert stats["engine_runs"] == 2
    assert stats["coalesced"] == 0


def test_distinct_options_fork_the_key(g):
    async def main():
        async with ColoringService() as svc:
            await asyncio.gather(
                svc.submit(g, options={"block_size": 128}),
                svc.submit(g, options={"block_size": 256}),
            )
            return svc.stats

    stats = run(main())
    assert stats["engine_runs"] == 2


# -------------------------------------------------------------- admission
def test_queue_full_rejection_is_structured(g):
    async def main():
        svc = ColoringService(max_queue=4)
        await svc.start()
        svc.batch_window_s = 0.2  # hold the queue full
        graphs = [rmat_er(scale=5, seed=i) for i in range(4)]
        tasks = [asyncio.create_task(svc.submit(x, priority="batch"))
                 for x in graphs[:2]]
        await asyncio.sleep(0)
        with pytest.raises(AdmissionError) as exc:
            await svc.submit(graphs[2], priority="batch")
        assert exc.value.reason == "queue-full"
        assert exc.value.limit == 2  # batch share: 0.5 * 4
        assert exc.value.queue_depth >= 2
        # interactive share is the full queue: still admitted
        interactive = asyncio.create_task(
            svc.submit(graphs[3], priority="interactive")
        )
        await asyncio.gather(*tasks, interactive)
        await svc.close()
        assert svc.stats["rejected"] == 1

    run(main())


def test_unknown_priority_rejected(g):
    async def main():
        async with ColoringService() as svc:
            with pytest.raises(ValueError, match="priority"):
                await svc.submit(g, priority="urgent")

    run(main())
    assert PRIORITIES == ("interactive", "normal", "batch")


def test_engine_failure_surfaces_as_request_failed():
    bad = cycle_graph(6)

    async def main():
        async with ColoringService() as svc:
            with pytest.raises(RequestFailed):
                # unknown scheme option -> the job fails in the engine
                await svc.submit(bad, options={"no_such_option": 1})
            healthy = await svc.submit(bad)
            return healthy, svc.stats

    healthy, stats = run(main())
    assert healthy.num_colors > 0  # service survives a failed request
    assert stats["failed"] == 1


# ------------------------------------------------------- config threading
def test_run_config_threads_through(g, tmp_path):
    async def main():
        cfg = RunConfig(
            backend="cpusim", store="shm", cache=str(tmp_path / "rc"),
        )
        async with ColoringService("data-base", config=cfg) as svc:
            result = await svc.submit(g)
            assert svc._owns_store and svc._store.kind == "shm"
            return result, svc

    result, svc = run(main())
    assert svc._store is None  # owned arena released on close
    direct = color_graph(g, "data-base", backend="cpusim")
    assert np.array_equal(result.colors, direct.colors)
    assert (tmp_path / "rc").exists()  # disk cache actually used
    assert not list(
        __import__("pathlib").Path("/dev/shm").glob("reproshm_*")
    )


def test_worker_pool_batches(g, g2):
    async def main():
        cfg = RunConfig(workers=2)
        async with ColoringService(config=cfg) as svc:
            client = ServiceClient(svc)
            results = await client.color_many([g, g2, g, g2])
            return results, svc.stats

    results, stats = run(main())
    assert stats["engine_runs"] == 2
    assert np.array_equal(results[0].colors, color_graph(g, "data-ldg").colors)
    assert np.array_equal(results[1].colors, results[3].colors)


# ---------------------------------------------------------------- client
def test_client_return_exceptions(g):
    async def main():
        async with ColoringService(max_queue=2) as svc:
            svc.batch_window_s = 0.1
            client = ServiceClient(svc)
            graphs = [rmat_er(scale=5, seed=i) for i in range(4)]
            out = await client.color_many(
                    graphs, priority="normal", return_exceptions=True
                )
            return out

    out = run(main())
    assert any(isinstance(r, AdmissionError) for r in out)
    assert any(not isinstance(r, Exception) for r in out)


# ---------------------------------------------------------------- serve CLI
def test_cli_serve_check(capsys):
    from repro.cli import main

    rc = main([
        "serve", "--graph", "rmat-er", "--scale-div", "64",
        "--requests", "20", "--session-edits", "10", "--check",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "CHECK OK" in out
    assert "coalesced" in out


# ------------------------------------------------- deadlines & breakers
def test_deadline_zero_rejected_at_admission(g):
    from repro.resilience import DeadlineExceeded

    async def main():
        async with ColoringService() as svc:
            with pytest.raises(DeadlineExceeded) as exc:
                await svc.submit(g, deadline_ms=0.0)
            assert exc.value.where == "admission"
            return svc.stats

    stats = run(main())
    assert stats["deadline_hits"] == 1
    assert stats["failed"] == 0  # structural rejection, not a failure


def test_deadline_expires_in_queue_attributed_to_dispatch(g):
    from repro.resilience import DeadlineExceeded

    async def main():
        async with ColoringService() as svc:
            svc.batch_window_s = 0.1  # guarantee >= 100 ms queued
            with pytest.raises(DeadlineExceeded) as exc:
                await svc.submit(g, deadline_ms=5.0)
            return exc.value, svc.stats

    err, stats = run(main())
    assert err.where == "dispatch"
    assert err.queued_ms > 0.0
    assert stats["deadline_hits"] == 1


def test_config_deadline_is_the_default_budget(g):
    from repro.resilience import DeadlineExceeded

    async def main():
        cfg = RunConfig(deadline_ms=5.0)
        async with ColoringService(config=cfg) as svc:
            svc.batch_window_s = 0.1
            with pytest.raises(DeadlineExceeded):
                await svc.submit(g)  # inherits config.deadline_ms
            # an explicit budget overrides the config default
            r = await svc.submit(g, deadline_ms=60_000.0)
            return r

    assert run(main()).num_colors > 0


def test_coalesced_follower_abandons_without_killing_leader(g):
    from repro.resilience import DeadlineExceeded

    async def main():
        async with ColoringService() as svc:
            svc.batch_window_s = 0.2
            leader = asyncio.create_task(svc.submit(g))
            await asyncio.sleep(0)  # leader enqueued, entry in flight
            with pytest.raises(DeadlineExceeded) as exc:
                await svc.submit(g, deadline_ms=30.0)
            assert exc.value.where == "coalesced-wait"
            result = await leader  # the leader still completes
            return result, svc.stats

    result, stats = run(main())
    assert result.num_colors > 0
    assert stats["coalesced"] == 1
    assert stats["deadline_hits"] == 1
    assert stats["cancelled"] == 0  # one waiter remained throughout


def test_last_waiter_abandoning_cancels_the_run(g):
    async def main():
        async with ColoringService() as svc:
            svc.batch_window_s = 0.3
            task = asyncio.create_task(svc.submit(g))
            await asyncio.sleep(0.05)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return svc.stats

    stats = run(main())
    assert stats["cancelled"] == 1


def test_dispatcher_crash_restarts_and_serves_next_request(g):
    async def main():
        cfg = RunConfig(faults="seed=1; dispatcher-crash: batch=0")
        async with ColoringService(config=cfg) as svc:
            with pytest.raises(RequestFailed, match="dispatcher crashed"):
                await svc.submit(g)
            result = await svc.submit(g)  # auto-restarted dispatcher
            return result, svc.stats

    result, stats = run(main())
    assert result.num_colors > 0
    assert stats["dispatcher_restarts"] == 1
    assert stats["completed"] == 1


def test_service_stats_expose_breaker_state(g):
    async def main():
        async with ColoringService() as svc:
            await svc.submit(g)
            return svc.stats

    stats = run(main())
    assert stats["breaker"]["state"] == "closed"
    assert stats["breaker"]["name"] == "service"
    assert stats["breaker"]["trips"] == 0


def test_double_close_is_a_no_op(g):
    async def main():
        svc = ColoringService()
        await svc.start()
        await svc.submit(g)
        await svc.close()
        await svc.close()  # second close: no-op, no raise
        return svc.stats

    stats = run(main())
    assert not stats["running"]
    assert stats["queue_depth"] == 0 and stats["inflight"] == 0
