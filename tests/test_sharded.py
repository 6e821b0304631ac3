"""Partition-sharded coloring: validity, stats, tracing, failure modes."""

import numpy as np
import pytest

from repro import color_graph, color_sharded, rmat_er
from repro.coloring.base import ColoringError, count_conflicts
from repro.parallel import color_streamed


@pytest.fixture(scope="module")
def medium():
    return rmat_er(scale=11, seed=7)


def test_sharded_is_checker_valid_on_100k_rmat():
    """The acceptance case: a 100k+-vertex R-MAT, sharded, checker-verified."""
    graph = rmat_er(scale=17, seed=3)
    assert graph.num_vertices >= 100_000
    result = color_sharded(graph, "data-ldg", num_shards=4)
    result.validate(graph)  # ColoringError on any conflict/gap
    assert count_conflicts(graph, result.colors) == 0
    stats = result.shard_stats
    assert stats["num_shards"] == 4
    assert len(stats["shards"]) == 4
    assert sum(s["vertices"] for s in stats["shards"]) == graph.num_vertices
    assert stats["resolution_rounds"] >= 1  # cross-shard conflicts existed
    # Color count stays in the same regime as an unsharded run.
    direct = color_graph(graph, "data-ldg")
    assert result.num_colors <= 2 * direct.num_colors + 4


def test_single_shard_equals_direct_coloring(medium):
    result = color_sharded(medium, "data-ldg", num_shards=1)
    direct = color_graph(medium, "data-ldg")
    assert np.array_equal(result.colors, direct.colors)
    assert result.shard_stats["resolution_rounds"] == 0
    assert result.shard_stats["boundary_vertices"] == 0


def test_workers_do_not_change_the_coloring(medium):
    serial = color_sharded(medium, "data-ldg", num_shards=4)
    parallel = color_sharded(medium, "data-ldg", num_shards=4, workers=2)
    assert np.array_equal(serial.colors, parallel.colors)
    assert serial.iterations == parallel.iterations


def test_host_scheme_shards_too(medium):
    result = color_sharded(medium, "sequential", num_shards=3)
    result.validate(medium)
    assert result.scheme == "sharded(sequential)x3"


def test_makespan_timing_model(medium):
    result = color_sharded(medium, "data-ldg", num_shards=4)
    totals = [s["total_time_us"] for s in result.shard_stats["shards"]]
    # Concurrent shards: per-component maxima, so the total sits between
    # the slowest shard and the serial sum.
    assert max(totals) - 1e-9 <= result.total_time_us <= sum(totals) + 1e-9
    assert result.num_kernel_launches > 0


def test_trace_contains_shard_and_resolution_spans(medium):
    result = color_sharded(medium, "data-ldg", num_shards=4, observe="trace")
    tracer = result.observation
    [root] = tracer.roots
    assert root.category == "run" and root.name.startswith("sharded:")
    assert root.counters["shards"] == 4
    workers = [s for s in root.children if s.category == "worker"]
    assert len(workers) == 4  # one merged subtrace per shard job
    [resolve] = root.find("resolve")
    assert resolve.counters["rounds"] == result.shard_stats["resolution_rounds"]
    assert resolve.counters["remaining_conflicts"] == 0
    for span, _ in tracer.walk():
        assert span.end_us is not None


def test_fallback_sweep_guarantees_termination(medium):
    # Forcing zero Jacobi rounds exercises the sequential fallback path.
    result = color_sharded(
        medium, "data-ldg", num_shards=4, max_resolution_rounds=0
    )
    result.validate(medium)
    assert result.shard_stats["fallback"] is True


def test_unknown_method_fails_fast_with_shared_error(medium):
    # The registry resolver runs before any shard job is built, so a bad
    # method surfaces the same fail-fast error (with did-you-mean) as
    # color_graph and the CLI — not as per-shard JobFailures.  The
    # structured ShardedColoringError path is covered by
    # test_degradation.py with genuinely failing jobs.
    with pytest.raises(ValueError, match=r"color_sharded\(\): unknown method"):
        color_sharded(medium, "no-such-method", num_shards=2)
    with pytest.raises(ValueError, match=r"did you mean 'data-ldg'"):
        color_sharded(medium, "data-lgd", num_shards=2)


def test_num_shards_validation(medium):
    with pytest.raises(ValueError, match="num_shards"):
        color_sharded(medium, num_shards=0)


def test_more_shards_than_vertices_is_capped():
    tiny = rmat_er(scale=4, seed=1)
    result = color_sharded(tiny, "data-ldg", num_shards=10_000)
    result.validate(tiny)
    assert result.shard_stats["num_shards"] <= tiny.num_vertices


@pytest.mark.parametrize("run", [
    lambda g: color_sharded(g, "data-ldg", num_shards=4,
                            max_resolution_rounds=0),
    lambda g: color_streamed(g, "data-ldg", num_windows=4,
                             max_resolution_rounds=0),
], ids=["sharded", "streamed"])
def test_validation_failure_propagates(medium, monkeypatch, run):
    # The sharded result is still checker-gated: cripple the repair mex so
    # boundary conflicts survive the fallback, and watch validate fire.
    from repro.parallel import partitioned

    monkeypatch.setattr(partitioned, "_mex", lambda neigh: 1)
    with pytest.raises(ColoringError):
        run(medium)
