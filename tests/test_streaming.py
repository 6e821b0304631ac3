"""Out-of-core streaming: window planning, identity to sharded, budgets.

The guarantees under test (see ``src/repro/parallel/streaming.py``):
``plan_windows(num_windows=k)`` cuts the exact vertex blocks
``block_partition`` does, a window's induced subgraph matches
``subgraph_mask`` on that block, and ``color_streamed`` produces
byte-identical colors to ``color_sharded`` at the same piece count —
including when the backing graph is an mmap'd container that never
enters private memory.
"""

import numpy as np
import pytest

from repro.graph import from_edges
from repro.graph.generators import erdos_renyi
from repro.graph.io import read_csr_bin, write_csr_bin
from repro.graph.partition import block_partition
from repro.parallel import color_sharded, color_streamed, plan_windows, window_subgraph


@pytest.fixture
def sample():
    return erdos_renyi(400, 8.0, seed=5, name="stream-sample")


# ---------------------------------------------------------------- planning
def test_plan_windows_matches_block_partition(sample):
    for k in (1, 3, 7):
        bounds = plan_windows(sample, num_windows=k)
        part = block_partition(sample, k)
        for p in range(k):
            members = part.members(p)
            assert members.min() == bounds[p]
            assert members.max() == bounds[p + 1] - 1
        assert bounds[0] == 0 and bounds[-1] == sample.num_vertices


def test_plan_windows_budget_mode(sample):
    whole = plan_windows(sample, memory_budget_mb=1024.0)
    assert len(whole) == 2  # one window: the graph fits easily

    tight = plan_windows(sample, memory_budget_mb=0.01)
    assert len(tight) > 2  # must cut pieces
    assert tight[-1] == sample.num_vertices


def test_plan_windows_argument_validation(sample):
    with pytest.raises(ValueError):
        plan_windows(sample)
    with pytest.raises(ValueError):
        plan_windows(sample, num_windows=2, memory_budget_mb=1.0)
    with pytest.raises(ValueError):
        plan_windows(sample, memory_budget_mb=0.0)
    # More windows than vertices clamps instead of emitting empties.
    bounds = plan_windows(sample, num_windows=10 * sample.num_vertices)
    assert len(bounds) - 1 == sample.num_vertices


def test_window_subgraph_matches_subgraph_mask(sample):
    bounds = plan_windows(sample, num_windows=4)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        lo, hi = int(lo), int(hi)
        mask = np.zeros(sample.num_vertices, dtype=bool)
        mask[lo:hi] = True
        expect = sample.subgraph_mask(mask)
        got = window_subgraph(sample, lo, hi)
        assert np.array_equal(got.row_offsets, expect.row_offsets)
        assert np.array_equal(got.col_indices, expect.col_indices)


# ---------------------------------------------------------------- coloring
def test_streamed_matches_sharded(sample):
    for k in (2, 5):
        sharded = color_sharded(sample, num_shards=k)
        streamed = color_streamed(sample, num_windows=k)
        assert np.array_equal(streamed.colors, sharded.colors)
        assert streamed.iterations == sharded.iterations
        assert streamed.num_colors == sharded.num_colors


def test_streamed_budget_mode_is_valid_and_bounded(sample):
    budget_mb = sample.memory_bytes() / 2**20 / 6
    result = color_streamed(sample, memory_budget_mb=budget_mb)
    stats = result.shard_stats
    assert stats["mode"] == "stream"
    assert stats["num_shards"] > 1
    assert stats["peak_window_bytes"] < sample.memory_bytes()
    # validate=True already ran the windowed checker; double-check here.
    result.validate(sample)


def test_streamed_from_mmap_container(sample, tmp_path):
    path = tmp_path / "stream.csrbin"
    write_csr_bin(sample, path)
    disk = read_csr_bin(path, mmap=True, validate=False, name=sample.name)

    heap = color_streamed(sample, num_windows=3)
    ooc = color_streamed(disk, num_windows=3)
    assert np.array_equal(ooc.colors, heap.colors)
    assert ooc.iterations == heap.iterations


def test_streamed_single_window_equals_direct_run(sample):
    from repro import color_graph

    direct = color_graph(sample, "data-ldg")
    streamed = color_streamed(sample, num_windows=1)
    assert np.array_equal(streamed.colors, direct.colors)
    assert streamed.shard_stats["resolution_rounds"] == 0


def test_streamed_empty_and_tiny_graphs():
    empty = from_edges(
        np.empty(0, np.int64), np.empty(0, np.int64), num_vertices=0,
        name="empty",
    )
    res = color_streamed(empty, num_windows=3)
    assert res.colors.size == 0

    lone = from_edges(
        np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
        num_vertices=3, name="edge+isolate",
    )
    res = color_streamed(lone, num_windows=3)
    assert res.num_colors >= 2 or res.colors.min() >= 1
    res.validate(lone)


def test_color_sharded_stream_delegation(sample):
    via_flag = color_sharded(sample, num_shards=4, stream=True)
    direct = color_streamed(sample, num_windows=4)
    assert np.array_equal(via_flag.colors, direct.colors)
    assert via_flag.shard_stats["mode"] == "stream"

    via_budget = color_sharded(
        sample, memory_budget_mb=sample.memory_bytes() / 2**20 / 4
    )
    assert via_budget.shard_stats["mode"] == "stream"
    via_budget.validate(sample)


def test_streamed_observe_trace(sample):
    result = color_streamed(sample, num_windows=3, observe="trace")
    tracer = result.observation
    names = [s.name for s in tracer.spans("run")]
    assert any(name.startswith("streamed:") for name in names)
