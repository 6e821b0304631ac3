"""Shared kernel machinery: mex, segment expansion, conflicts, wave visibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.kernels import (
    detect_conflicts,
    expand_segments,
    min_excluded_colors,
    speculative_color_step,
    speculative_color_waved,
)
from repro.graph.builder import cycle_graph, path_graph
from repro.graph.generators import erdos_renyi


# ---------------------------------------------------------------- segments
def test_expand_segments_basic(c6):
    seg, step, edge_idx = expand_segments(c6, np.array([2, 4]))
    assert list(seg) == [0, 0, 1, 1]
    assert list(step) == [0, 1, 0, 1]
    assert np.array_equal(c6.col_indices[edge_idx], np.concatenate([c6.neighbors(2), c6.neighbors(4)]))


def test_expand_segments_empty(c6):
    seg, step, edge_idx = expand_segments(c6, np.empty(0, dtype=np.int64))
    assert seg.size == step.size == edge_idx.size == 0


def test_expand_segments_isolated(isolated):
    seg, _, _ = expand_segments(isolated, np.arange(5))
    assert seg.size == 0


def test_plans_share_their_identity_streams(monkeypatch):
    # Plans of similar graphs view one shared arange instead of each
    # holding 0..m-1; a much smaller graph gets its own, so it cannot pin
    # a large array after the large graph is gone.
    from repro.coloring import kernels

    monkeypatch.setattr(kernels, "_IOTA", kernels._IOTA[:0])
    graphs = (cycle_graph(200), cycle_graph(180), cycle_graph(6))
    plans = [kernels.ExpansionPlan(g) for g in graphs]
    for g, plan in zip(graphs, plans):
        assert np.array_equal(plan.edge_idx, np.arange(g.num_edges))
        assert np.array_equal(plan.all_ids, np.arange(g.num_vertices))
        assert not plan.edge_idx.flags.writeable
    assert np.shares_memory(plans[0].edge_idx, plans[1].edge_idx)
    assert not np.shares_memory(plans[0].edge_idx, plans[2].edge_idx)


# --------------------------------------------------------------------- mex
def _mex_reference(seg_ids, colors, n):
    out = np.ones(n, dtype=np.int64)
    for s in range(n):
        used = set(colors[seg_ids == s].tolist()) - {0}
        c = 1
        while c in used:
            c += 1
        out[s] = c
    return out


def test_mex_simple():
    seg = np.array([0, 0, 0, 1, 1])
    cols = np.array([1, 2, 4, 2, 3])
    assert list(min_excluded_colors(seg, cols, 2)) == [3, 1]


def test_mex_ignores_uncolored():
    seg = np.array([0, 0])
    cols = np.array([0, 0])
    assert list(min_excluded_colors(seg, cols, 1)) == [1]


def test_mex_empty_segments():
    out = min_excluded_colors(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 3)
    assert list(out) == [1, 1, 1]
    assert min_excluded_colors(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0).size == 0


def test_mex_duplicates_collapse():
    seg = np.array([0, 0, 0, 0])
    cols = np.array([1, 1, 1, 2])
    assert list(min_excluded_colors(seg, cols, 1)) == [3]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 12)), min_size=0, max_size=80
    )
)
def test_mex_matches_reference(pairs):
    seg = np.array(sorted(p[0] for p in pairs), dtype=np.int64)
    cols = np.array([p[1] for p in sorted(pairs, key=lambda p: p[0])], dtype=np.int64)
    got = min_excluded_colors(seg, cols, 8)
    want = _mex_reference(seg, cols, 8)
    assert np.array_equal(got, want)


# ----------------------------------------------------------- color step
def test_speculative_step_reads_snapshot(k5):
    colors = np.zeros(5, dtype=np.int32)
    fresh = speculative_color_step(k5, colors, np.arange(5))
    # all-uncolored snapshot: everyone picks 1 (the speculation hazard)
    assert np.all(fresh == 1)


def test_speculative_step_respects_existing_colors(c6):
    colors = np.array([1, 0, 1, 0, 1, 0], dtype=np.int32)
    fresh = speculative_color_step(c6, colors, np.array([1, 3, 5]))
    assert np.all(fresh == 2)


# ---------------------------------------------------------------- conflicts
def test_detect_conflicts_min_id_loses(c6):
    colors = np.array([1, 1, 2, 3, 2, 3], dtype=np.int32)  # edge (0,1) clashes
    losers = detect_conflicts(c6, colors, np.arange(6))
    assert list(losers) == [0]


def test_detect_conflicts_none_on_proper(c6):
    colors = np.array([1, 2, 1, 2, 1, 2], dtype=np.int32)
    assert detect_conflicts(c6, colors, np.arange(6)).size == 0


def test_detect_conflicts_scope_restricts(c6):
    colors = np.ones(6, dtype=np.int32)
    losers = detect_conflicts(c6, colors, np.array([2, 3]))
    # 2 loses to 3; 3 loses to 4 (outside scope but still a larger neighbor)
    assert list(losers) == [2, 3]


def test_detect_conflicts_uncolored_ignored(c6):
    colors = np.zeros(6, dtype=np.int32)
    assert detect_conflicts(c6, colors, np.arange(6)).size == 0


def test_detect_conflicts_chain():
    g = path_graph(4)
    colors = np.ones(4, dtype=np.int32)
    losers = detect_conflicts(g, colors, np.arange(4))
    assert list(losers) == [0, 1, 2]  # only the path's last vertex survives


# ------------------------------------------------------------ wave model
def test_waved_single_window_equals_snapshot(k5):
    colors_a = np.zeros(5, dtype=np.int32)
    speculative_color_waved(k5, colors_a, np.arange(5), resident_threads=1000)
    colors_b = np.zeros(5, dtype=np.int32)
    colors_b[np.arange(5)] = speculative_color_step(k5, colors_b, np.arange(5))
    assert np.array_equal(colors_a, colors_b)


def test_waved_tiny_window_is_sequential(k5):
    """Window of one thread = sequential greedy = no conflicts at all."""
    colors = np.zeros(5, dtype=np.int32)
    speculative_color_waved(k5, colors, np.arange(5), resident_threads=1)
    assert sorted(colors.tolist()) == [1, 2, 3, 4, 5]
    assert detect_conflicts(k5, colors, np.arange(5)).size == 0


def test_waved_commits_between_windows():
    g = cycle_graph(8)
    colors = np.zeros(8, dtype=np.int32)
    speculative_color_waved(g, colors, np.arange(8), resident_threads=4)
    # window 2 must have seen window 1's colors: vertex 4 adjacent to 3
    assert colors[4] != colors[3]


def test_waved_thread_ids_windowing():
    g = cycle_graph(8)
    colors = np.zeros(8, dtype=np.int32)
    # active vertices 4..7 sit in thread window [4..7] -> second window of 4
    out = speculative_color_waved(
        g, colors, np.arange(4, 8), resident_threads=4, thread_ids=np.arange(4, 8)
    )
    assert out.size == 4


def test_waved_validates_inputs(c6):
    with pytest.raises(ValueError, match="positive"):
        speculative_color_waved(c6, np.zeros(6, dtype=np.int32), np.arange(6), 0)
    with pytest.raises(ValueError, match="sorted"):
        speculative_color_waved(
            c6, np.zeros(6, dtype=np.int32), np.arange(6), 4,
            thread_ids=np.array([3, 1, 2, 0, 4, 5]),
        )


def test_waved_smaller_window_fewer_conflicts():
    g = erdos_renyi(400, 10.0, seed=2)
    conflicts = []
    for window in (400, 32, 1):
        colors = np.zeros(g.num_vertices, dtype=np.int32)
        speculative_color_waved(g, colors, np.arange(g.num_vertices), window)
        conflicts.append(detect_conflicts(g, colors, np.arange(g.num_vertices)).size)
    assert conflicts[0] >= conflicts[1] >= conflicts[2]
    assert conflicts[2] == 0
