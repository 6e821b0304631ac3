"""Extensions: distance-2 coloring, dynamic recoloring, warp load balancing,
Jacobian compression."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import color_graph
from repro.coloring.base import ColoringError, ColoringResult
from repro.coloring.distance2 import (
    color_distance2_gpu,
    count_d2_conflicts,
    greedy_distance2,
    two_hop_pairs,
    validate_distance2,
)
from repro.coloring.dynamic import DynamicColoring
from repro.coloring.kernels import warp_lb_layout
from repro.graph.builder import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph.generators import grid2d, rmat_graph
from repro.graph.generators.rmat import G_PARAMS


# -------------------------------------------------------------- distance-2
def test_two_hop_pairs_path():
    g = path_graph(5)
    seg, targets = two_hop_pairs(g, np.array([2]))
    reach = set(targets.tolist()) - {2}
    assert reach == {0, 1, 3, 4}


def test_d2_star_needs_n_colors():
    """All leaves of a star are pairwise at distance 2."""
    g = star_graph(9)
    r = greedy_distance2(g)
    validate_distance2(g, r)
    assert r.num_colors == 10


def test_d2_cycle():
    g = cycle_graph(9)
    r = greedy_distance2(g)
    validate_distance2(g, r)
    assert r.num_colors >= 3  # any C_n, n not divisible by 3, needs > 3... >= 3


def test_d2_grid_bound():
    g = grid2d(10, 10)
    r = greedy_distance2(g)
    validate_distance2(g, r)
    # 5-point stencil distance-2 neighborhood has <= 12 members
    assert r.num_colors <= 13


def test_d2_counts_conflicts():
    g = path_graph(3)
    bad = np.array([1, 2, 1], dtype=np.int32)  # 0 and 2 are distance 2
    assert count_d2_conflicts(g, bad) == 1
    good = np.array([1, 2, 3], dtype=np.int32)
    assert count_d2_conflicts(g, good) == 0


def test_d2_is_stricter_than_d1(small_er):
    d1 = color_graph(small_er, method="sequential")
    d2 = greedy_distance2(small_er)
    assert d2.num_colors >= d1.num_colors


def test_d2_gpu_proper(small_er):
    r = color_distance2_gpu(small_er)
    validate_distance2(small_er, r)
    assert r.gpu_time_us > 0
    assert r.num_kernel_launches >= 2


def test_d2_gpu_deterministic(small_mesh):
    a = color_distance2_gpu(small_mesh)
    b = color_distance2_gpu(small_mesh)
    assert np.array_equal(a.colors, b.colors)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 25), m=st.integers(0, 50), seed=st.integers(0, 5))
def test_d2_gpu_proper_random(n, m, seed):
    from repro.graph.builder import from_edges

    rng = np.random.default_rng(seed)
    g = from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), num_vertices=n
    )
    validate_distance2(g, color_distance2_gpu(g))


# ----------------------------------------------------------------- dynamic
def test_dynamic_from_scratch():
    dyn = DynamicColoring()
    a, b, c = dyn.add_vertex(), dyn.add_vertex(), dyn.add_vertex()
    dyn.insert(a, b)
    dyn.insert(b, c)
    dyn.insert(a, c)
    dyn.validate()
    assert dyn.num_colors == 3


def test_dynamic_insert_repairs_clash(c6):
    dyn = DynamicColoring(c6)
    assert dyn.num_colors == 2
    changed = dyn.insert(0, 2)  # chord creates an odd cycle
    assert changed in (0, 2)
    dyn.validate()
    assert dyn.num_colors == 3


def test_dynamic_insert_no_clash_no_recolor(c6):
    dyn = DynamicColoring(c6)
    before = dyn.colors().copy()
    assert dyn.insert(0, 3) is None  # colors already differ (1 vs 2)
    assert np.array_equal(dyn.colors(), before)


def test_dynamic_duplicate_insert_noop(c6):
    dyn = DynamicColoring(c6)
    assert dyn.insert(0, 1) is None
    assert dyn.degree(0) == 2


def test_dynamic_delete_improves():
    g = complete_graph(4)
    dyn = DynamicColoring(g)
    assert dyn.num_colors == 4
    dyn.delete(2, 3)
    dyn.validate()
    assert dyn.num_colors == 3  # one endpoint shrank


def test_dynamic_delete_missing_edge(c6):
    dyn = DynamicColoring(c6)
    with pytest.raises(KeyError):
        dyn.delete(0, 3)


def test_dynamic_rejects_self_loop(c6):
    dyn = DynamicColoring(c6)
    with pytest.raises(ValueError):
        dyn.insert(2, 2)
    with pytest.raises(IndexError):
        dyn.insert(0, 99)


def test_dynamic_to_graph_roundtrip(small_er):
    dyn = DynamicColoring(small_er)
    back = dyn.to_graph()
    assert np.array_equal(back.col_indices, small_er.col_indices)


def test_dynamic_rejects_improper_seed(c6):
    improper = ColoringResult(colors=np.ones(6, dtype=np.int32), scheme="x")
    with pytest.raises(ColoringError):
        DynamicColoring(c6, improper)


@settings(max_examples=15, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
def test_dynamic_random_edit_sequences_stay_proper(edits):
    dyn = DynamicColoring()
    for _ in range(20):
        dyn.add_vertex()
    for u, v in edits:
        if u == v:
            continue
        if dyn.has_edge(u, v):
            dyn.delete(u, v)
        else:
            dyn.insert(u, v)
    dyn.validate()
    # the maintained coloring respects the greedy bound on the final graph
    g = dyn.to_graph()
    assert dyn.num_colors <= g.max_degree + 1 or g.num_edges == 0


# ----------------------------------------------------- warp load balancing
def test_warp_lb_layout_splits_by_degree():
    g = rmat_graph(9, 8.0, G_PARAMS, seed=3)
    active = np.arange(g.num_vertices, dtype=np.int64)
    layout = warp_lb_layout(g, active, 32)
    assert set(layout.light_ids) | set(layout.heavy_ids) == set(active.tolist())
    assert np.all(g.degrees[layout.heavy_ids] >= 32)
    assert np.all(g.degrees[layout.light_ids] < 32)
    assert layout.heavy_base % 32 == 0
    assert layout.num_threads == layout.heavy_base + 32 * layout.heavy_ids.size


def test_lb_same_colors_as_base(small_rmat):
    base = color_graph(small_rmat, method="data-base")
    lb = color_graph(small_rmat, method="data-lb")
    assert np.array_equal(base.colors, lb.colors)  # mapping is cost-only


def test_lb_helps_on_hub_graphs():
    g = rmat_graph(12, 10.0, G_PARAMS, seed=5)
    base = color_graph(g, method="data-base")
    lb = color_graph(g, method="data-lb")
    assert lb.total_time_us < base.total_time_us


def test_lb_scheme_name_and_extra(small_rmat):
    r = color_graph(small_rmat, method="data-ldg-lb")
    assert r.scheme == "data-ldg-lb"
    assert r.extra["load_balance"] is True


def test_lb_no_heavy_vertices_degrades_gracefully(small_mesh):
    # mesh max degree < 32: the lb path must behave like the base mapping
    base = color_graph(small_mesh, method="data-base")
    lb = color_graph(small_mesh, method="data-lb")
    assert np.array_equal(base.colors, lb.colors)


# ----------------------------------------------------- jacobian compression
def test_column_intersection_graph():
    import scipy.sparse as sp

    pattern = sp.csr_array(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    g = __import__("repro.apps.jacobian", fromlist=["column_intersection_graph"]) \
        .column_intersection_graph(pattern)
    u, v = g.edge_endpoints()
    pairs = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
    assert pairs == {(0, 1), (1, 2)}


def test_jacobian_compression_and_recovery():
    import scipy.sparse as sp
    from repro.apps.jacobian import compress_jacobian, recover_jacobian

    rng = np.random.default_rng(9)
    A = sp.random_array((100, 70), density=0.04, random_state=9, format="csr")
    A.data[:] = rng.random(A.nnz) + 0.5
    pattern = sp.csr_array(A)
    comp = compress_jacobian(pattern)
    assert comp.num_groups < comp.num_columns  # actual compression
    prods = pattern @ comp.seed_matrix()
    rec = recover_jacobian(prods, pattern, comp)
    assert np.allclose(rec.toarray(), pattern.toarray())


def test_jacobian_groups_structurally_orthogonal():
    import scipy.sparse as sp
    from repro.apps.jacobian import compress_jacobian

    pattern = sp.csr_array(
        sp.random_array((60, 40), density=0.06, random_state=4)
    )
    comp = compress_jacobian(pattern)
    # within a group, no two columns share a row
    csc = pattern.tocsc()
    for grp in range(comp.num_groups):
        cols = np.flatnonzero(comp.groups == grp)
        rows = np.concatenate(
            [csc.indices[csc.indptr[c]: csc.indptr[c + 1]] for c in cols]
        ) if cols.size else np.empty(0)
        assert rows.size == np.unique(rows).size


def test_jacobian_seed_matrix_shape():
    import scipy.sparse as sp
    from repro.apps.jacobian import compress_jacobian

    pattern = sp.csr_array(sp.eye_array(10).tocsr())
    comp = compress_jacobian(pattern)
    assert comp.num_groups == 1  # identity columns never intersect
    assert comp.seed_matrix().shape == (10, 1)
    assert comp.compression_ratio == 10.0
