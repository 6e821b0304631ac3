"""Upgraded dynamic coloring: typed surface, batch repair, sessions."""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import color_graph, rmat_er
from repro.coloring.base import ColoringResult
from repro.coloring.dynamic import DynamicColoring, normalize_edits
from repro.coloring.sequential import greedy_colors_only
from repro.graph.builder import complete_graph, cycle_graph
from repro.service import ColoringService


@pytest.fixture(scope="module")
def small_er():
    return rmat_er(scale=7, seed=11)


# ----------------------------------------------------------- typed surface
def test_constructor_accepts_coloring_result(small_er):
    seeded = color_graph(small_er, "data-ldg")
    dyn = DynamicColoring(small_er, seeded, method="data-ldg")
    assert np.array_equal(dyn.colors(), seeded.colors)
    dyn.validate()


def test_result_is_versioned_typed_surface(small_er):
    dyn = DynamicColoring(small_er)
    res = dyn.result()
    assert isinstance(res, ColoringResult)
    assert res.scheme == "dynamic:sequential"
    d = res.to_dict(schema_version=1)
    assert d["schema_version"] == 1
    assert d["num_colors"] == dyn.num_colors
    report = res.extra.peek("dynamic")
    assert report["version"] == 0 and report["op"] == "snapshot"


def test_apply_returns_result_and_bumps_version(small_er):
    dyn = DynamicColoring(small_er)
    res = dyn.apply([("add_vertex",), ("add_vertex",)])
    assert isinstance(res, ColoringResult)
    assert res.iterations == dyn.version == 1
    report = res.extra.peek("dynamic")
    assert report["added"] == [small_er.num_vertices, small_er.num_vertices + 1]
    assert dyn.num_vertices == small_er.num_vertices + 2


def test_bare_array_seeding_raises(small_er):
    fresh = greedy_colors_only(small_er)
    with pytest.raises(TypeError, match="ColoringResult"):
        DynamicColoring(small_er, fresh)
    with pytest.raises(TypeError):
        DynamicColoring(small_er, colors=fresh.copy())
    dyn = DynamicColoring(small_er)
    with pytest.raises(TypeError, match="ColoringResult"):
        dyn.adopt(fresh.copy())


def test_normalize_edits_validates_up_front():
    with pytest.raises(ValueError, match="unknown edit"):
        normalize_edits([("frobnicate", 1, 2)])
    with pytest.raises(ValueError, match="two endpoints"):
        normalize_edits([("insert", 1)])
    with pytest.raises(ValueError, match="no operands"):
        normalize_edits([("add_vertex", 9)])
    assert normalize_edits([("insert", np.int64(1), 2)]) == [("insert", 1, 2)]


# ------------------------------------------------------ delete improvement
def test_delete_improvement_reaches_neighbors_of_endpoints():
    """Regression: the one-hop cascade.  Triangle colored [1, 2, 3];
    deleting (0, 1) lets vertex 1 drop to color 1, which in turn frees
    vertex 2 (a *neighbor* of the improved endpoint) to drop to color 2.
    The old endpoint-only improvement left vertex 2 stranded at 3."""
    tri = complete_graph(3)
    dyn = DynamicColoring(
        tri,
        ColoringResult(colors=np.array([1, 2, 3], dtype=np.int32), scheme="x"),
    )
    dyn.delete(0, 1)
    dyn.validate()
    assert dyn.colors().tolist() == [1, 1, 2]
    assert dyn.num_colors == 2  # endpoint-only improvement leaves 3


def test_delete_without_improve_keeps_colors():
    tri = complete_graph(3)
    dyn = DynamicColoring(
        tri,
        ColoringResult(colors=np.array([1, 2, 3], dtype=np.int32), scheme="x"),
    )
    dyn.delete(0, 1, improve=False)
    assert dyn.colors().tolist() == [1, 2, 3]


# ----------------------------------------------------------- batch repair
def test_apply_batch_repairs_all_clashes_at_once(small_er):
    dyn = DynamicColoring(small_er)
    rng = np.random.default_rng(0)
    n = small_er.num_vertices
    batch = []
    seen = set()
    for _ in range(40):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v or (u, v) in seen or (v, u) in seen or dyn.has_edge(u, v):
            continue
        seen.add((u, v))
        batch.append(("insert", u, v))
    res = dyn.apply(batch)
    dyn.validate()
    report = res.extra.peek("dynamic")
    assert report["edits"] == len(batch)
    assert report["repaired"] >= 0


def test_apply_mixed_batch(small_er):
    dyn = DynamicColoring(small_er)
    nbr = int(small_er.neighbors(0)[0])
    res = dyn.apply([
        ("add_vertex",),
        ("delete", 0, nbr),
        ("insert", 0, small_er.num_vertices),  # wire in the new vertex
    ])
    dyn.validate()
    assert dyn.has_edge(0, small_er.num_vertices)
    assert not dyn.has_edge(0, nbr)
    assert res.extra.peek("dynamic")["version"] == 1


# ------------------------------------------------- compaction and recolor
def test_max_drift_triggers_compaction():
    dyn = DynamicColoring(max_drift=0)
    for _ in range(8):
        dyn.add_vertex()
    # growing a clique edge by edge forces the palette up every round;
    # max_drift=0 must recolor (compact) whenever it exceeds baseline
    res = None
    for u in range(8):
        for v in range(u + 1, 8):
            res = dyn.apply([("insert", u, v)])
    dyn.validate()
    assert dyn.num_colors == 8
    assert dyn.baseline_colors == 8
    report = res.extra.peek("dynamic")
    assert report["compactions"] >= 1


def test_recolor_resets_baseline(small_er):
    dyn = DynamicColoring(small_er)
    before = dyn.baseline_colors
    res = dyn.recolor()
    assert isinstance(res, ColoringResult)
    assert dyn.baseline_colors == dyn.num_colors <= before
    assert np.array_equal(dyn.colors(), greedy_colors_only(small_er))


def test_adopt_typed_result(small_er):
    dyn = DynamicColoring(small_er)
    fresh = color_graph(small_er, "data-ldg")
    dyn.adopt(fresh)
    assert np.array_equal(dyn.colors(), fresh.colors)
    assert dyn.baseline_colors == fresh.num_colors
    with pytest.raises(ValueError, match="one entry per vertex"):
        dyn.adopt(
            ColoringResult(colors=np.ones(3, dtype=np.int32), scheme="x")
        )


# ------------------------------------------------------- property: safety
@settings(max_examples=20, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 17), st.integers(0, 17)), max_size=50
    ),
    drift=st.sampled_from([None, 0, 1, 3]),
)
def test_random_edit_streams_stay_proper_and_bounded(edits, drift):
    """The session safety invariants, for any edit stream: every
    intermediate coloring proper, and (drift armed) the palette never
    ends an op more than ``max_drift`` above the recolor baseline."""
    dyn = DynamicColoring(max_drift=drift)
    for _ in range(18):
        dyn.add_vertex()
    for u, v in edits:
        if u == v:
            continue
        op = "delete" if dyn.has_edge(u, v) else "insert"
        dyn.apply([(op, u, v)])
        dyn.validate()  # proper after *every* op
        if drift is not None:
            assert dyn.num_colors <= dyn.baseline_colors + drift


def test_seeded_streams_within_one_color_of_scratch():
    """Deterministic seeded streams: a drift-armed (``max_drift=1``)
    session ends within +1 color of a from-scratch greedy recolor of
    the final graph.  (+1 is not a worst-case theorem for online
    repair — the compaction policy is what keeps real streams tight;
    these fixed seeds pin the behavior.)"""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        dyn = DynamicColoring(max_drift=1)
        for _ in range(20):
            dyn.add_vertex()
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, 20, size=2))
            if u == v:
                continue
            op = "delete" if dyn.has_edge(u, v) else "insert"
            dyn.apply([(op, u, v)])
            dyn.validate()
        g = dyn.to_graph()
        scratch = int(greedy_colors_only(g).max()) if g.num_edges else 1
        assert dyn.num_colors <= scratch + 1, f"seed {seed}"


# ------------------------------------------------------- service sessions
def test_service_session_edit_stream_proper_and_compact_identical():
    async def main():
        g = rmat_er(scale=6, seed=2)
        async with ColoringService("data-ldg") as svc:
            sess = await svc.session(g, max_drift=1)
            rng = np.random.default_rng(3)
            n = g.num_vertices
            for _ in range(40):
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if u == v:
                    continue
                if sess._dyn.has_edge(u, v):
                    res = await sess.delete(u, v)
                else:
                    res = await sess.insert(u, v)
                assert isinstance(res, ColoringResult)
                sess._dyn.validate()  # every intermediate proper
            compacted = await sess.compact()
            final_graph = sess._dyn.to_graph()
            final = await sess.close()
            return svc, compacted, final, final_graph

    svc, compacted, final, final_graph = run_async(main())
    # compaction routes through the service and adopts the engine's
    # coloring: byte-identical to a direct from-scratch run
    direct = color_graph(final_graph, "data-ldg", validate=False)
    assert np.array_equal(final.colors, direct.colors)
    assert compacted.extra.peek("dynamic")["op"] == "compact"
    assert svc.stats["session_ops"] >= 30
    assert svc.stats["compactions"] >= 1
    assert svc.stats["sessions"] == 1


def test_session_add_vertex_and_closed_rejection():
    async def main():
        g = cycle_graph(8)
        async with ColoringService() as svc:
            sess = await svc.session(g)
            res = await sess.add_vertex()
            vid = res.extra.peek("dynamic")["added"][-1]
            assert vid == 8
            await sess.insert(vid, 0)
            assert sess.num_vertices == 9
            await sess.close()
            with pytest.raises(RuntimeError, match="closed"):
                await sess.insert(1, 3)

    run_async(main())


def run_async(coro):
    return asyncio.run(coro)
