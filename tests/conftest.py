"""Shared fixtures: small deterministic graphs covering distinct regimes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import (
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    path_graph,
    star_graph,
)
from repro.graph.generators import (
    erdos_renyi,
    grid2d,
    random_bipartite,
    rmat_graph,
    triangular_mesh,
)
from repro.graph.generators.rmat import G_PARAMS


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def c7():
    return cycle_graph(7)


@pytest.fixture
def p10():
    return path_graph(10)


@pytest.fixture
def star():
    return star_graph(8)


@pytest.fixture
def isolated():
    return empty_graph(12)


@pytest.fixture
def small_er():
    """~500 vertices, avg degree 8 — random regime."""
    return erdos_renyi(500, 8.0, seed=11)


@pytest.fixture
def small_rmat():
    """Skewed degree distribution — hub regime."""
    return rmat_graph(9, 8.0, G_PARAMS, seed=3, name="rmat-test")


@pytest.fixture
def small_mesh():
    """2D grid — the natural-order mesh regime (worst for speculation)."""
    return grid2d(24, 24)


@pytest.fixture
def small_trimesh():
    return triangular_mesh(16, 16)


@pytest.fixture
def small_bipartite():
    """2-colorable oracle graph."""
    return random_bipartite(200, 200, 6.0, seed=5)


@pytest.fixture
def tiny_known():
    """The Fig. 2 example graph: chromatic number exactly 3."""
    # 0-1, 0-2, 1-2 triangle plus pendant structure.
    return from_edges(
        np.array([0, 0, 1, 1, 2, 3]),
        np.array([1, 2, 2, 3, 4, 4]),
        num_vertices=5,
        name="fig2",
    )


#: All graph fixtures the cross-scheme properness matrix runs on.
GRAPH_FIXTURES = [
    "k5",
    "c6",
    "c7",
    "star",
    "isolated",
    "small_er",
    "small_rmat",
    "small_mesh",
    "small_bipartite",
]


@pytest.fixture
def any_graph(request):
    """Indirect fixture: parametrize over GRAPH_FIXTURES by name."""
    return request.getfixturevalue(request.param)


@pytest.fixture
def numpy_tier():
    """Run the test on the pure-NumPy tier, as on a host with no compiler.

    Every dispatch hook then declines and each call site takes its
    vectorized path.  Forked pool workers inherit the forced tier.
    """
    from repro.compiledsim import runtime

    with runtime._forced_numpy_tier():
        yield


@pytest.fixture
def cc_tier():
    """Run the test on the C tier; skip on a host that cannot build it."""
    from repro.compiledsim import runtime

    if runtime.get_kernels()[0] != "cc":
        pytest.skip("no C tier on this host")


@pytest.fixture(params=["cc", "numpy"])
def tier(request):
    """Run the test once per kernel tier (see ``cc_tier``/``numpy_tier``)."""
    request.getfixturevalue(f"{request.param}_tier")
    return request.param
