"""Refactor regression: the engine reproduces the pre-engine drivers exactly.

The golden values below were captured by running the per-scheme round
loops as they existed *before* the extraction of ``repro.engine`` (commit
3ecf0a2), over the downscaled Table I suite: sha256 prefix of the color
array bytes, iteration count, and color count for every evaluated device
scheme plus the ablation knobs.  The engine refactor promised byte-identical
colorings and identical iteration counts — this file holds it to that.

Every leg runs once per kernel tier: on the C tier every run uses by
default, and on the pure-NumPy fallback a host without a C compiler
runs.  The C-tier cells keep their historical ids; the NumPy-tier cells
carry a ``numpy-`` prefix.
"""

import hashlib

import pytest

from repro.coloring.api import color_graph
from repro.graph.generators.suite import load_graph

#: graph -> loaded CSR (scale_div=256, generator seed 7 — the defaults the
#: goldens were captured with; the graphs are deterministic).
_SCALE_DIV = 256

# (graph, method, kwargs) -> (sha256(colors)[:16], iterations, num_colors)
GOLDEN = {
    # -- rmat-er: every scheme + every ablation knob ---------------------
    ("rmat-er", "topo-base", ()): ("3f1b0a4b9e27e387", 3, 12),
    ("rmat-er", "topo-ldg", ()): ("3f1b0a4b9e27e387", 3, 12),
    ("rmat-er", "topo-base", (("conflict_scope", "active"),)): ("3f1b0a4b9e27e387", 3, 12),
    ("rmat-er", "topo-base", (("conflict_parallelism", "edge"),)): ("3f1b0a4b9e27e387", 3, 12),
    ("rmat-er", "topo-base", (("block_size", 256),)): ("3f1b0a4b9e27e387", 3, 12),
    ("rmat-er", "data-base", ()): ("3f1b0a4b9e27e387", 2, 12),
    ("rmat-er", "data-ldg", ()): ("3f1b0a4b9e27e387", 2, 12),
    ("rmat-er", "data-base", (("worklist_strategy", "atomic"),)): ("3f1b0a4b9e27e387", 2, 12),
    ("rmat-er", "data-base", (("load_balance", True),)): ("3f1b0a4b9e27e387", 2, 12),
    ("rmat-er", "data-ldg", (("block_size", 64),)): ("3f1b0a4b9e27e387", 2, 12),
    ("rmat-er", "3step-gm", ()): ("b5f4a823da2704e6", 4, 13),
    ("rmat-er", "3step-gm", (("partition_size", 64),)): ("74b6de524f9459ec", 4, 12),
    ("rmat-er", "csrcolor", ()): ("ef7fe01c7e0beb43", 37, 127),
    ("rmat-er", "csrcolor", (("num_hashes", 1),)): ("c9b048081faac352", 99, 130),
    ("rmat-er", "csrcolor", (("compare_all", False),)): ("768bb010fdbd7e67", 6, 32),
    ("rmat-er", "csrcolor", (("fraction", 0.9),)): ("a37d960fdb1ad0f5", 10, 398),
    # -- the rest of the Table I suite, default knobs --------------------
    ("rmat-g", "topo-base", ()): ("09e93accbcff272a", 4, 19),
    ("rmat-g", "topo-ldg", ()): ("09e93accbcff272a", 4, 19),
    ("rmat-g", "data-base", ()): ("d8af20d2bb58d959", 4, 20),
    ("rmat-g", "data-ldg", ()): ("d8af20d2bb58d959", 4, 20),
    ("rmat-g", "3step-gm", ()): ("7931e0b713194cae", 6, 21),
    ("rmat-g", "csrcolor", ()): ("5bef11b111b29bab", 74, 179),
    ("thermal2", "topo-base", ()): ("357f5a48835303e3", 23, 8),
    ("thermal2", "topo-ldg", ()): ("357f5a48835303e3", 23, 8),
    ("thermal2", "data-base", ()): ("afd5994d132ad884", 13, 8),
    ("thermal2", "data-ldg", ()): ("afd5994d132ad884", 13, 8),
    ("thermal2", "3step-gm", ()): ("4053e27e36112ab3", 21, 8),
    ("thermal2", "csrcolor", ()): ("701afb2a38b0062f", 12, 49),
    ("atmosmodd", "topo-base", ()): ("11a1f6631bd4041a", 16, 6),
    ("atmosmodd", "topo-ldg", ()): ("11a1f6631bd4041a", 16, 6),
    ("atmosmodd", "data-base", ()): ("d038a2c99f069263", 9, 7),
    ("atmosmodd", "data-ldg", ()): ("d038a2c99f069263", 9, 7),
    ("atmosmodd", "3step-gm", ()): ("c174bb96f97475e7", 16, 7),
    ("atmosmodd", "csrcolor", ()): ("ffb9a93cd58ae1af", 8, 40),
    ("Hamrle3", "topo-base", ()): ("30a49b8d113adab1", 3, 8),
    ("Hamrle3", "topo-ldg", ()): ("30a49b8d113adab1", 3, 8),
    ("Hamrle3", "data-base", ()): ("30a49b8d113adab1", 2, 8),
    ("Hamrle3", "data-ldg", ()): ("30a49b8d113adab1", 2, 8),
    ("Hamrle3", "3step-gm", ()): ("8e9c1583a93d0d05", 3, 9),
    ("Hamrle3", "csrcolor", ()): ("57ee2f98df583c7f", 17, 66),
    ("G3_circuit", "topo-base", ()): ("e9a01ce96f392b43", 13, 7),
    ("G3_circuit", "topo-ldg", ()): ("e9a01ce96f392b43", 13, 7),
    ("G3_circuit", "data-base", ()): ("30089a94e7eb399e", 10, 7),
    ("G3_circuit", "data-ldg", ()): ("30089a94e7eb399e", 10, 7),
    ("G3_circuit", "3step-gm", ()): ("fa868fdf2625fcab", 15, 7),
    ("G3_circuit", "csrcolor", ()): ("b16ef1c659be622d", 7, 36),
}

#: cpusim (multicore Xeon model), default knobs: (graph, method) ->
#: (sha256(colors)[:16], iterations, num_colors, total_time_us).  Captured
#: on the NumPy path, the only one cpusim ran before the C tier served it.
CPUSIM_GOLDEN = {
    ("rmat-er", "topo-ldg"): ("369bc0ae9c666742", 3, 12, 351.7264957264958),
    ("rmat-er", "data-ldg"): ("369bc0ae9c666742", 2, 12, 245.17777777777778),
    ("rmat-er", "3step-gm"): ("8978d78cbdfa2106", 3, 13, 431.57504273504276),
    ("rmat-er", "csrcolor"): ("ef7fe01c7e0beb43", 37, 127, 663.7636467236466),
    ("rmat-g", "topo-ldg"): ("640b6dc51337b7af", 3, 18, 350.34188034188037),
    ("rmat-g", "data-ldg"): ("24b84e671f0c247d", 3, 18, 262.734358974359),
    ("thermal2", "topo-base"): ("338853cebf379600", 8, 7, 577.3767521367521),
    ("thermal2", "data-ldg"): ("1a77efdeee975531", 7, 7, 342.4386324786325),
    ("thermal2", "3step-gm"): ("e750683cd2b8fae9", 8, 8, 395.5297008547009),
    ("atmosmodd", "data-base"): ("3ddc42b0215a9715", 5, 6, 158.77675213675212),
    ("Hamrle3", "topo-ldg"): ("62b531e89355fab4", 3, 8, 215.03555555555556),
    ("G3_circuit", "data-ldg"): ("5f7b314e908612e8", 5, 7, 255.7323076923077),
    ("G3_circuit", "3step-gm"): ("2b7c1bfbb9eb7121", 8, 7, 397.6147863247863),
}

_GRAPH_CACHE = {}


def _graph(name):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = load_graph(name, scale_div=_SCALE_DIV)
    return _GRAPH_CACHE[name]


def _digest(result):
    return hashlib.sha256(result.colors.tobytes()).hexdigest()[:16]


def _per_tier(cells):
    """``cells`` once per tier, as ``(tier, *cell)`` params."""
    for tier in ("cc", "numpy"):
        for cell in cells:
            cell_id = "-".join(str(v).replace(" ", "") for v in cell)
            yield pytest.param(
                tier, *cell,
                id=cell_id if tier == "cc" else f"numpy-{cell_id}",
            )


@pytest.mark.parametrize(
    ("tier", "gname", "method", "kwargs"), _per_tier(sorted(GOLDEN))
)
def test_engine_matches_pre_refactor_driver(request, tier, gname, method,
                                            kwargs):
    request.getfixturevalue(f"{tier}_tier")
    result = color_graph(_graph(gname), method, **dict(kwargs))
    assert (_digest(result), result.iterations, result.num_colors) == GOLDEN[
        (gname, method, kwargs)
    ]


@pytest.mark.parametrize(
    ("gname", "method", "kwargs"),
    sorted(GOLDEN),
    ids=lambda v: str(v).replace(" ", ""),
)
def test_compiled_backend_matches_goldens(gname, method, kwargs):
    """The ``"compiled"`` alias runs the default backend: same goldens."""
    result = color_graph(
        _graph(gname), method, backend="compiled", **dict(kwargs)
    )
    assert (_digest(result), result.iterations, result.num_colors) == GOLDEN[
        (gname, method, kwargs)
    ]


@pytest.mark.parametrize(
    ("tier", "gname", "method"), _per_tier(sorted(CPUSIM_GOLDEN))
)
def test_cpusim_matches_goldens(request, tier, gname, method):
    request.getfixturevalue(f"{tier}_tier")
    result = color_graph(_graph(gname), method, backend="cpusim")
    assert (
        _digest(result), result.iterations, result.num_colors,
        result.total_time_us,
    ) == CPUSIM_GOLDEN[(gname, method)]
