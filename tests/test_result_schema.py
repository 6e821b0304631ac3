"""The versioned typed result surface and the retired ``extra`` reads."""

import numpy as np
import pytest

from repro import Tracer, color_graph, rmat_er
from repro.coloring.base import RESULT_SCHEMA_VERSION, ColoringResult


@pytest.fixture(scope="module")
def g():
    return rmat_er(scale=7, seed=5)


def test_to_dict_schema_v1_keys(g):
    result = color_graph(g, "data-ldg", observe="trace")
    d = result.to_dict(schema_version=1)
    assert d["schema_version"] == RESULT_SCHEMA_VERSION == 1
    assert d["scheme"] == "data-ldg"
    assert d["colors"] is result.colors
    assert d["num_colors"] == result.num_colors
    assert d["iterations"] == result.iterations
    assert d["total_time_us"] == pytest.approx(
        d["gpu_time_us"] + d["cpu_time_us"] + d["transfer_time_us"]
    )
    assert d["num_kernel_launches"] == result.num_kernel_launches
    assert isinstance(d["observation"], Tracer)
    assert d["cache_hit"] is False
    assert d["shard_stats"] is None
    assert d["robustness"] is None


def test_to_dict_rejects_unknown_version(g):
    result = color_graph(g, "data-ldg")
    with pytest.raises(ValueError, match="schema_version"):
        result.to_dict(schema_version=2)


def test_typed_properties(g):
    plain = color_graph(g, "data-ldg")
    assert plain.observation is None
    assert plain.cache_hit is False
    assert plain.shard_stats is None
    tracer = Tracer()
    observed = color_graph(g, "data-ldg", observe=tracer)
    assert observed.observation is tracer
    assert observed.to_dict()["observation"] is tracer


def test_migrated_extra_reads_raise(g):
    """The PR 3 deprecation cycle completed: keying a migrated key out of
    ``extra`` raises with a pointer at the typed surface."""
    result = color_graph(g, "data-ldg", observe="trace")
    for key in ("observation", "cache_hit", "shard_stats", "robustness"):
        with pytest.raises(KeyError, match="removed"):
            result.extra[key]
        with pytest.raises(KeyError, match="removed"):
            result.extra.get(key)
    assert result.observation is not None  # the typed spelling still works


def test_scheme_specific_extra_reads_stay_open(g):
    """Only the migrated typed keys were retired; scheme outputs (e.g.
    ``backend``, ``block_size``) still read normally from the bag."""
    result = color_graph(g, "data-ldg")
    assert result.extra["backend"] == "gpusim"
    assert result.extra.get("block_size") == 128
    assert result.extra.get("no-such-key", "fallback") == "fallback"


def test_extra_writes_stay_open(g):
    result = color_graph(g, "data-ldg")
    result.extra["marker"] = 1
    result.extra.setdefault("other", 2)
    result.extra.update(third=3)
    result.extra.pop("third", None)
    assert result.extra.peek("marker") == 1


def test_to_dict_robustness_round_trips_resilience_annex(g, tmp_path):
    """``robustness`` in schema v1 carries the full resilience report —
    fault plan, degradations, and the checkpoint/deadline annexes — and
    matches the typed property exactly (same object, JSON-able)."""
    import json

    from repro.parallel.streaming import color_streamed

    result = color_streamed(
        g, "data-ldg", num_windows=3, deadline_ms=60_000.0,
        checkpoint=str(tmp_path / "r.ckpt"),
        faults="seed=3; halo-drop: round=99",  # plan present, never fires
    )
    d = result.to_dict(schema_version=1)
    assert d["robustness"] is result.robustness
    report = d["robustness"]
    assert report["seed"] == 3
    assert report["checkpoint"]["written"] >= 1
    assert report["deadline"]["deadline_ms"] == 60_000.0
    assert "queued_ms" in report["deadline"]
    # the report is a documented JSON surface: it must serialize as-is
    json.dumps(report)


def test_extra_bag_survives_construction_roundtrip():
    result = ColoringResult(
        colors=np.array([1, 2], dtype=np.int32), scheme="x",
        extra={"cache_hit": True, "shard_stats": {"num_shards": 2}},
    )
    assert result.cache_hit is True
    assert result.shard_stats == {"num_shards": 2}
