"""Observability: span tracing, exporters, and the observe= surface."""

import json

import numpy as np
import pytest

from repro.coloring.api import color_graph
from repro.engine import ExecutionContext
from repro.gpusim import KEPLER_K20C
from repro.graph.builder import from_edges
from repro.graph.generators import rmat_er
from repro.metrics.recorder import Recorder
from repro.obs import (
    Observation,
    Span,
    Tracer,
    chrome_trace,
    flame_summary,
    jsonl_events,
    resolve_observe,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(scope="module")
def small_er():
    return rmat_er(scale=8, seed=3)


@pytest.fixture()
def traced_topo(small_er):
    result = color_graph(small_er, "topo-base", observe="trace")
    return result, result.observation


# ---------------------------------------------------------------- tracer core
def test_tracer_clock_and_nesting():
    t = Tracer()
    outer = t.begin("outer", "phase")
    t.event("a", "kernel", duration_us=5.0)
    with t.span("inner", "phase") as inner:
        t.event("b", "kernel", duration_us=3.0)
    t.end(outer)
    assert t.now_us == pytest.approx(8.0)
    assert outer.duration_us == pytest.approx(8.0)
    assert inner.start_us == pytest.approx(5.0)
    assert inner.duration_us == pytest.approx(3.0)
    assert [s.name for s, _ in t.walk()] == ["outer", "a", "inner", "b"]
    assert outer.total("launches") == 0  # counter absent everywhere


def test_tracer_end_closes_abandoned_children():
    t = Tracer()
    outer = t.begin("outer", "run")
    t.begin("left-open", "round")
    t.end(outer)  # closes the abandoned round too
    assert all(s.end_us is not None for s, _ in t.walk())
    with pytest.raises(RuntimeError):
        t.end()


# ------------------------------------------------------------- span tree shape
def test_topo_span_tree_shape_and_counters(small_er, traced_topo):
    result, obs = traced_topo
    runs = obs.tracer.runs()
    assert len(runs) == 1
    run = runs[0]
    assert run.counters["scheme"] == "topo-base"
    assert run.counters["vertices"] == small_er.num_vertices
    assert run.counters["iterations"] == result.iterations
    assert run.counters["colors"] == result.num_colors
    rounds = [c for c in run.children if c.category == "round"]
    assert len(rounds) == result.iterations
    # every working round launches color + conflict kernels and one 4-byte
    # flag readback, in that order
    for r in rounds[:-1]:
        names = [c.category for c in r.children]
        assert names == ["kernel", "kernel", "dtoh"]
        assert r.children[0].name.startswith("topo-color")
        assert r.children[1].name.startswith("topo-conflict")
        assert r.children[2].counters["nbytes"] == 4
    # the terminating round finds no work: just the flag readback
    assert [c.category for c in rounds[-1].children] == ["dtoh"]
    assert rounds[-1].counters["active"] == 0
    assert rounds[-1].counters["conflicts"] == 0
    # counter totals over the tree match the run's aggregate accounting
    assert run.total("launches") == result.num_kernel_launches
    assert run.duration_us == pytest.approx(result.total_time_us)
    overhead = KEPLER_K20C.kernel_launch_overhead_us
    assert run.total("kernel_us") == pytest.approx(
        result.gpu_time_us - result.num_kernel_launches * overhead
    )


def test_datadriven_span_counters_track_worklist(small_er):
    result = color_graph(small_er, "data-ldg", observe="trace")
    run = result.observation.tracer.runs()[0]
    rounds = [c for c in run.children if c.category == "round"]
    assert len(rounds) == result.iterations
    # first round processes the full vertex set; actives shrink monotonically
    actives = [r.counters["active"] for r in rounds]
    assert actives[0] == small_er.num_vertices
    assert all(a >= b for a, b in zip(actives, actives[1:]))
    # conflicts this round == active next round (the worklist handoff)
    conflicts = [r.counters["conflicts"] for r in rounds]
    assert actives[1:] == conflicts[:-1]
    assert conflicts[-1] == 0


def test_cpusim_backend_traces_kernels(small_er):
    result = color_graph(small_er, "data-base", backend="cpusim", observe="trace")
    tracer = result.observation.tracer
    kernels = tracer.spans("kernel")
    assert len(kernels) == result.num_kernel_launches
    assert all(k.counters["instructions"] > 0 for k in kernels)
    run = tracer.runs()[0]
    assert run.counters["backend"] == "cpusim"
    assert run.duration_us == pytest.approx(result.cpu_time_us)


def test_host_scheme_gets_synthetic_run_span(small_er):
    result = color_graph(small_er, "sequential", observe="trace")
    run = result.observation.tracer.runs()[0]
    assert run.counters["backend"] == "host"
    assert run.duration_us == pytest.approx(result.total_time_us)
    assert run.counters["colors"] == result.num_colors


def test_context_cache_and_pool_events(small_er):
    ctx = ExecutionContext(observe="trace")
    ctx.run(small_er, "data-ldg")
    ctx.run(small_er, "data-ldg")
    cache = [s for s in ctx.tracer.spans("cache") if s.name.startswith("upload")]
    assert [c.counters["hit"] for c in cache] == [0, 1]  # second run reuses
    pools = [s for s in ctx.tracer.spans("cache") if s.name == "buffer-pool"]
    assert len(pools) == 2
    assert pools[1].counters["hits"] > 0  # worklists recycled on run 2
    assert len(ctx.tracer.runs()) == 2


# ------------------------------------------------------------------ exporters
def test_chrome_trace_is_valid_and_monotone(traced_topo, tmp_path):
    _, obs = traced_topo
    path = write_chrome_trace(obs.tracer, tmp_path / "trace.json")
    data = json.loads(path.read_text(encoding="utf-8"))
    events = data["traceEvents"]
    assert events, "trace must not be empty"
    for e in events:
        assert e["ph"] == "X"
        assert e["dur"] >= 0
        assert isinstance(e["args"], dict)
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts), "pre-order timestamps must be monotone"
    # round-trips through json without numpy leftovers
    json.dumps(data)


def test_jsonl_export_one_object_per_span(traced_topo, tmp_path):
    _, obs = traced_topo
    path = write_jsonl(obs.tracer, tmp_path / "events.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(obs.tracer)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["category"] in ("cache", "alloc", "htod", "run")
    assert all(p["duration_us"] >= 0 for p in parsed)
    assert list(jsonl_events(obs.tracer))[0]["depth"] == 0


def test_flame_summary_attributes_leaf_time(traced_topo):
    _, obs = traced_topo
    text = flame_summary(obs.tracer)
    assert "topo-color" in text and "topo-conflict" in text
    assert "dtoh" in text
    assert "runs:" in text
    top = flame_summary(obs.tracer, top=1)
    assert len(top.splitlines()) < len(text.splitlines())


# ---------------------------------------------------- equivalence under observation
def test_observation_does_not_perturb_results(small_er):
    for method in ("topo-base", "data-ldg", "csrcolor", "3step-gm"):
        plain = color_graph(small_er, method)
        traced = color_graph(small_er, method, observe="trace")
        recorded = color_graph(small_er, method, observe="rounds")
        assert np.array_equal(plain.colors, traced.colors)
        assert np.array_equal(plain.colors, recorded.colors)
        assert plain.iterations == traced.iterations == recorded.iterations
        assert plain.total_time_us == pytest.approx(traced.total_time_us)
        # observe=None attaches nothing
        assert "observation" not in plain.extra


# ------------------------------------------------------------ observe= resolution
def test_resolve_observe_forms():
    assert not resolve_observe(None).active
    tr = Tracer()
    assert resolve_observe(tr).tracer is tr
    rec = Recorder()
    assert resolve_observe(rec).recorder is rec
    obs = Observation(tracer=tr)
    assert resolve_observe(obs) is obs
    assert resolve_observe("trace").tracer is not None
    assert resolve_observe("profile").mode == "profile"
    assert resolve_observe("rounds").recorder is not None
    with pytest.raises(ValueError, match="unknown observe shorthand"):
        resolve_observe("spans")
    with pytest.raises(TypeError):
        resolve_observe(42)


def test_observe_recorder_collects_rounds(small_er):
    result = color_graph(small_er, "data-base", observe="rounds")
    rec = result.observation.recorder
    assert len(rec.rounds) == result.iterations
    assert rec.rounds[0].active == small_er.num_vertices


def test_observe_shared_tracer_across_calls(small_er):
    tracer = Tracer()
    color_graph(small_er, "topo-base", observe=tracer)
    color_graph(small_er, "data-ldg", observe=tracer)
    assert [r.counters["scheme"] for r in tracer.runs()] == [
        "topo-base", "data-ldg",
    ]


def test_observe_rejected_alongside_context(small_er):
    ctx = ExecutionContext()
    with pytest.raises(ValueError, match="observe"):
        color_graph(small_er, "data-ldg", context=ctx, observe="trace")


def test_observation_without_tracer_refuses_trace_views():
    obs = Observation(recorder=Recorder())
    with pytest.raises(ValueError, match="no tracer"):
        obs.chrome_trace()


# ------------------------------------------------- retired recorder= keyword
def test_recorder_keyword_removed(small_er):
    """recorder= is gone: every entry point rejects it as an unknown option."""
    rec = Recorder()
    with pytest.raises(TypeError):
        ExecutionContext(recorder=rec)
    with pytest.raises(TypeError):
        color_graph(small_er, "data-base", recorder=rec)
    from repro.engine import color_many

    with pytest.raises(TypeError):
        color_many([small_er], "data-base", recorder=rec)
    # The supported spelling still routes rounds into the recorder.
    result = color_graph(small_er, "data-base", observe=rec)
    assert result.observation.recorder is rec
    assert len(rec.rounds) == result.iterations


# ------------------------------------------------------------------- CLI
def test_cli_trace_subcommand(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    rc = main([
        "trace", "rmat-er", "data-ldg", "--scale-div", "256",
        "--out", str(out), "--jsonl", str(jsonl),
    ])
    assert rc == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["traceEvents"]
    assert any(e["cat"] == "kernel" for e in data["traceEvents"])
    assert jsonl.exists()
    captured = capsys.readouterr().out
    assert "flame summary" in captured
    assert "chrome://tracing" in captured


def test_cli_color_observe_flags(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.json"
    rc = main([
        "color", "--graph", "rmat-er", "--method", "data-ldg",
        "--scale-div", "256", "--trace-out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text(encoding="utf-8"))["traceEvents"]
    rc = main([
        "color", "--graph", "rmat-er", "--method", "data-base",
        "--scale-div", "256", "--observe", "rounds",
    ])
    assert rc == 0
    assert "per-round trace:" in capsys.readouterr().out


# ----------------------------------------------------------------- edge cases
def test_empty_graph_traces_cleanly():
    g = from_edges([], [], num_vertices=0, name="empty")
    result = color_graph(g, "data-ldg", observe="trace")
    run = result.observation.tracer.runs()[0]
    assert run.counters["iterations"] == 0
    assert result.num_kernel_launches == 0


def test_span_repr_and_find(traced_topo):
    _, obs = traced_topo
    run = obs.tracer.runs()[0]
    assert "run" in repr(run)
    assert all(isinstance(s, Span) for s in run.find("kernel"))
    dump = chrome_trace(obs.tracer)
    assert dump["otherData"]["source"].startswith("repro.obs")
