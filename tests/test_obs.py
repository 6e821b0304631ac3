"""Observability: span tracing, exporters, and the observe= surface."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.coloring.api import color_graph
from repro.engine import ExecutionContext
from repro.gpusim import KEPLER_K20C
from repro.graph.builder import from_edges
from repro.graph.generators import rmat_er
from repro.metrics.recorder import Recorder
from repro.obs import (
    Span,
    Tracer,
    chrome_trace,
    flame_summary,
    jsonl_events,
    resolve_observe,
    round_rows,
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
    result, tracer = traced_topo
    runs = tracer.runs()
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
    run = result.observation.runs()[0]
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
    tracer = result.observation
    kernels = tracer.spans("kernel")
    assert len(kernels) == result.num_kernel_launches
    assert all(k.counters["instructions"] > 0 for k in kernels)
    run = tracer.runs()[0]
    assert run.counters["backend"] == "cpusim"
    assert run.duration_us == pytest.approx(result.cpu_time_us)


def test_host_scheme_gets_synthetic_run_span(small_er):
    result = color_graph(small_er, "sequential", observe="trace")
    run = result.observation.runs()[0]
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
    _, tracer = traced_topo
    path = write_chrome_trace(tracer, tmp_path / "trace.json")
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
    _, tracer = traced_topo
    path = write_jsonl(tracer, tmp_path / "events.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(tracer)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["category"] in ("cache", "alloc", "htod", "run")
    assert all(p["duration_us"] >= 0 for p in parsed)
    assert list(jsonl_events(tracer))[0]["depth"] == 0


def test_flame_summary_attributes_leaf_time(traced_topo):
    _, tracer = traced_topo
    text = flame_summary(tracer)
    assert "topo-color" in text and "topo-conflict" in text
    assert "dtoh" in text
    assert "runs:" in text
    top = flame_summary(tracer, top=1)
    assert len(top.splitlines()) < len(text.splitlines())


# ---------------------------------------------------- equivalence under observation
def test_observation_does_not_perturb_results(small_er):
    for method in ("topo-base", "data-ldg", "csrcolor", "3step-gm"):
        plain = color_graph(small_er, method)
        traced = color_graph(small_er, method, observe="trace")
        assert np.array_equal(plain.colors, traced.colors)
        assert plain.iterations == traced.iterations
        assert plain.total_time_us == traced.total_time_us
        assert isinstance(traced.observation, Tracer)
        # observe=None attaches nothing
        assert "observation" not in plain.extra


# ------------------------------------------------------------ observe= resolution
def test_resolve_observe_forms():
    assert resolve_observe(None) is None
    tr = Tracer()
    assert resolve_observe(tr) is tr
    assert isinstance(resolve_observe("trace"), Tracer)
    assert resolve_observe("trace") is not resolve_observe("trace")
    for retired in ("profile", "rounds", "spans", 42, Recorder()):
        with pytest.raises(ValueError, match="None, 'trace' or a Tracer"):
            resolve_observe(retired)


def test_round_rows_read_from_round_spans(small_er):
    result = color_graph(small_er, "data-base", observe="trace")
    rows = round_rows(result.observation)
    assert [r["iteration"] for r in rows] == list(range(result.iterations))
    assert rows[0]["active"] == small_er.num_vertices
    assert rows[-1]["conflicts"] == 0
    [run] = result.observation.runs()
    assert round_rows(run) == rows  # a run subtree reads the same rows
    assert sum(r["time_us"] for r in rows) == pytest.approx(run.total("kernel_us"))


def test_csrcolor_tail_kernel_is_inside_last_round_span(small_er):
    """The fraction fast path's tail kernel belongs to the round that
    launched it, and the rows match the per-round records the engine
    produced before round spans replaced them."""
    result = color_graph(small_er, "csrcolor", fraction=0.5, observe="trace")
    rounds = result.observation.spans("round")
    assert [c.name for c in rounds[-1].children if c.category == "kernel"] == [
        "csrcolor-2", "csrcolor-tail-3",
    ]
    rows = [
        (r["iteration"], r["active"], r["conflicts"], r["time_us"])
        for r in round_rows(result.observation)
    ]
    assert rows == [
        (0, 256, 186, 28.198182247403214),
        (1, 186, 137, 23.093720491029273),
        (3, 137, 99, 20.205972615675165),
    ]
    assert result.iterations == 4


def test_unexecuted_round_yields_no_row():
    """3-step GM's early exit opens a round span that launches nothing;
    the engine does not count it, so it is not a row either."""
    g = from_edges([], [], num_vertices=0, name="empty")
    result = color_graph(g, "3step-gm", observe="trace")
    [span] = result.observation.spans("round")
    assert not span.children and "iteration" not in span.counters
    assert round_rows(result.observation) == []


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


def test_degradation_events_land_in_the_trace(small_er):
    plan = "seed=7; kernel-transient: kernel=data-color-0, max_fires=1"
    healed = color_graph(small_er, "data-ldg", observe="trace", faults=plan)
    names = [s.name for s in healed.observation.spans()]
    assert any(name.startswith("degrade:") for name in names)
    assert np.array_equal(healed.colors, color_graph(small_er, "data-ldg").colors)


# ------------------------------------------------- retired recorder= keyword
def test_recorder_keyword_removed(small_er):
    """recorder= is gone: every entry point rejects it as an unknown option,
    and a Recorder is not an observe= value either."""
    rec = Recorder()
    with pytest.raises(TypeError):
        ExecutionContext(recorder=rec)
    with pytest.raises(TypeError):
        color_graph(small_er, "data-base", recorder=rec)
    from repro.engine import color_many

    with pytest.raises(TypeError):
        color_many([small_er], "data-base", recorder=rec)
    with pytest.raises(ValueError, match="a Tracer"):
        color_graph(small_er, "data-base", observe=rec)


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
        "--scale-div", "256", "--observe", "trace",
    ])
    assert rc == 0
    out_text = capsys.readouterr().out
    # flame summary first, then the per-round table read from round spans
    assert 0 <= out_text.index("flame summary") < out_text.index("per-round trace:")
    for retired in ("rounds", "profile"):
        with pytest.raises(SystemExit):
            main(["color", "--graph", "rmat-er", "--observe", retired])


def test_cli_batch_observe_prints_the_trace(capsys):
    # Without --trace-out the batch trace is printed, not dropped: the
    # flame summary, then one per-round table with a row block per graph.
    from repro.cli import main

    rc = main([
        "batch", "--graphs", "rmat-er", "thermal2", "--method", "data-ldg",
        "--scale-div", "1024", "--observe", "trace",
    ])
    assert rc == 0
    out_text = capsys.readouterr().out
    assert 0 <= out_text.index("flame summary") < out_text.index("per-round trace:")
    table = out_text[out_text.index("per-round trace:"):].splitlines()
    assert table[1].split() == ["graph", "round", "active", "conflicts", "us"]
    graphs = [line.split()[0] for line in table[3:] if line.strip()]
    assert graphs[0] == "rmat-er" and graphs[-1] == "thermal2"
    assert set(graphs) == {"rmat-er", "thermal2"}


# ----------------------------------------------------------------- edge cases
def test_empty_graph_traces_cleanly():
    g = from_edges([], [], num_vertices=0, name="empty")
    result = color_graph(g, "data-ldg", observe="trace")
    run = result.observation.runs()[0]
    assert run.counters["iterations"] == 0
    assert result.num_kernel_launches == 0


def test_span_repr_and_find(traced_topo):
    _, tracer = traced_topo
    run = tracer.runs()[0]
    assert "run" in repr(run)
    assert all(isinstance(s, Span) for s in run.find("kernel"))
    dump = chrome_trace(tracer)
    assert dump["otherData"]["source"].startswith("repro.obs")


# ------------------------------------------------------------------- docs
def test_observability_doc_python_blocks_run(tmp_path, monkeypatch, capsys):
    """docs/OBSERVABILITY.md's python blocks run, in order, as one session."""
    doc = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
    blocks = re.findall(r"```python\n(.*?)```", doc.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(doc), "exec"), namespace)
    assert (tmp_path / "trace.json").exists() and (tmp_path / "events.jsonl").exists()
    assert "flame summary" in capsys.readouterr().out
