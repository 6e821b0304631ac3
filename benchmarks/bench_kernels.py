#!/usr/bin/env python
"""Kernel-layer wall-clock benchmark suite: C tier vs NumPy tier.

The simulated-time gate (``regression_gate.py``) pins what the *model*
reports; this suite tracks what the *host* pays to compute it.  Every
cell runs twice in the same process: on the C kernel tier (what every
run uses when a compiler builds it) and on the pure-NumPy fallback,
forced the way the tests force it.  Two kinds of cells:

* **micro** — the shared kernel primitives in isolation
  (``expand_segments``, ``min_excluded_colors``, ``speculative_color_step``,
  ``detect_conflicts``) over a real suite graph.
* **end-to-end** — ``color_graph`` wall-clock for the headline schemes
  over the R-MAT/mesh suite.

Profiles::

    python benchmarks/bench_kernels.py --quick         # CI scale (fast)
    python benchmarks/bench_kernels.py --full          # adds the 1M-vertex
                                                       # rmat-er end-to-end
    python benchmarks/bench_kernels.py --quick --check # gate vs committed
                                                       # record (2x default)
    python benchmarks/bench_kernels.py --quick --update current
                                                       # refresh the record

Results are stored in ``BENCH_kernels.json`` under a *record key* per
profile: ``pre_pr`` (the NumPy kernels before the bitmask-mex/expansion-plan
overhaul — measured once, never regenerated) and ``current`` (both
tiers, with the machine they were measured on).  ``--check`` compares
functional fields (simulated time, iterations, colors) exactly — across
the two tiers and against the record — and gates each cell's *speedup*
(NumPy wall / C wall, both from this run) against the record's speedup
divided by ``--threshold``.  A ratio measured in one run carries over
between machines; an absolute wall from another machine does not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.coloring.api import color_graph  # noqa: E402
from repro.coloring import kernels  # noqa: E402
from repro.compiledsim import runtime  # noqa: E402
from repro.graph.generators.suite import load_graph  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "BENCH_kernels.json"

#: (profile name) -> scale divisor for the suite graphs.
QUICK_SCALE_DIV = 64
FULL_SCALE_DIV = 1

#: End-to-end cells per profile: (graph, scheme) pairs.
QUICK_CELLS = (
    ("rmat-er", "data-ldg"),
    ("rmat-er", "topo-ldg"),
    ("rmat-g", "data-ldg"),
    ("thermal2", "data-ldg"),
    ("thermal2", "topo-ldg"),
)
#: The acceptance cells: the paper-scale (1,048,576-vertex) R-MAT graph.
FULL_CELLS = (
    ("rmat-er", "data-ldg"),
    ("rmat-er", "topo-ldg"),
)

#: Both tiers, C first.
TIERS = ("cc", "numpy")

#: Micro cells whose walls both stay under this are not ratio-gated:
#: tens-of-microseconds cells swing multiples of themselves with
#: page/cache state.
MICRO_NOISE_FLOOR_S = 2.5e-4
#: Micro cells with no C path: both tiers run the same NumPy code, so
#: their speedup is noise around 1 and is reported, not gated.
NO_C_PATH = ("expand_segments/full", "expand_segments/half")

FUNCTIONAL = ("sim_us", "iterations", "num_colors")


@contextmanager
def forced_tier(tier: str):
    """Run the block on ``tier``; ``"numpy"`` forces the fallback the
    same way the test suite's ``numpy_tier`` fixture does."""
    if tier == "numpy":
        with runtime._forced_numpy_tier():
            yield
        return
    if runtime.get_kernels()[0] != "cc":
        raise RuntimeError("no C tier on this host")
    yield


def available_tiers() -> tuple[str, ...]:
    return TIERS if runtime.get_kernels()[0] == "cc" else ("numpy",)


def machine() -> dict:
    """The host a record was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    cc = shutil.which(os.environ.get("CC", "cc"))
    compiler = None
    if cc:
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True)
        compiler = (proc.stdout.splitlines() or [None])[0]
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "os": platform.system(),
        "python": platform.python_version(), "numpy": np.__version__,
        "compiler": compiler,
    }


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_micro(scale_div: int, repeat: int) -> dict:
    """Micro benchmarks over one real suite graph (wall seconds, best-of)."""
    graph = load_graph("rmat-er", scale_div=scale_div)
    n = graph.num_vertices
    all_ids = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(11)
    colors_small = rng.integers(0, 24, size=n).astype(np.int32)
    colors_wide = rng.integers(0, 200, size=n).astype(np.int32)
    seg, _, edge_idx = kernels.expand_segments(graph, all_ids)
    nbr_small = colors_small[graph.col_indices[edge_idx]]
    nbr_wide = colors_wide[graph.col_indices[edge_idx]]
    zeros = np.zeros(n, dtype=np.int32)

    out = {}
    out["expand_segments/full"] = _best_of(
        lambda: kernels.expand_segments(graph, all_ids), repeat
    )
    half = all_ids[: n // 2]
    out["expand_segments/half"] = _best_of(
        lambda: kernels.expand_segments(graph, half), repeat
    )
    out["mex/24colors"] = _best_of(
        lambda: kernels.min_excluded_colors(
            seg, nbr_small, n, assume_sorted=True
        ), repeat
    )
    out["mex/200colors"] = _best_of(
        lambda: kernels.min_excluded_colors(
            seg, nbr_wide, n, assume_sorted=True
        ), repeat
    )
    out["color_step/full"] = _best_of(
        lambda: kernels.speculative_color_step(graph, zeros, all_ids), repeat
    )
    out["detect_conflicts/full"] = _best_of(
        lambda: kernels.detect_conflicts(graph, colors_small, all_ids), repeat
    )
    return {k: round(v, 6) for k, v in out.items()}


def run_end_to_end(cells, scale_div: int, repeat: int, backend=None) -> dict:
    """Wall-clock ``color_graph`` runs plus their functional fingerprints."""
    out = {}
    graphs: dict[str, object] = {}
    for graph_name, scheme in cells:
        graph = graphs.setdefault(
            graph_name, load_graph(graph_name, scale_div=scale_div)
        )
        best = float("inf")
        result = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = color_graph(
                graph, method=scheme, validate=False, backend=backend
            )
            best = min(best, time.perf_counter() - t0)
        out[f"{graph_name}/{scheme}"] = {
            "wall_s": round(best, 4),
            "sim_us": round(result.total_time_us, 4),
            "iterations": result.iterations,
            "num_colors": result.num_colors,
        }
    return out


def run_profile(profile: str, repeat: int, backend=None) -> dict:
    """Every cell of ``profile`` on each available tier, in this process.

    Returns ``{"scale_div", "machine", "micro": {key: {tier: wall,
    "speedup"}}, "end_to_end": {key: {tier: wall, "speedup",
    *functional}}}``, where ``speedup`` is NumPy wall / C wall.
    Raises if the two tiers disagree on any functional field — the
    byte-identity contract.
    """
    if profile == "quick":
        micro_div, e2e_div, cells, e2e_repeat = (
            QUICK_SCALE_DIV, QUICK_SCALE_DIV, QUICK_CELLS, repeat
        )
    else:
        micro_div, e2e_div, cells, e2e_repeat = 16, FULL_SCALE_DIV, FULL_CELLS, 1
    runs = {}
    for tier in available_tiers():
        with forced_tier(tier):
            runs[tier] = (
                run_micro(micro_div, repeat),
                run_end_to_end(cells, e2e_div, e2e_repeat, backend),
            )
    out = {"scale_div": e2e_div, "machine": machine(), "micro": {},
           "end_to_end": {}}
    for tier, (micro, e2e) in runs.items():
        for key, wall in micro.items():
            out["micro"].setdefault(key, {})[tier] = wall
        for key, val in e2e.items():
            row = out["end_to_end"].setdefault(
                key, {f: val[f] for f in FUNCTIONAL}
            )
            drift = [f for f in FUNCTIONAL if row[f] != val[f]]
            if drift:
                raise AssertionError(
                    f"{key}: tiers disagree on {drift} — byte-identity "
                    f"contract broken"
                )
            row[tier] = val["wall_s"]
    if len(runs) == len(TIERS):
        for table in (out["micro"], out["end_to_end"]):
            for row in table.values():
                row["speedup"] = round(row["numpy"] / max(row["cc"], 1e-9), 3)
    if backend is not None:
        out["backend"] = backend
    return out


def load_baseline() -> dict:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return {"meta": {}}


def _record_speedup(record: dict, kind: str, key: str) -> float | None:
    """The record's speedup for one cell (records without tiers have none)."""
    entry = record.get(kind, {}).get(key)
    return entry.get("speedup") if isinstance(entry, dict) else None


def print_results(profile: str, results: dict, baseline: dict) -> None:
    record = baseline.get(profile, {}).get("current", {})
    pre_pr = baseline.get(profile, {}).get("pre_pr", {})
    for kind in ("micro", "end_to_end"):
        print(f"[{profile}/{kind}]   C tier      NumPy tier   speedup "
              f"(record)")
        for key, row in results[kind].items():
            line = f"  {key:<24}"
            for tier in TIERS:
                line += (f" {row[tier] * 1e3:>9.2f} ms" if tier in row
                         else f" {'-':>12}")
            ref = _record_speedup(record, kind, key)
            if "speedup" in row:
                line += f"   {row['speedup']:5.2f}x"
                line += f" ({ref:5.2f}x)" if ref is not None else ""
            old = pre_pr.get(kind, {}).get(key)
            old = old.get("wall_s") if isinstance(old, dict) else old
            best = row.get("cc", row.get("numpy"))
            if old is not None and best:
                line += f"   {old / best:5.2f}x vs pre_pr"
            print(line)


def check(profile: str, results: dict, baseline: dict, threshold: float) -> int:
    """Gate the run against the committed ``current`` record.

    Functional fields must equal the record exactly.  Each cell's
    speedup must reach the record's speedup divided by ``threshold``.
    """
    record = baseline.get(profile, {}).get("current")
    if record is None:
        print(f"no committed '{profile}/current' record; run --update current")
        return 1
    failures = []
    for key, row in results["end_to_end"].items():
        ref = record["end_to_end"].get(key)
        if ref is None:
            failures.append(f"{key}: no record entry")
            continue
        for exact in FUNCTIONAL:
            if row[exact] != ref[exact]:
                failures.append(
                    f"{key}: {exact} {ref[exact]} -> {row[exact]} (functional drift)"
                )
    for kind in ("micro", "end_to_end"):
        for key, row in results[kind].items():
            ref = _record_speedup(record, kind, key)
            if ref is None or "speedup" not in row:
                continue
            if kind == "micro" and (
                key in NO_C_PATH
                or max(row["cc"], row["numpy"]) < MICRO_NOISE_FLOOR_S
            ):
                continue
            if row["speedup"] < ref / threshold:
                failures.append(
                    f"{kind} {key}: C-tier speedup {ref:.2f}x -> "
                    f"{row['speedup']:.2f}x (< record / {threshold:.1f})"
                )
    if failures:
        print(f"kernel benchmark gate FAILED ({len(failures)}):")
        for f in failures:
            print(f"  {f}")
        return 1
    cells = len(results["end_to_end"])
    gated = "" if "speedup" in next(iter(results["end_to_end"].values()), {}) \
        else " (no C tier on this host: speedups not gated)"
    print(
        f"kernel benchmark gate passed: {cells} cells functionally exact, "
        f"speedups within {threshold:.1f}x of the record{gated}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI profile: small graphs, fast")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale profile (1M-vertex rmat-er)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of repetitions (default 3)")
    parser.add_argument("--update", metavar="KEY",
                        help="store results under this record key "
                             "(e.g. 'current')")
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed 'current' record")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="allowed speedup shortfall vs the record "
                             "(default 2.0)")
    parser.add_argument("--backend", default=None,
                        choices=("gpusim", "cpusim"),
                        help="run the end-to-end cells on this backend "
                             "(default: the library default)")
    parser.add_argument("--out", type=Path,
                        help="also write this run's results to a JSON file")
    args = parser.parse_args(argv)
    profile = "full" if args.full else "quick"

    results = run_profile(profile, args.repeat, backend=args.backend)
    baseline = load_baseline()
    print_results(profile, results, baseline)

    if args.out:
        args.out.write_text(
            json.dumps({profile: results}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote results -> {args.out}")

    if args.update:
        baseline["meta"] = {
            "note": (
                "wall-clock records; 'pre_pr' is the NumPy kernel layer "
                "before the bitmask-mex/expansion-plan overhaul (historical, "
                "do not regenerate); 'current' holds both tiers' walls "
                "measured in one run, their speedup (NumPy / C) and the "
                "machine it ran on. --check gates the speedups, not the "
                "walls."
            ),
        }
        baseline.setdefault(profile, {})[args.update] = results
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"recorded '{profile}/{args.update}' -> {BASELINE_PATH}")

    if args.check:
        return check(profile, results, baseline, args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
