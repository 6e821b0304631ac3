"""Shared kernel machinery for the GPU coloring schemes.

Two halves:

* **Functional** — vectorized NumPy implementations of the two
  bulk-synchronous steps every speculative-greedy variant runs:
  :func:`speculative_color_step` (Alg. 4/5 lines 4-10: each active vertex
  takes the smallest color not used by any neighbor, reading the *round
  snapshot* of the color array) and :func:`detect_conflicts`
  (lines 12-18: un-color / re-enqueue the smaller endpoint of every
  monochromatic edge).
* **Trace charging** — :func:`charge_color_kernel` /
  :func:`charge_conflict_kernel` record what the SIMT hardware does for
  those steps: the ``R``/``C``/``color`` load streams (with or without
  ``__ldg``), the per-edge loop instructions, and the result stores.

Snapshot semantics note: real CUDA execution interleaves reads and writes
within a kernel, so some conflicts the snapshot model predicts are resolved
"for free" on hardware.  Snapshot is the worst case and the standard BSP
reading of the pseudocode; iteration counts are within one round of
hardware behavior either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiledsim import dispatch as _compiled
from ..faults.runtime import note_degradation
from ..gpusim.device import DeviceArray
from ..gpusim.trace import TraceBuilder
from ..graph.csr import CSRGraph
from .base import COLOR_DTYPE

__all__ = [
    "GraphBuffers",
    "upload_graph",
    "ExpansionPlan",
    "get_expansion_plan",
    "Expansion",
    "KernelScratch",
    "expand_segments",
    "min_excluded_colors",
    "speculative_color_step",
    "speculative_color_waved",
    "resident_thread_capacity",
    "detect_conflicts",
    "charge_color_kernel",
    "charge_conflict_kernel",
    "charge_color_kernel_lb",
    "warp_lb_layout",
    "WarpLBLayout",
    "race_window_threads",
]


def resident_thread_capacity(device, launch) -> int:
    """Concurrent-thread capacity of the device for one launch config
    (SMs x occupancy-limited resident blocks x block size)."""
    from ..gpusim.occupancy import compute_occupancy

    occ = compute_occupancy(device.config, launch)
    return device.config.num_sms * occ.blocks_per_sm * launch.block_size


def race_window_threads(device, launch) -> int:
    """How many threads truly race (read each other's stale state).

    Races are modeled at *warp* granularity: a warp's 32 lanes execute in
    SIMT lockstep, so every lane's neighbor-color gather completes before
    any lane's color store — two adjacent vertices in one warp always read
    each other's stale state.  Threads in different warps (even of the
    same block) are skewed by scheduling quanta and divergent memory
    stalls measured in hundreds of cycles, so cross-warp read-write
    overlap is rare.  Warp granularity reproduces the observed behavior of
    speculative GPU coloring: conflicts are rare on randomly-ordered
    graphs but substantial on meshes whose natural vertex order places
    path neighbors in the same warp — the regime where the paper's own
    Fig. 7 shows topology-driven losing to the worklist-based scheme.
    """
    return device.config.warp_size

# Dynamic-instruction estimates (per the CUDA kernels these model):
# neighbor-loop body = index arithmetic + two loads' address math + mask
# stamp; vertex overhead = bounds loads, mask scan, color store, flags.
_INSTR_PER_EDGE = 6
_INSTR_PER_VERTEX = 14
_INSTR_IDLE_THREAD = 3  # colored check + exit


@dataclass(frozen=True)
class GraphBuffers:
    """Device-resident CSR arrays plus the color/state arrays."""

    R: DeviceArray
    C: DeviceArray
    colors: DeviceArray
    aux: DeviceArray  # colored flags (topo) or worklist shadow (data-driven)


def upload_graph(device, graph: CSRGraph, *, charge_transfer: bool = False) -> GraphBuffers:
    """Place the CSR arrays and color state on the device.

    The initial upload is excluded from timing by default, matching the
    paper ("the I/O part is excluded from the evaluation"); 3-step GM's
    *intermediate* transfers are charged explicitly by that scheme.
    """
    if charge_transfer:
        R = device.upload(graph.row_offsets.astype(np.int32), name="R")
        C = device.upload(graph.col_indices, name="C")
    else:
        R = device.register(graph.row_offsets.astype(np.int32), name="R")
        C = device.register(graph.col_indices, name="C")
    colors = device.alloc(graph.num_vertices, COLOR_DTYPE, name="colors", fill=0)
    aux = device.alloc(graph.num_vertices, np.int8, name="aux", fill=0)
    return GraphBuffers(R=R, C=C, colors=colors, aux=aux)


#: Process-wide read-only ``arange``: the plans' identity streams are
#: prefix views of it instead of per-graph copies of ``0..m-1``.
_IOTA = np.arange(0, dtype=np.int64)
_IOTA.setflags(write=False)


def _iota(size: int) -> np.ndarray:
    """Read-only ``arange(size)``, a view of :data:`_IOTA` when that fits.

    The shared array grows to the largest request; a view is only handed
    out while the array is at most twice ``size``, so a small graph's
    plan never pins a much larger array after its graph is gone.
    """
    global _IOTA
    base = _IOTA
    if base.size < size or base.size > 2 * size:
        base = np.arange(size, dtype=np.int64)
        base.setflags(write=False)
        if size > _IOTA.size:
            _IOTA = base
    return base[:size]


class ExpansionPlan:
    """Per-graph full-adjacency expansion, computed once and reused.

    The three full-graph streams every kernel round used to rebuild with a
    ``repeat``/``cumsum`` pass — ``seg`` (edge -> owner position), ``step``
    (trip index within the owner's neighbor loop) and ``edge_idx``
    (identity, since the full expansion enumerates ``C`` in order) — are
    materialized once per graph and frozen (``edge_idx`` and ``all_ids``
    as views of one shared ``arange``).  Round/wave slices are then
    derived by gather instead of re-expansion.  Memoized on the graph via
    :func:`get_expansion_plan` (the CSR arrays are immutable, so the plan
    cannot go stale).
    """

    __slots__ = ("seg", "step", "edge_idx", "all_ids", "starts", "lens", "_nbr64")

    def __init__(self, graph: CSRGraph):
        n = graph.num_vertices
        m = graph.num_edges
        lens = np.diff(graph.row_offsets)
        starts = graph.row_offsets[:-1].astype(np.int64)
        edge_idx = _iota(m)
        all_ids = _iota(n)
        seg = np.repeat(all_ids, lens)
        step = edge_idx - starts[seg] if m else edge_idx
        for arr in (seg, step, starts, lens):
            arr.setflags(write=False)
        self.seg = seg
        self.step = step
        self.edge_idx = edge_idx
        self.all_ids = all_ids
        self.starts = starts
        self.lens = lens  # int64 (np.diff of the int64 offsets)
        self._nbr64 = None

    def nbr64(self, graph: CSRGraph) -> np.ndarray:
        """``col_indices`` widened to int64, cached (conflict-scope gathers)."""
        if self._nbr64 is None:
            w = graph.col_indices.astype(np.int64)
            w.setflags(write=False)
            self._nbr64 = w
        return self._nbr64


def get_expansion_plan(graph: CSRGraph) -> ExpansionPlan:
    """The memoized :class:`ExpansionPlan` for ``graph``."""
    plan = graph.__dict__.get("_expansion_plan")
    if plan is None:
        plan = ExpansionPlan(graph)
        object.__setattr__(graph, "_expansion_plan", plan)
    return plan


def expand_segments(graph: CSRGraph, vertex_ids: np.ndarray):
    """Flatten the adjacency lists of ``vertex_ids``.

    Returns ``(seg, step, edge_idx)``: for every adjacency entry of every
    listed vertex, the position of its owner within ``vertex_ids``, its
    trip index inside the owner's neighbor loop, and its index into ``C``.
    All downstream gather streams derive from these three arrays.

    The full-range call (``vertex_ids == arange(n)``) returns the graph's
    cached :class:`ExpansionPlan` streams (read-only, zero copies); subset
    calls gather from the plan's offsets with a single ``repeat``.
    """
    vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
    plan = get_expansion_plan(graph)
    if vertex_ids.size == plan.all_ids.size and np.array_equal(
        vertex_ids, plan.all_ids
    ):
        return plan.seg, plan.step, plan.edge_idx
    lens = plan.lens[vertex_ids]
    total = int(lens.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    seg = np.repeat(np.arange(vertex_ids.size, dtype=np.int64), lens)
    bnd = np.cumsum(lens) - lens
    step = np.arange(total, dtype=np.int64) - bnd[seg]
    edge_idx = plan.starts[vertex_ids][seg] + step
    return seg, step, edge_idx


class Expansion:
    """One round's adjacency expansion, shared across kernel calls.

    Schemes build this once per round for the active/scope vertex set and
    hand it to the color step, the conflict detector and the charge
    kernels — which used to re-expand the same ids up to four times per
    round.  Neighbor-id gathers are cached lazily in both widths (the
    charge kernels index device addresses with the packed int32 view; the
    conflict kernel compares int64 endpoints).
    """

    __slots__ = ("ids", "seg", "step", "edge_idx", "lens", "memo",
                 "_full", "_nbr32", "_nbr64")

    def __init__(self, graph: CSRGraph, ids: np.ndarray):
        #: Identity-keyed cache shared by every kernel charged against this
        #: expansion (derived gather/address arrays, coalesced transaction
        #: streams — see ``TraceBuilder.access``).  Entries hold references
        #: to their keyed arrays, so the ids cannot be recycled while the
        #: expansion lives.
        self.memo: dict = {}
        self.ids = np.asarray(ids, dtype=np.int64)
        plan = get_expansion_plan(graph)
        self._full = self.ids.size == plan.all_ids.size and np.array_equal(
            self.ids, plan.all_ids
        )
        if self._full:
            self.seg, self.step, self.edge_idx = plan.seg, plan.step, plan.edge_idx
            self.lens = plan.lens
            self._nbr32 = graph.col_indices
            self._nbr64 = None  # filled from the plan cache on demand
        else:
            self.seg, self.step, self.edge_idx = expand_segments(graph, self.ids)
            self.lens = plan.lens[self.ids]
            self._nbr32 = None
            self._nbr64 = None

    def nbr32(self, graph: CSRGraph) -> np.ndarray:
        """``C[edge_idx]`` in storage width (int32)."""
        if self._nbr32 is None:
            self._nbr32 = graph.col_indices[self.edge_idx]
        return self._nbr32

    def nbr64(self, graph: CSRGraph) -> np.ndarray:
        """``C[edge_idx]`` widened to int64."""
        if self._nbr64 is None:
            if self._full:
                self._nbr64 = get_expansion_plan(graph).nbr64(graph)
            else:
                self._nbr64 = self.nbr32(graph).astype(np.int64)
        return self._nbr64


class KernelScratch:
    """Grow-only scratch arena for round-scoped kernel temporaries.

    ``RoundLoop`` attaches one per run; the waved color step carves its
    per-wave temporaries out of it instead of reallocating every wave of
    every round.  Buffers only ever grow, so a request is O(1) after the
    first round reaches steady-state sizes.
    """

    __slots__ = ("_arena",)

    def __init__(self):
        self._arena: dict[str, np.ndarray] = {}

    def buf(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """An uninitialized length-``size`` view of the named buffer."""
        arr = self._arena.get(name)
        if arr is None or arr.size < size or arr.dtype != np.dtype(dtype):
            arr = np.empty(size, dtype=dtype)
            self._arena[name] = arr
        return arr[:size]


# ----------------------------------------------------------------------
# Minimum-excluded-color (mex) kernels
# ----------------------------------------------------------------------
#: Default word budget for the bitmask mex: segments whose neighbor colors
#: span more than ``64 * words`` distinct values fall back to the sort path
#: (the per-word OR sweep would cost more than one O(E log E) sort).
DEFAULT_MEX_WORDS = 8


def _mex_sort(
    seg_ids: np.ndarray, nbr_colors: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sort-based exact mex (unbounded color range, any segment order).

    After per-segment dedup and sort, an entry with color ``rank+1`` proves
    colors ``1..rank+1`` are all present (the entries below it are distinct
    positive integers smaller than it), so ``mex = (length of the
    consecutive prefix) + 1`` — one bincount.
    """
    mask = nbr_colors > 0
    s = seg_ids[mask]
    c = nbr_colors[mask].astype(np.int64)
    if s.size == 0:
        return np.ones(num_segments, dtype=COLOR_DTYPE)
    base = int(c.max()) + 2
    key = np.unique(s * base + c)
    s2 = key // base
    c2 = key % base
    seg_start = np.searchsorted(s2, np.arange(num_segments, dtype=np.int64))
    rank = np.arange(key.size, dtype=np.int64) - seg_start[s2]
    ok = c2 == rank + 1
    prefix = np.bincount(s2[ok], minlength=num_segments)
    return (prefix + 1).astype(COLOR_DTYPE)


#: Precomputed single-bit words: ``_BIT64[b] == 1 << b`` (avoids a per-call
#: astype + broadcast shift in the mex hot loop).
_BIT64 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _mex_bitmask(
    seg_ids: np.ndarray,
    nbr_colors: np.ndarray,
    num_segments: int,
    max_words: int,
    *,
    assume_sorted: bool = False,
) -> np.ndarray:
    """Bitmask exact mex: OR packed forbidden-color words per CSR segment.

    Colors ``1..64w`` map to bits of ``w`` uint64 words; one
    ``np.bitwise_or.reduceat`` sweep per word folds each segment's
    forbidden set, and the answer is the lowest zero bit (extracted exactly
    with the two's-complement trick + ``frexp``).  Requires sorted
    ``seg_ids`` (runtime-checked unless the caller vouches with
    ``assume_sorted``) and a bounded color range — otherwise defers to
    :func:`_mex_sort`.
    """
    mask = nbr_colors > 0
    s = seg_ids[mask]
    if s.size == 0:
        return np.ones(num_segments, dtype=COLOR_DTYPE)
    c = nbr_colors[mask]  # any integer dtype; values bound the word count
    num_words = (int(c.max()) + 63) >> 6
    if num_words > max_words:
        # Wide palettes pay per-word sweeps; defer to the sort path.  This
        # is the mex degradation chain — byte-identical results, recorded
        # when a robustness bundle is active (overflow only: the unsorted-
        # stream fallback below is a routing decision, not a degradation).
        note_degradation(
            "mex", "bitmask", "sort", "word-budget-overflow",
            f"num_words={num_words} > max_words={max_words}",
        )
        return _mex_sort(seg_ids, nbr_colors, num_segments)
    if not assume_sorted and np.any(s[1:] < s[:-1]):
        # Unsorted segments (distance-2's concatenated two-hop stream)
        # would break reduceat runs.
        return _mex_sort(seg_ids, nbr_colors, num_segments)
    bit = c - 1
    word = bit >> 6
    bits = _BIT64[bit & 63]
    heads = np.empty(s.size, dtype=bool)
    heads[0] = True
    np.not_equal(s[1:], s[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    run_seg = s[starts]
    full = np.int64(num_words) * 64 + 1  # every tracked color present
    res = np.full(run_seg.size, full, dtype=np.int64)
    done = np.zeros(run_seg.size, dtype=bool)
    one = np.uint64(1)
    for wi in range(num_words):
        contrib = np.where(word == wi, bits, np.uint64(0))
        inv = ~np.bitwise_or.reduceat(contrib, starts)
        hit = (inv != 0) & ~done
        if hit.any():
            lsb = inv[hit]
            lsb &= ~lsb + one
            # frexp is exact on powers of two: lsb == 0.5 * 2**exp.
            _, exp = np.frexp(lsb.astype(np.float64))
            res[hit] = wi * 64 + exp  # == wi*64 + bit_index + 1
            done |= hit
            if done.all():
                break
    out = np.ones(num_segments, dtype=COLOR_DTYPE)
    out[run_seg] = res  # values are <= 64*max_words + 1: int32-safe
    return out


def min_excluded_colors(
    seg_ids: np.ndarray,
    nbr_colors: np.ndarray,
    num_segments: int,
    *,
    assume_sorted: bool = False,
) -> np.ndarray:
    """Smallest positive color absent from each segment's neighbor colors.

    Runs the bitmask kernel, which packs forbidden colors into uint64
    words and ORs them per segment; palettes wider than
    :data:`DEFAULT_MEX_WORDS` words and unsorted segment streams take the
    exact sort formulation instead.  ``assume_sorted`` lets callers whose
    ``seg_ids`` are sorted by construction (CSR expansions) skip the
    bitmask path's runtime check — it matters in the wave loop, which
    calls this once per 32-thread wave.  On the C tier, sorted streams
    take one exact stamp pass instead, with no word budget.
    """
    if num_segments == 0:
        return np.zeros(0, dtype=COLOR_DTYPE)
    if assume_sorted:
        # C tier: one stamp-array pass, exact for any color range (no
        # word-budget overflow, hence no mex degradation chain).
        # Declines (None) on the NumPy tier or a dtype mismatch.
        compiled = _compiled.mex_sorted(seg_ids, nbr_colors, num_segments)
        if compiled is not None:
            return compiled
    return _mex_bitmask(
        seg_ids, nbr_colors, num_segments, DEFAULT_MEX_WORDS,
        assume_sorted=assume_sorted,
    )


def speculative_color_step(
    graph: CSRGraph,
    colors: np.ndarray,
    active_ids: np.ndarray,
    expansion: Expansion | None = None,
) -> np.ndarray:
    """One parallel coloring round: colors for ``active_ids`` (snapshot read).

    Returns the new color per active vertex; the caller commits them after
    (conceptually) the kernel-wide write, i.e. ``colors`` is not mutated.
    This is the worst-case full-snapshot semantics; the schemes use
    :func:`speculative_color_waved`, which models wave-granular visibility.
    """
    active_ids = np.asarray(active_ids, dtype=np.int64)
    if expansion is None:
        expansion = Expansion(graph, active_ids)
    nbr_colors = colors[expansion.nbr32(graph)]
    return min_excluded_colors(
        expansion.seg, nbr_colors, active_ids.size, assume_sorted=True
    )


def speculative_color_waved(
    graph: CSRGraph,
    colors: np.ndarray,
    active_ids: np.ndarray,
    resident_threads: int,
    thread_ids: np.ndarray | None = None,
    *,
    expansion: Expansion | None = None,
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """Coloring round with wave-granular write visibility.

    A kernel's blocks execute in occupancy-sized *waves*: a wave's threads
    race with each other (they read the wave-entry snapshot), but a later
    wave sees everything earlier waves committed.  Full-snapshot semantics
    would predict far more conflicts than hardware exhibits — two vertices
    can only race if their kernel executions actually overlap in time.

    ``resident_threads`` is the device's concurrent-thread capacity for
    this launch (SMs x resident blocks x block size).  ``thread_ids`` maps
    each active vertex to its grid thread (defaults to its position, the
    data-driven compact mapping; topology-driven passes the vertex ids so
    waves cover thread *ranges* including idle lanes).  Mutates ``colors``
    for the processed vertices and returns their new values.

    The round's adjacency is expanded **once** (or taken from the caller's
    shared ``expansion``); each wave slices it — the neighbor-color gather
    alone is refreshed per wave, because earlier waves mutate ``colors``.
    """
    active_ids = np.asarray(active_ids, dtype=np.int64)
    if resident_threads < 1:
        raise ValueError("resident_threads must be positive")
    if thread_ids is None:
        num_waves = -(-active_ids.size // resident_threads) if active_ids.size else 0
        bounds = np.minimum(
            np.arange(num_waves + 1, dtype=np.int64) * resident_threads,
            active_ids.size,
        )
    else:
        thread_ids = np.asarray(thread_ids, dtype=np.int64)
        if thread_ids.size and np.any(thread_ids[1:] < thread_ids[:-1]):
            raise ValueError("thread_ids must be sorted")
        last_wave = int(thread_ids[-1]) // resident_threads if thread_ids.size else 0
        edges = np.arange(1, last_wave + 1, dtype=np.int64) * resident_threads
        bounds = np.concatenate(
            [
                np.zeros(1, dtype=np.int64),
                np.searchsorted(thread_ids, edges),
                np.asarray([active_ids.size], dtype=np.int64),
            ]
        )
    if expansion is None:
        expansion = Expansion(graph, active_ids)
    if scratch is None:
        scratch = KernelScratch()
    seg = expansion.seg
    nbr = expansion.nbr32(graph)
    epos = np.searchsorted(seg, bounds)
    if _compiled.active():
        # Fused wave loop: same two-phase (snapshot reads, then commit)
        # visibility per wave, one compiled pass for the whole round.
        fused = _compiled.waved_color(
            active_ids, seg, nbr, colors, bounds, epos
        )
        if fused is not None:
            return fused
    out = np.empty(active_ids.size, dtype=COLOR_DTYPE)
    for i in range(bounds.size - 1):
        lo = int(bounds[i])
        hi = int(bounds[i + 1])
        if hi <= lo:
            continue
        elo = int(epos[i])
        ehi = int(epos[i + 1])
        seg_w = np.subtract(
            seg[elo:ehi], lo, out=scratch.buf("waved.seg", ehi - elo)
        )
        # Fresh gather each wave: earlier waves committed into ``colors``.
        nbr_colors = np.take(
            colors, nbr[elo:ehi],
            out=scratch.buf("waved.nbr_colors", ehi - elo, colors.dtype),
        )
        # seg_w is a shifted slice of the (sorted) expansion segments.
        fresh = min_excluded_colors(seg_w, nbr_colors, hi - lo, assume_sorted=True)
        colors[active_ids[lo:hi]] = fresh
        out[lo:hi] = fresh
    return out


def detect_conflicts(
    graph: CSRGraph,
    colors: np.ndarray,
    scope_ids: np.ndarray,
    expansion: Expansion | None = None,
) -> np.ndarray:
    """Vertices in ``scope_ids`` that lose a color conflict.

    Implements the pseudocode's tie-break: of a monochromatic edge
    ``(v, w)``, the *smaller id* is un-colored (``v < w`` keeps ``w``).
    Returns the conflicted subset of ``scope_ids`` (original ids).
    """
    scope_ids = np.asarray(scope_ids, dtype=np.int64)
    if expansion is None:
        expansion = Expansion(graph, scope_ids)
    seg = expansion.seg
    if expansion.edge_idx.size == 0:
        return np.empty(0, dtype=np.int64)
    if _compiled.active():
        loser8 = _compiled.detect_conflicts(
            seg, expansion.nbr32(graph), colors,
            None if expansion._full else scope_ids, scope_ids.size,
        )
        if loser8 is not None:
            return scope_ids[loser8.view(bool)]
    v = seg if expansion._full else scope_ids[seg]
    w = expansion.nbr64(graph)
    clash = (colors[v] == colors[w]) & (colors[v] > 0) & (v < w)
    loser = np.zeros(scope_ids.size, dtype=bool)
    loser[seg[clash]] = True
    return scope_ids[loser]


# ----------------------------------------------------------------------
# Trace charging
# ----------------------------------------------------------------------
def _memoized(memo: dict, key: tuple, refs: tuple, make):
    """Fetch/compute a memo entry; ``refs`` are held so id-keys stay sound."""
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    value = make()
    memo[key] = (refs, value)
    return value


def _charge_addrs(memo: dict, bufs: GraphBuffers, graph, expansion, ids, threads):
    """The five address/gather arrays both charge kernels replay.

    Memoized on the expansion so the color and conflict kernels (and, when
    the expansion outlives a round, later rounds) hand ``TraceBuilder``
    the *same array objects* — which is what lets the builder's
    coalescing memo recognize the repeated streams.
    """
    nbr = expansion.nbr32(graph)
    edge_idx = expansion.edge_idx
    t_of_edge = _memoized(
        memo, ("t_edge", id(threads)), (threads,), lambda: threads[expansion.seg]
    )
    r_lo = _memoized(
        memo, ("addr", bufs.R.base, id(ids)), (ids,), lambda: bufs.R.addr(ids)
    )
    r_hi = _memoized(
        memo, ("addr+1", bufs.R.base, id(ids)), (ids,), lambda: bufs.R.addr(ids + 1)
    )
    c_addr = _memoized(
        memo, ("addr", bufs.C.base, id(edge_idx)), (edge_idx,),
        lambda: bufs.C.addr(edge_idx),
    )
    ncol_addr = _memoized(
        memo, ("addr", bufs.colors.base, id(nbr)), (nbr,),
        lambda: bufs.colors.addr(nbr),
    )
    own_addr = _memoized(
        memo, ("addr", bufs.colors.base, id(ids)), (ids,),
        lambda: bufs.colors.addr(ids),
    )
    return t_of_edge, r_lo, r_hi, c_addr, ncol_addr, own_addr


def charge_color_kernel(
    builder: TraceBuilder,
    graph: CSRGraph,
    bufs: GraphBuffers,
    active_ids: np.ndarray,
    thread_ids: np.ndarray,
    *,
    use_ldg: bool,
    idle_threads: int = 0,
    expansion: Expansion | None = None,
) -> None:
    """Record the memory/instruction behavior of one coloring kernel.

    ``active_ids``/``thread_ids`` are parallel: the vertex each working
    thread owns.  Topology-driven passes ``thread_ids == active_ids`` (one
    thread per vertex, most idle); data-driven passes compact thread ids.
    """
    active_ids = np.asarray(active_ids, dtype=np.int64)
    thread_ids = np.asarray(thread_ids, dtype=np.int64)
    if expansion is None:
        expansion = Expansion(graph, active_ids)
    step = expansion.step
    memo = expansion.memo
    t_of_edge, r_lo, r_hi, c_addr, ncol_addr, own_addr = _charge_addrs(
        memo, bufs, graph, expansion, active_ids, thread_ids
    )

    # Row bounds: R[v] and R[v+1] — one coalesced-ish load pair per thread.
    builder.load(thread_ids, r_lo, ldg=use_ldg, memo=memo)
    builder.load(thread_ids, r_hi, ldg=use_ldg, memo=memo)
    # Neighbor loop: C[e] then color[C[e]], one trip per edge.
    builder.load(t_of_edge, c_addr, ldg=use_ldg, step=step, memo=memo)
    builder.load(
        t_of_edge,
        ncol_addr,
        ldg=False,  # the color array mutates during the algorithm: no __ldg
        step=step,
        memo=memo,
    )
    # Result store.
    builder.store(thread_ids, own_addr, memo=memo)

    # Instructions: per-edge loop body on working lanes (SIMT lockstep:
    # the warp pays its max trip count), per-vertex overhead, and the
    # colored-check on idle lanes (topology-driven).
    if thread_ids.size:
        builder.instructions(
            thread_ids, expansion.lens * _INSTR_PER_EDGE, note="edge-loop"
        )
        builder.instructions(thread_ids, _INSTR_PER_VERTEX)
    if idle_threads:
        builder.uniform_overhead(_INSTR_IDLE_THREAD)
    builder.activate(thread_ids.size)


def charge_conflict_kernel(
    builder: TraceBuilder,
    graph: CSRGraph,
    bufs: GraphBuffers,
    scope_ids: np.ndarray,
    thread_ids: np.ndarray,
    conflicted_mask: np.ndarray,
    *,
    use_ldg: bool,
    idle_threads: int = 0,
    expansion: Expansion | None = None,
) -> None:
    """Record the conflict-detection kernel's behavior.

    ``conflicted_mask`` marks which scope vertices lost; losers write their
    state (un-color flag or worklist push is charged by the caller).
    """
    scope_ids = np.asarray(scope_ids, dtype=np.int64)
    thread_ids = np.asarray(thread_ids, dtype=np.int64)
    if expansion is None:
        expansion = Expansion(graph, scope_ids)
    step = expansion.step
    memo = expansion.memo
    t_of_edge, r_lo, r_hi, c_addr, ncol_addr, own_addr = _charge_addrs(
        memo, bufs, graph, expansion, scope_ids, thread_ids
    )

    builder.load(thread_ids, r_lo, ldg=use_ldg, memo=memo)
    builder.load(thread_ids, r_hi, ldg=use_ldg, memo=memo)
    builder.load(thread_ids, own_addr, memo=memo)  # own color
    builder.load(t_of_edge, c_addr, ldg=use_ldg, step=step, memo=memo)
    builder.load(t_of_edge, ncol_addr, step=step, memo=memo)
    losers = thread_ids[np.asarray(conflicted_mask, dtype=bool)]
    if losers.size:
        # Loser sets vary per round — not worth memo entries.
        builder.store(losers, bufs.aux.addr(scope_ids[conflicted_mask]))

    if thread_ids.size:
        builder.instructions(
            thread_ids, expansion.lens * (_INSTR_PER_EDGE - 2), note="edge-loop"
        )
        builder.instructions(thread_ids, _INSTR_PER_VERTEX - 4)
    if idle_threads:
        builder.uniform_overhead(_INSTR_IDLE_THREAD)
    builder.activate(thread_ids.size)


# ----------------------------------------------------------------------
# Load-balanced (warp-centric) mapping — extension addressing the paper's
# future-work note that the proposed schemes degrade on skewed/sparse
# graphs.  Vertices with degree >= warp_size are processed edge-parallel
# by a whole warp (Merrill-style CTA/warp/thread load balancing, here at
# warp granularity): lanes stride the adjacency list, so (a) a warp's trip
# count drops from max-degree to ceil(degree/32), removing intra-warp
# imbalance, and (b) the C-array loads become coalesced (consecutive
# edges -> consecutive addresses).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WarpLBLayout:
    """Thread layout for the hybrid thread/warp-parallel mapping."""

    num_threads: int
    light_ids: np.ndarray  # vertices mapped one-per-thread (packed first)
    heavy_ids: np.ndarray  # vertices mapped one-per-warp (aligned after)
    heavy_base: int  # first thread id of the heavy region


def warp_lb_layout(
    graph: CSRGraph, active_ids: np.ndarray, warp_size: int = 32
) -> WarpLBLayout:
    """Split active vertices into thread-parallel and warp-parallel sets."""
    active_ids = np.asarray(active_ids, dtype=np.int64)
    degs = graph.degrees[active_ids]
    heavy = degs >= warp_size
    light_ids = active_ids[~heavy]
    heavy_ids = active_ids[heavy]
    heavy_base = -(-int(light_ids.size) // warp_size) * warp_size  # align
    num_threads = max(1, heavy_base + int(heavy_ids.size) * warp_size)
    return WarpLBLayout(
        num_threads=num_threads,
        light_ids=light_ids,
        heavy_ids=heavy_ids,
        heavy_base=heavy_base,
    )


def charge_color_kernel_lb(
    builder: TraceBuilder,
    graph: CSRGraph,
    bufs: GraphBuffers,
    layout: WarpLBLayout,
    *,
    use_ldg: bool,
) -> None:
    """Record the load-balanced coloring kernel's behavior."""
    warp = builder.device.warp_size

    # --- light vertices: classic one-thread-per-vertex mapping ----------
    if layout.light_ids.size:
        threads = np.arange(layout.light_ids.size, dtype=np.int64)
        charge_color_kernel(
            builder, graph, bufs, layout.light_ids, threads, use_ldg=use_ldg
        )

    # --- heavy vertices: one warp each, lanes stride the adjacency ------
    if layout.heavy_ids.size:
        seg, step, edge_idx = expand_segments(graph, layout.heavy_ids)
        lane = step % warp
        trip = step // warp
        t_of_edge = layout.heavy_base + seg * warp + lane
        warp_threads = layout.heavy_base + np.arange(
            layout.heavy_ids.size, dtype=np.int64
        ) * warp

        builder.load(warp_threads, bufs.R.addr(layout.heavy_ids), ldg=use_ldg)
        builder.load(warp_threads, bufs.R.addr(layout.heavy_ids + 1), ldg=use_ldg)
        # Strided row walk: lanes hit consecutive C entries -> coalesced.
        builder.load(t_of_edge, bufs.C.addr(edge_idx), ldg=use_ldg, step=trip)
        builder.load(
            t_of_edge, bufs.colors.addr(graph.col_indices[edge_idx]), step=trip
        )
        builder.store(warp_threads, bufs.colors.addr(layout.heavy_ids))

        # Instructions: the warp pays ceil(deg/32) trips plus a warp-level
        # mex reduction (ballot/shuffle merge of the forbidden sets).
        trips = -(-graph.degrees[layout.heavy_ids].astype(np.int64) // warp)
        builder.instructions(warp_threads, trips * _INSTR_PER_EDGE + _INSTR_PER_VERTEX + 12)
        builder.activate(int(layout.heavy_ids.size) * warp)


# ----------------------------------------------------------------------
# Edge-parallel conflict detection — extension.  The vertex-parallel
# conflict kernel inherits the coloring kernel's imbalance (a hub's thread
# scans its whole row).  Mapping one thread per *directed edge* instead
# makes the conflict pass perfectly balanced regardless of the degree
# distribution, at the cost of reading an explicit edge-source array
# (CSR alone cannot tell a thread which row its edge belongs to).
# ----------------------------------------------------------------------


def charge_conflict_kernel_edges(
    builder: TraceBuilder,
    graph: CSRGraph,
    bufs: GraphBuffers,
    src_buf: DeviceArray,
    scope_mask: np.ndarray,
    conflicted: np.ndarray,
    *,
    use_ldg: bool,
) -> None:
    """Record an edge-parallel conflict pass over the whole edge list.

    ``src_buf`` holds the per-edge source vertex (COO row array, built once
    at upload time).  Every thread loads its edge's endpoints and their
    colors — all four streams are either fully coalesced (src, C) or
    gathers (colors) with one trip per thread, so warp trip counts are
    uniform by construction.
    """
    m = graph.num_edges
    threads = np.arange(m, dtype=np.int64)
    src = src_buf.data.astype(np.int64)
    dst = graph.col_indices.astype(np.int64)
    builder.load(threads, src_buf.addr(threads), ldg=use_ldg)
    builder.load(threads, bufs.C.addr(threads), ldg=use_ldg)
    builder.load(threads, bufs.colors.addr(src))
    builder.load(threads, bufs.colors.addr(dst))
    losers = np.flatnonzero(np.isin(src, conflicted))
    if losers.size:
        builder.store(losers, bufs.aux.addr(src[losers]))
    builder.instructions(threads, 6)
    builder.activate(int(scope_mask.sum()) if scope_mask.size else m)
