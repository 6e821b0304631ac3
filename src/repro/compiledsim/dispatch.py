"""Call-site dispatch for the compiled engine.

The hot NumPy paths (kernels, trace builder, cache model) each ask this
module "can you do this one?" at the top of their function.  Every hook
returns a computed result **or ``None``** — ``None`` means "run your
existing vectorized path", which keeps ``gpusim``/``cpusim`` behavior
untouched byte-for-byte and lets the compiled tier decline anything it
cannot prove exact (wrong dtype, non-contiguous input, unsorted
stream).

Concurrency
-----------
Several runs may execute compiled hooks at once: ``Device.commit_pair``
prices a round's two launches on a helper thread, and the service runs
engine work on ``asyncio.to_thread`` workers.  State is scoped so that
is safe:

- **Scratch is per hook call.**  Every hook checks an :class:`_Arena`
  (grow-only buffers, hash-table epoch, mex generation) out of a
  lock-guarded pool for the duration of the call and returns it after,
  so two concurrent calls never share a buffer, while buffers are still
  reused across calls — including across ``commit_pair``'s short-lived
  helper threads, which a thread-local arena would re-allocate every
  round.  Hooks therefore return arrays they own, never views into
  scratch.
- **The kernel table is process-global and reference-counted.**
  :func:`scope` (which :class:`~repro.engine.backend.CompiledSimBackend`
  wraps around each round loop) activates ``_K`` for the dynamic extent
  of a run.  The helper threads a run spawns must see it, so it is not
  thread-local.  ``_K`` only ever holds the single table
  :func:`~repro.compiledsim.runtime.get_kernels` resolved for the
  process, so every concurrent run sees the same tier; the last scope
  out deactivates it.

Only the *functional* halves are replaced.  Pricing — the trace
descriptors charged per access — is emitted by the same unchanged code
either way, so simulated timings stay byte-identical.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from . import runtime

__all__ = ["scope", "active"]

#: The resolved kernel table while a scope is active, else None.
_K: dict | None = None
#: Scopes open across all threads; guarded by ``_SCOPE_LOCK``.
_OPEN_SCOPES = 0
_SCOPE_LOCK = threading.Lock()


class _Arena:
    """Scratch owned by one hook call at a time (see the module docstring)."""

    __slots__ = ("buffers", "epoch", "gen")

    def __init__(self) -> None:
        #: Grow-only scratch arrays keyed by role.
        self.buffers: dict[str, np.ndarray] = {}
        #: Monotone epoch for the hash tables' slot-validity stamps (a
        #: slot is live iff its gen equals the call's epoch — replaces a
        #: per-call memset).
        self.epoch = 0
        #: Persistent mex generation counter (stamp arrays, zeroed once
        #: on allocation, never need clearing; uint64 generations cannot
        #: realistically wrap).
        self.gen = np.ones(1, dtype=np.uint64)

    def next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch

    def scratch(self, name: str, size: int, dtype, zero: bool = False):
        buf = self.buffers.get(name)
        if buf is None or buf.shape[0] < size:
            cap = max(size, 1024)
            if buf is not None:
                cap = max(cap, buf.shape[0] * 2)
            buf = (np.zeros if zero else np.empty)(cap, dtype=dtype)
            self.buffers[name] = buf
        return buf

    def table(self, name: str, size: int, zero: bool = False) -> np.ndarray:
        """Power-of-two hash-table buffer of exactly ``size`` entries.

        Epoch stamps make stale contents harmless (each call's epoch is
        fresh), so a grown table never needs re-zeroing beyond its
        initial allocation.
        """
        buf = self.buffers.get(name)
        if buf is None or buf.shape[0] < size:
            buf = (np.zeros if zero else np.empty)(size, dtype=np.int64)
            self.buffers[name] = buf
        return buf[:size]

    def stamp_for(self, max_run: int) -> np.ndarray:
        """Generation-stamped mex scratch sized so truncation never bites.

        Zeroed on allocation: a stamp equal to a live generation marks a
        color forbidden, and generations start at 2.
        """
        return self.scratch("stamp", int(max_run) + 2, np.uint64, zero=True)


#: Idle arenas; grows to the peak number of concurrent hook calls.
_ARENAS: list[_Arena] = []
_ARENA_LOCK = threading.Lock()


@contextmanager
def _arena():
    """Check an arena out of the pool for the extent of one hook call."""
    with _ARENA_LOCK:
        arena = _ARENAS.pop() if _ARENAS else _Arena()
    try:
        yield arena
    finally:
        with _ARENA_LOCK:
            _ARENAS.append(arena)


def active() -> bool:
    """True while a compiled scope is active *and* a tier is loaded."""
    return _K is not None


@contextmanager
def scope():
    """Activate compiled dispatch for the dynamic extent of a run."""
    global _K, _OPEN_SCOPES
    kernels = runtime.get_kernels()[1]
    with _SCOPE_LOCK:
        _K = kernels
        _OPEN_SCOPES += 1
    try:
        yield
    finally:
        with _SCOPE_LOCK:
            _OPEN_SCOPES -= 1
            if _OPEN_SCOPES == 0:
                _K = None


def _c64(a: np.ndarray) -> bool:
    return a.dtype == np.int64 and a.flags.c_contiguous


def _c32(a: np.ndarray) -> bool:
    return a.dtype == np.int32 and a.flags.c_contiguous


def _table_size(n: int) -> int:
    """Power-of-two open-addressing table with load factor <= 0.5."""
    size = 16
    while size < 2 * n:
        size *= 2
    return size


# ----------------------------------------------------------------------
# coloring kernels
# ----------------------------------------------------------------------
def mex_sorted(seg_ids, nbr_colors, num_segments):
    """Sorted-segment mex; exact twin of the bitmask/sort NumPy paths."""
    if _K is None:
        return None
    if not (_c64(seg_ids) and _c32(nbr_colors)):
        return None
    max_run = _K["max_seg_run"](seg_ids)
    out = np.empty(int(num_segments), dtype=np.int32)
    with _arena() as a:
        _K["mex_sorted"](
            seg_ids, nbr_colors, int(num_segments), out,
            a.stamp_for(max_run), a.gen,
        )
    return out


def waved_color(active_ids, seg, nbr, colors, bounds, epos):
    """The fused wave loop of ``speculative_color_waved``.

    Per wave: snapshot-read mex for every position, then commit —
    the same two-phase visibility as the vectorized gather/scatter.
    Writes ``colors`` in place and returns the per-position ``out``
    array, or ``None`` to decline.
    """
    if _K is None:
        return None
    if not (
        _c64(active_ids) and _c64(seg) and _c32(nbr) and _c32(colors)
        and _c64(bounds) and _c64(epos)
    ):
        return None
    max_run = _K["max_seg_run"](seg)
    out = np.ones(active_ids.shape[0], dtype=np.int32)
    with _arena() as a:
        _K["waved_color"](
            active_ids, seg, nbr, bounds, epos, colors, out,
            a.stamp_for(max_run), a.gen,
        )
    return out


def detect_conflicts(seg, nbr, colors, scope_ids, num_scope):
    """Loser mask over monochromatic edges, indexed by scope position.

    ``scope_ids=None`` means seg positions *are* vertex ids (full-graph
    expansion).  Returns a uint8 mask of ``num_scope`` entries, or
    ``None`` to decline.
    """
    if _K is None:
        return None
    if not (_c64(seg) and _c32(nbr) and _c32(colors)):
        return None
    loser = np.zeros(int(num_scope), dtype=np.uint8)
    if scope_ids is None:
        _K["detect_conflicts_full"](seg, nbr, colors, loser)
        return loser
    if not _c64(scope_ids):
        return None
    _K["detect_conflicts_subset"](seg, scope_ids, nbr, colors, loser)
    return loser


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def pack_mask(mask):
    """``np.flatnonzero`` over a bool/uint8 mask, or ``None``."""
    if _K is None:
        return None
    if mask.dtype not in (np.bool_, np.uint8) or not mask.flags.c_contiguous:
        return None
    with _arena() as a:
        buf = a.scratch("pack_out", mask.shape[0], np.int64)
        k = _K["pack_mask"](mask.view(np.uint8), buf)
        return buf[:k].copy()


# ----------------------------------------------------------------------
# pricing-model primitives (gpusim cache + trace)
# ----------------------------------------------------------------------
def reuse_prev(line_ids):
    """Re-touch positions and their previous touch, plus unique count.

    Returns ``(idx, prev, num_unique)`` where the (idx, prev) pair *set*
    equals the stable-argsort formulation's — downstream use is a
    scatter and an elementwise compare, so emission order is free.
    ``None`` declines (unsupported dtype).
    """
    if _K is None:
        return None
    if line_ids.dtype == np.int32 and line_ids.flags.c_contiguous:
        fn = _K["reuse_prev_i32"]
    elif line_ids.dtype == np.int64 and line_ids.flags.c_contiguous:
        fn = _K["reuse_prev_i64"]
    else:
        return None
    n = line_ids.shape[0]
    size = _table_size(n)
    idx = np.empty(n, dtype=np.int64)
    prev = np.empty(n, dtype=np.int64)
    with _arena() as a:
        k = fn(
            line_ids, idx, prev, a.table("reuse_tkey", size),
            a.table("reuse_tval", size),
            a.table("reuse_tgen", size, zero=True), a.next_epoch(),
        )
    return idx[:k], prev[:k], n - k


def first_occurrences(key):
    """First index of each distinct key, in key-sorted order.

    Exactly ``np.unique(key, return_index=True)[1]`` — the contract of
    ``repro.gpusim.trace._first_occurrences``.  ``None`` declines.
    """
    if _K is None:
        return None
    if not _c64(key):
        return None
    n = key.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    size = _table_size(n)
    out = np.empty(n, dtype=np.int64)
    with _arena() as a:
        tkey = a.table("fo_tkey", size)
        tgen = a.table("fo_tgen", size, zero=True)
        ukey, upos, perm, tmp_perm, key_buf, tmp_key = (
            a.scratch(role, n, np.int64) for role in (
                "fo_ukey", "fo_upos", "fo_perm", "fo_tmp_perm",
                "fo_key_buf", "fo_tmp_key",
            )
        )
        k = _K["first_occurrences"](
            key, out, ukey, upos, tkey, tgen, a.next_epoch(), perm,
            tmp_perm, key_buf, tmp_key,
        )
    return out[:k].copy()


def coalesce_first(warp, step_arr, line, max_warp, max_step, max_line):
    """Coalescing unique over (warp, step, line): first index per key.

    Exactly what the trace builder gets from packing the components into
    one arithmetic key and calling ``_first_occurrences``: bit-packing
    preserves the key's ordering and equality classes, so an LSD radix
    sort over the bitkey plus an adjacent-run scan selects the same
    indices in the same (key-sorted) order.  ``None`` declines.
    """
    if _K is None:
        return None
    if not (_c32(warp) and _c64(line)):
        return None
    if step_arr.dtype != np.int64 or step_arr.ndim != 1:
        return None
    const_step = step_arr.strides[0] == 0
    if not const_step and not step_arr.flags.c_contiguous:
        return None
    n = line.shape[0]
    wb = int(max_warp - 1).bit_length()
    sb = 0 if const_step else int(max_step - 1).bit_length()
    lb = int(max_line - 1).bit_length()
    if wb + sb + lb > 62:
        return None
    # The kernel picks balanced digit widths of at most 19 bits.
    buckets = 1 << min(19, max(wb + sb + lb, 1))
    with _arena() as a:
        sel, perm, tmp_perm, key_buf, tmp_key = (
            a.scratch(role, n, np.int64) for role in (
                "fo3_sel", "fo3_perm", "fo3_tmp_perm", "fo3_key_buf",
                "fo3_tmp_key",
            )
        )
        count = a.scratch("fo3_count", buckets, np.int64)
        m = _K["first_occ3"](
            warp, None if const_step else step_arr, line, wb, sb, lb,
            sel, perm, tmp_perm, key_buf, tmp_key, count,
        )
        return sel[:m].copy()


def issue_order3(wave, warp, step, max_wave, max_warp, max_step):
    """Issue ordering over (wave, warp, step) as a bitkey LSD radix.

    Bit-packing the components preserves the arithmetic packed key's
    ordering, so the LSD passes produce the identical permutation to
    the stable argsort of the packed key.  Declines (``None``) on
    unsupported dtypes or when the components' widths overflow the
    bitkey.
    """
    if _K is None:
        return None
    if not _c32(wave):
        return None
    if warp.dtype not in (np.int32, np.int64) or not warp.flags.c_contiguous:
        return None
    if step.dtype not in (np.int32, np.int64) or not step.flags.c_contiguous:
        return None
    n = wave.shape[0]
    vb = int(max_wave - 1).bit_length()
    wb = int(max_warp - 1).bit_length()
    sb = int(max_step - 1).bit_length()
    if vb + wb + sb > 62:
        return None
    buckets = 1 << min(19, max(vb + wb + sb, 1))
    perm = np.empty(n, dtype=np.int64)
    if n == 0:
        return perm
    with _arena() as a:
        tmp_perm, key_buf, tmp_key = (
            a.scratch(role, n, np.int64)
            for role in ("o3_tmp_perm", "o3_key_buf", "o3_tmp_key")
        )
        count = a.scratch("o3_count", buckets, np.int64)
        _K["order3"](wave, warp, step, vb, wb, sb, perm, tmp_perm,
                     key_buf, tmp_key, count)
    return perm


def emit_coalesced(kind, warp, step_arr, line, sm, wave,
                   max_warp, max_step, max_line, seq_off, out):
    """Coalesce and append one access stream into arena columns.

    Fuses :func:`coalesce_first` with the narrowing gathers the trace
    builder would otherwise run as separate NumPy passes: the kernel
    dedups (warp, step, line), then writes the surviving transactions'
    narrowed columns straight into ``out`` — a tuple of contiguous
    arena views ``(kind u8, line i32, sm i32, warp i32, wave i32,
    step i32)``, each at least as long as the input.  Emitted order is
    the bitkey-sorted order, identical to ``column[sel]`` on the NumPy
    path.  Returns the emitted count, or ``None`` to decline (caller
    falls back to the unfused path).
    """
    if _K is None:
        return None
    if not (_c32(warp) and _c32(sm) and _c32(wave) and _c64(line)):
        return None
    if step_arr.dtype != np.int64 or step_arr.ndim != 1:
        return None
    const_step = step_arr.strides[0] == 0
    if not const_step and not step_arr.flags.c_contiguous:
        return None
    # The arena stores narrow columns; anything wider than the trace
    # builder's own int32 thresholds declines into the legacy path.
    if max_line > (1 << 31) or max_step > (1 << 21):
        return None
    n = line.shape[0]
    wb = int(max_warp - 1).bit_length()
    sb = 0 if const_step else int(max_step - 1).bit_length()
    lb = int(max_line - 1).bit_length()
    if wb + sb + lb > 62:
        return None
    buckets = 1 << min(19, max(wb + sb + lb, 1))
    out_kind, out_line, out_sm, out_warp, out_wave, out_step = out
    with _arena() as a:
        perm, tmp_perm, key_buf, tmp_key = (
            a.scratch(role, n, np.int64) for role in (
                "fo3_perm", "fo3_tmp_perm", "fo3_key_buf", "fo3_tmp_key",
            )
        )
        count = a.scratch("fo3_count", buckets, np.int64)
        return _K["emit_coalesced"](
            warp, None if const_step else step_arr,
            int(step_arr[0]) if const_step and n else 0,
            line, sm, wave, wb, sb, lb, int(kind), int(seq_off),
            perm, tmp_perm, key_buf, tmp_key, count,
            out_kind, out_line, out_sm, out_warp, out_wave, out_step,
        )


def merge_order(wave, warp, step, seg_off, max_wave, max_warp, max_step):
    """Issue ordering as a stable k-way merge of presorted segments.

    Exact replacement for the (wave, warp, step) stable argsort when
    every segment is internally key-sorted — which arena segments are
    by construction; the kernel re-verifies on the fly and ``None`` is
    returned on any violation (or unsupported dtypes), falling back to
    the radix sort.
    """
    if _K is None:
        return None
    if not (_c32(wave) and _c32(warp) and _c32(step)):
        return None
    vb = int(max_wave - 1).bit_length()
    wb = int(max_warp - 1).bit_length()
    sb = int(max_step - 1).bit_length()
    if vb + wb + sb > 62:
        return None
    nseg = seg_off.shape[0] - 1
    n = wave.shape[0]
    perm = np.empty(n, dtype=np.int64)
    if n == 0 or nseg <= 0:
        return perm[:0]
    with _arena() as a:
        heap_key, heap_seg, pos = (
            a.scratch(role, nseg, np.int64)
            for role in ("mo_heap_key", "mo_heap_seg", "mo_pos")
        )
        rc = _K["merge_order"](wave, warp, step, seg_off, wb, sb,
                               heap_key, heap_seg, pos, perm)
    if rc != 0:
        return None
    return perm


#: Largest line id the fused hierarchy walk will size a direct-address
#: last-seen table for (two int64 arrays; 1 << 24 lines = 256 MiB cap).
WALK_LINE_CAP = 1 << 24


def walk_supported(order, kind, line, sm):
    """Dtype/contiguity precheck for the fused hierarchy walk.

    The walk consumes RNG draws between its passes, so every reason to
    decline must be established *before* any pass runs — a mid-walk
    fallback would leave the generator's stream diverged from the
    reference path's.
    """
    return (
        _K is not None
        and _c64(order)
        and kind.dtype == np.uint8 and kind.flags.c_contiguous
        and _c32(sm)
        and line.dtype in (np.int32, np.int64)
        and line.flags.c_contiguous
    )


def walk_stats(kind, sm, line, num_sms, ldg_code, atomic_code):
    """Order-free stream facts: per-SM __ldg counts, atomics, maxima.

    Returns ``(ldg_per_sm, num_atomics, max_line, max_sm)``; the caller
    validates ``max_sm < num_sms`` and ``max_line`` against the table
    cap before committing to the fused path.
    """
    ldg_per_sm = np.zeros(int(num_sms), dtype=np.int64)
    out3 = np.zeros(3, dtype=np.int64)
    _K["walk_stats"](kind, sm, line, int(num_sms), int(ldg_code),
                     int(atomic_code), ldg_per_sm, out3)
    return ldg_per_sm, int(out3[0]), int(out3[1]), int(out3[2])


def walk_ro(order, kind, line, sm, ldg_code, rep_sm, rep_count, max_line):
    """Representative-SM __ldg substream reuse gaps, in issue order.

    ``gap[j]`` is the substream-position gap to the previous touch of
    the same line (-1 = first touch) — exactly the ``idx - prev`` pairs
    the argsort formulation feeds its threshold test.
    """
    gap = np.empty(int(rep_count), dtype=np.int64)
    with _arena() as a:
        tval = a.scratch("walk_tval", int(max_line) + 1, np.int64)
        tgen = a.scratch("walk_tgen", int(max_line) + 1, np.int64,
                         zero=True)
        k = _K["walk_ro"](order, kind, line, sm, int(ldg_code),
                          int(rep_sm), gap, tval, tgen, a.next_epoch())
    return gap[:k]


def walk_l2(order, kind, line, sm, ldg_code, store_code, rep_sm, rep_hits,
            draws, rate, max_line):
    """L2 substream (everything the RO cache did not absorb).

    Resolves each __ldg's RO verdict in issue order — representative-SM
    entries from ``rep_hits``, the rest from ``draws`` compared against
    ``rate`` (consumed in the same ascending-position order as the
    boolean-mask assignment) — and emits the L2 substream's reuse gaps
    and stall flags.  Returns ``(l2_gap, l2_stall, ro_hits)``.
    """
    n = order.shape[0]
    out2 = np.zeros(2, dtype=np.int64)
    if rep_hits.dtype == np.bool_:
        rep_hits = rep_hits.view(np.uint8)
    with _arena() as a:
        tval = a.scratch("walk_tval", int(max_line) + 1, np.int64)
        tgen = a.scratch("walk_tgen", int(max_line) + 1, np.int64,
                         zero=True)
        l2_gap = a.scratch("walk_l2_gap", n, np.int64)
        l2_stall = a.scratch("walk_l2_stall", n, np.uint8)
        _K["walk_l2"](order, kind, line, sm, int(ldg_code),
                      int(store_code), int(rep_sm), rep_hits, draws,
                      float(rate), l2_gap, l2_stall, tval, tgen,
                      a.next_epoch(), out2)
        l2n = int(out2[0])
        # Copies: the arena goes back to the pool on exit.
        return l2_gap[:l2n].copy(), l2_stall[:l2n].copy(), int(out2[1])


def issue_order(key):
    """Stable argsort of the packed issue keys (radix LSD ≡ kind='stable').

    Keys must be non-negative int64 (the trace builder guarantees this —
    it falls back to lexsort before keys could reach 2**62).
    """
    if _K is None:
        return None
    if not _c64(key):
        return None
    n = key.shape[0]
    perm = np.empty(n, dtype=np.int64)
    if n == 0:
        return perm
    with _arena() as a:
        tmp_perm, key_buf, tmp_key = (
            a.scratch(role, n, np.int64)
            for role in ("io_tmp_perm", "io_key_buf", "io_tmp_key")
        )
        _K["issue_order"](key, perm, tmp_perm, key_buf, tmp_key)
    return perm


def _reset_for_tests() -> None:
    """Drop scratch arenas and deactivate (test isolation)."""
    global _K, _OPEN_SCOPES
    with _SCOPE_LOCK:
        _K, _OPEN_SCOPES = None, 0
    with _ARENA_LOCK:
        _ARENAS.clear()
