"""Call-site dispatch to the C kernel tier.

The hot NumPy paths (kernels, trace builder, cache model) each ask this
module "can you do this one?" at the top of their function.  Every hook
returns a computed result **or ``None``** — ``None`` means "run your
existing vectorized path".  A hook declines on the NumPy tier (no C
compiler built the kernels) and whenever it cannot prove the C kernel
exact for its inputs (wrong dtype, non-contiguous input, unsorted
stream).  Both paths produce identical results, so which one runs
changes host wall-clock only.

Every ``gpusim`` and ``cpusim`` run uses the hooks: the kernel table is
resolved once per process, lazily, by the first hook that needs it
(:func:`repro.compiledsim.runtime.kernels`).

Concurrency
-----------
Several runs may execute hooks at once: ``Device.commit_pair`` prices a
round's two launches on a helper thread, and the service runs engine
work on ``asyncio.to_thread`` workers.  State is scoped so that is safe:

- **Scratch is per hook call.**  Every hook checks an :class:`_Arena`
  (scratch buffers, hash-table epoch, mex generation) out of a
  lock-guarded pool for the duration of the call and returns it after,
  so two concurrent calls never share a buffer, while small buffers are
  still reused across calls — including across ``commit_pair``'s
  helper thread.  Hooks therefore return arrays they own, never views
  into scratch.
- **The kernel table is immutable and process-wide.**  It is resolved
  under a lock, once, and never changes afterwards, so every thread of
  every run sees the same tier.

Only the *functional* halves are replaced.  Pricing — the trace
descriptors charged per access — is emitted by the same unchanged code
either way, so simulated timings stay byte-identical.

Array arguments reach C as raw addresses (``arr.ctypes.data``); the
dtype and contiguity checks in each hook are what make that safe.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np

from . import runtime

__all__ = ["active", "RETAIN_BYTES"]

#: Largest scratch buffer an idle arena keeps for the next call.  Reuse
#: pays on the many short streams of small launches, where allocation is
#: a visible share of a call; on a long stream the kernel's passes over
#: the data dwarf one allocation, and keeping those buffers would pin
#: peak-sized scratch in every process for its whole life.
RETAIN_BYTES = 1 << 18


def _p(a: np.ndarray) -> int:
    return a.ctypes.data


class _Arena:
    """Scratch owned by one hook call at a time (see the module docstring)."""

    __slots__ = ("buffers", "held", "epoch", "gen", "gen_ptr")

    def __init__(self) -> None:
        #: Retained scratch, role -> (array <= RETAIN_BYTES, its address).
        self.buffers: dict[str, tuple[np.ndarray, int]] = {}
        #: Larger scratch of the current call, freed when it returns.
        self.held: list[np.ndarray] = []
        #: Monotone epoch for the hash tables' slot-validity stamps (a
        #: slot is live iff its gen equals the call's epoch — replaces a
        #: per-call memset).
        self.epoch = 0
        #: Persistent mex generation counter (stamp arrays, zeroed once
        #: on allocation, never need clearing; uint64 generations cannot
        #: realistically wrap).
        self.gen = np.ones(1, dtype=np.uint64)
        self.gen_ptr = _p(self.gen)

    def next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch

    def _get(self, name: str, size: int, dtype, zero: bool):
        entry = self.buffers.get(name)
        if entry is not None and entry[0].shape[0] >= size:
            return entry
        buf = (np.zeros if zero else np.empty)(max(size, 256), dtype=dtype)
        entry = (buf, _p(buf))
        if buf.nbytes <= RETAIN_BYTES:
            self.buffers[name] = entry
        else:
            self.held.append(buf)
        return entry

    def ptr(self, name: str, size: int, dtype=np.int64,
            zero: bool = False) -> int:
        """Address of a ``name`` buffer of at least ``size`` entries.

        ``zero`` buffers start zeroed when allocated; later calls see
        what earlier ones left (epoch- and generation-stamped users
        need exactly that).  A buffer larger than :data:`RETAIN_BYTES`
        lives only until this call returns the arena.  Caching the
        address saves building a ctypes view of the array per call.
        """
        return self._get(name, size, dtype, zero)[1]

    def array(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """The ``name`` buffer itself (see :meth:`ptr`)."""
        return self._get(name, size, dtype, False)[0]


#: Idle arenas; grows to the peak number of concurrent hook calls.
_ARENAS: list[_Arena] = []
_ARENA_LOCK = threading.Lock()


def _after_fork() -> None:
    # A fork taken while another thread held the lock would leave the
    # child's copy locked forever.
    global _ARENA_LOCK
    _ARENA_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork)


@contextmanager
def _arena():
    """Check an arena out of the pool for the extent of one hook call."""
    with _ARENA_LOCK:
        arena = _ARENAS.pop() if _ARENAS else _Arena()
    try:
        yield arena
    finally:
        arena.held.clear()
        with _ARENA_LOCK:
            _ARENAS.append(arena)


def active() -> bool:
    """True when the process runs the C tier (resolving it on first use)."""
    return runtime.kernels() is not None


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


def _count_len(n: int, nbits: int) -> int:
    """Count-array entries the C ``lsd_pairs`` radix needs for ``n`` keys.

    Mirrors its digit choice: the widest digit grows from 8 bits with
    the stream, up to 19, and never exceeds the key's width.
    """
    cap = 8
    while cap < 19 and n >> (cap - 2):
        cap += 1
    return 1 << min(cap, max(nbits, 1))


def _stamp(a: _Arena, length: int) -> int:
    """Generation-stamped mex scratch sized so truncation never bites.

    Zeroed on allocation: a stamp equal to a live generation marks a
    color forbidden, and generations start at 2.
    """
    return a.ptr("stamp", length, np.uint64, zero=True)


def _walk_tables(a: _Arena, max_line: int) -> tuple[int, int]:
    """The hierarchy walk's last-seen table and its epoch stamps."""
    size = int(max_line) + 1
    return a.ptr("walk_tval", size), a.ptr("walk_tgen", size, zero=True)


# ----------------------------------------------------------------------
# coloring kernels
# ----------------------------------------------------------------------
def mex_sorted(seg_ids, nbr_colors, num_segments):
    """Sorted-segment mex; exact twin of the bitmask/sort NumPy paths."""
    K = runtime.kernels()
    if K is None or not (_c64(seg_ids) and _c32(nbr_colors)):
        return None
    n = seg_ids.shape[0]
    max_run = K["max_seg_run"](_p(seg_ids), n)
    out = np.empty(int(num_segments), dtype=np.int32)
    stamp_len = max_run + 2
    with _arena() as a:
        K["mex_sorted"](
            _p(seg_ids), _p(nbr_colors), n, int(num_segments), _p(out),
            _stamp(a, stamp_len), stamp_len, a.gen_ptr,
        )
    return out


def waved_color(active_ids, seg, nbr, colors, bounds, epos):
    """The fused wave loop of ``speculative_color_waved``.

    Per wave: snapshot-read mex for every position, then commit —
    the same two-phase visibility as the vectorized gather/scatter.
    Writes ``colors`` in place and returns the per-position ``out``
    array, or ``None`` to decline.
    """
    K = runtime.kernels()
    if K is None or not (
        _c64(active_ids) and _c64(seg) and _c32(nbr) and _c32(colors)
        and _c64(bounds) and _c64(epos)
    ):
        return None
    max_run = K["max_seg_run"](_p(seg), seg.shape[0])
    out = np.ones(active_ids.shape[0], dtype=np.int32)
    stamp_len = max_run + 2
    with _arena() as a:
        K["waved_color"](
            _p(active_ids), active_ids.shape[0], _p(seg), _p(nbr),
            _p(bounds), _p(epos), bounds.shape[0] - 1, _p(colors), _p(out),
            _stamp(a, stamp_len), stamp_len, a.gen_ptr,
        )
    return out


def detect_conflicts(seg, nbr, colors, scope_ids, num_scope):
    """Loser mask over monochromatic edges, indexed by scope position.

    ``scope_ids=None`` means seg positions *are* vertex ids (full-graph
    expansion).  Returns a uint8 mask of ``num_scope`` entries, or
    ``None`` to decline.
    """
    K = runtime.kernels()
    if K is None or not (_c64(seg) and _c32(nbr) and _c32(colors)):
        return None
    if scope_ids is not None and not _c64(scope_ids):
        return None
    loser = np.zeros(int(num_scope), dtype=np.uint8)
    if scope_ids is None:
        K["detect_conflicts_full"](
            _p(seg), _p(nbr), _p(colors), seg.shape[0], _p(loser)
        )
    else:
        K["detect_conflicts_subset"](
            _p(seg), _p(scope_ids), _p(nbr), _p(colors), seg.shape[0],
            _p(loser),
        )
    return loser


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def pack_mask(mask):
    """``np.flatnonzero`` over a bool/uint8 mask, or ``None``."""
    K = runtime.kernels()
    if K is None:
        return None
    if mask.dtype not in (np.bool_, np.uint8) or not mask.flags.c_contiguous:
        return None
    with _arena() as a:
        buf = a.array("pack_out", mask.shape[0])
        k = K["pack_mask"](_p(mask), mask.shape[0], _p(buf))
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
    K = runtime.kernels()
    if K is None:
        return None
    if _c32(line_ids):
        fn = K["reuse_prev_i32"]
    elif _c64(line_ids):
        fn = K["reuse_prev_i64"]
    else:
        return None
    n = line_ids.shape[0]
    size = _table_size(n)
    idx = np.empty(n, dtype=np.int64)
    prev = np.empty(n, dtype=np.int64)
    with _arena() as a:
        k = fn(
            _p(line_ids), n, _p(idx), _p(prev), a.ptr("reuse_tkey", size),
            a.ptr("reuse_tval", size), a.ptr("reuse_tgen", size, zero=True),
            size, a.next_epoch(),
        )
    return idx[:k], prev[:k], n - k


def first_occurrences(key):
    """First index of each distinct key, in key-sorted order.

    Exactly ``np.unique(key, return_index=True)[1]`` — the contract of
    ``repro.gpusim.trace._first_occurrences``.  ``None`` declines.
    """
    K = runtime.kernels()
    if K is None or not _c64(key):
        return None
    n = key.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    size = _table_size(n)
    out = np.empty(n, dtype=np.int64)
    with _arena() as a:
        tkey = a.ptr("fo_tkey", size)
        tgen = a.ptr("fo_tgen", size, zero=True)
        ukey, upos, *radix = (
            a.ptr(role, n) for role in (
                "fo_ukey", "fo_upos", "fo_perm", "fo_tmp_perm",
                "fo_key_buf", "fo_tmp_key",
            )
        )
        k = K["first_occurrences"](
            _p(key), n, _p(out), ukey, upos, tkey, tgen, size,
            a.next_epoch(), *radix,
        )
    return out[:k].copy()


def _radix_scratch(a: _Arena, n: int, nbits: int) -> list[int]:
    """Addresses of ``lsd_pairs``' tmp_perm, key_buf, tmp_key and count."""
    return [
        a.ptr("lsd_tmp_perm", n), a.ptr("lsd_key_buf", n),
        a.ptr("lsd_tmp_key", n), a.ptr("lsd_count", _count_len(n, nbits)),
    ]


def _step_arg(step_arr):
    """``(address,)`` of a step column, ``(None,)`` for a constant one.

    A broadcast scalar step (stride 0) drops out of the key: the kernels
    take ``NULL`` for it.  ``None`` declines an unsupported column.
    """
    if step_arr.dtype != np.int64 or step_arr.ndim != 1:
        return None
    if step_arr.strides[0] == 0:
        return (None,)
    if not step_arr.flags.c_contiguous:
        return None
    return (_p(step_arr),)


def coalesce_first(warp, step_arr, line, max_warp, max_step, max_line):
    """Coalescing unique over (warp, step, line): first index per key.

    Exactly what the trace builder gets from packing the components into
    one arithmetic key and calling ``_first_occurrences``: bit-packing
    preserves the key's ordering and equality classes, so an LSD radix
    sort over the bitkey plus an adjacent-run scan selects the same
    indices in the same (key-sorted) order.  ``None`` declines.
    """
    K = runtime.kernels()
    if K is None or not (_c32(warp) and _c64(line)):
        return None
    step = _step_arg(step_arr)
    if step is None:
        return None
    n = line.shape[0]
    wb = int(max_warp - 1).bit_length()
    sb = 0 if step[0] is None else int(max_step - 1).bit_length()
    lb = int(max_line - 1).bit_length()
    if wb + sb + lb > 62:
        return None
    sel = np.empty(n, dtype=np.int64)
    with _arena() as a:
        m = K["first_occ3"](
            _p(warp), step[0], _p(line), n, wb, sb, lb, _p(sel),
            a.ptr("lsd_perm", n), *_radix_scratch(a, n, wb + sb + lb),
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
    K = runtime.kernels()
    if K is None or not _c32(wave):
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
    perm = np.empty(n, dtype=np.int64)
    if n == 0:
        return perm
    wsuf = "w32" if warp.dtype == np.int32 else "w64"
    ssuf = "s32" if step.dtype == np.int32 else "s64"
    with _arena() as a:
        K[f"order3_{wsuf}{ssuf}"](
            _p(wave), _p(warp), _p(step), n, vb, wb, sb, _p(perm),
            *_radix_scratch(a, n, vb + wb + sb),
        )
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
    K = runtime.kernels()
    if K is None or not (_c32(warp) and _c32(sm) and _c32(wave) and _c64(line)):
        return None
    step = _step_arg(step_arr)
    if step is None:
        return None
    # The arena stores narrow columns; anything wider than the trace
    # builder's own int32 thresholds declines into the legacy path.
    if max_line > (1 << 31) or max_step > (1 << 21):
        return None
    n = line.shape[0]
    wb = int(max_warp - 1).bit_length()
    sb = 0 if step[0] is None else int(max_step - 1).bit_length()
    lb = int(max_line - 1).bit_length()
    if wb + sb + lb > 62:
        return None
    cstep = int(step_arr[0]) if step[0] is None and n else 0
    with _arena() as a:
        return K["emit_coalesced"](
            _p(warp), step[0], cstep, _p(line), _p(sm), _p(wave), n,
            wb, sb, lb, int(kind), int(seq_off), a.ptr("lsd_perm", n),
            *_radix_scratch(a, n, wb + sb + lb), *map(_p, out),
        )


def merge_order(wave, warp, step, seg_off, max_wave, max_warp, max_step):
    """Issue ordering as a stable k-way merge of presorted segments.

    Exact replacement for the (wave, warp, step) stable argsort when
    every segment is internally key-sorted — which arena segments are
    by construction; the kernel re-verifies on the fly and ``None`` is
    returned on any violation (or unsupported dtypes), falling back to
    the radix sort.
    """
    K = runtime.kernels()
    if K is None or not (_c32(wave) and _c32(warp) and _c32(step)):
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
        rc = K["merge_order_i32"](
            _p(wave), _p(warp), _p(step), _p(seg_off), nseg, wb, sb,
            a.ptr("mo_heap_key", nseg), a.ptr("mo_heap_seg", nseg),
            a.ptr("mo_pos", nseg), _p(perm),
        )
    if rc != 0:
        return None
    return perm


#: Largest line id the fused hierarchy walk will size a direct-address
#: last-seen table for (two int64 arrays; 1 << 24 lines = 256 MiB cap).
WALK_LINE_CAP = 1 << 24


def _line_suffix(line) -> str:
    return "i32" if line.dtype == np.int32 else "i64"


def walk_supported(order, kind, line, sm):
    """Dtype/contiguity precheck for the fused hierarchy walk.

    The walk consumes RNG draws between its passes, so every reason to
    decline must be established *before* any pass runs — a mid-walk
    fallback would leave the generator's stream diverged from the
    reference path's.
    """
    return (
        _c64(order)
        and kind.dtype == np.uint8 and kind.flags.c_contiguous
        and _c32(sm)
        and line.dtype in (np.int32, np.int64)
        and line.flags.c_contiguous
        and active()
    )


def walk_stats(kind, sm, line, num_sms, ldg_code, atomic_code):
    """Order-free stream facts: per-SM __ldg counts, atomics, maxima.

    Returns ``(ldg_per_sm, num_atomics, max_line, max_sm)``; the caller
    validates ``max_sm < num_sms`` and ``max_line`` against the table
    cap before committing to the fused path.
    """
    ldg_per_sm = np.zeros(int(num_sms), dtype=np.int64)
    out3 = np.zeros(3, dtype=np.int64)
    runtime.kernels()[f"walk_stats_{_line_suffix(line)}"](
        _p(kind), _p(sm), _p(line), kind.shape[0], int(num_sms),
        int(ldg_code), int(atomic_code), _p(ldg_per_sm), _p(out3),
    )
    return ldg_per_sm, int(out3[0]), int(out3[1]), int(out3[2])


def walk_ro(order, kind, line, sm, ldg_code, rep_sm, rep_count, max_line):
    """Representative-SM __ldg substream reuse gaps, in issue order.

    ``gap[j]`` is the substream-position gap to the previous touch of
    the same line (-1 = first touch) — exactly the ``idx - prev`` pairs
    the argsort formulation feeds its threshold test.
    """
    gap = np.empty(int(rep_count), dtype=np.int64)
    with _arena() as a:
        k = runtime.kernels()[f"walk_ro_{_line_suffix(line)}"](
            _p(order), _p(kind), _p(line), _p(sm), order.shape[0],
            int(ldg_code), int(rep_sm), _p(gap), *_walk_tables(a, max_line),
            a.next_epoch(),
        )
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
    # Written straight into arrays the caller keeps: no copy on return.
    l2_gap = np.empty(n, dtype=np.int64)
    l2_stall = np.empty(n, dtype=np.uint8)
    with _arena() as a:
        runtime.kernels()[f"walk_l2_{_line_suffix(line)}"](
            _p(order), _p(kind), _p(line), _p(sm), n, int(ldg_code),
            int(store_code), int(rep_sm), _p(rep_hits), _p(draws),
            float(rate), _p(l2_gap), _p(l2_stall),
            *_walk_tables(a, max_line), a.next_epoch(), _p(out2),
        )
    l2n = int(out2[0])
    return l2_gap[:l2n], l2_stall[:l2n], int(out2[1])


def issue_order(key):
    """Stable argsort of the packed issue keys (radix LSD ≡ kind='stable').

    Keys must be non-negative int64 (the trace builder guarantees this —
    it falls back to lexsort before keys could reach 2**62).
    """
    K = runtime.kernels()
    if K is None or not _c64(key):
        return None
    n = key.shape[0]
    perm = np.empty(n, dtype=np.int64)
    if n == 0:
        return perm
    with _arena() as a:
        K["issue_order"](
            _p(key), n, _p(perm), a.ptr("io_tmp_perm", n),
            a.ptr("io_key_buf", n), a.ptr("io_tmp_key", n),
        )
    return perm


def _reset_for_tests() -> None:
    """Drop the idle scratch arenas (test isolation)."""
    with _ARENA_LOCK:
        _ARENAS.clear()
