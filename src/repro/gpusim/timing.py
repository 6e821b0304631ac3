"""The timing model: prices a :class:`KernelTrace` in simulated cycles.

Structure (classic bottleneck/latency model, cf. GPU analytical models in
the literature): a kernel's duration is the *maximum* of four overlapping
resource demands —

* **compute**: warp instructions over the SMs' issue bandwidth,
* **memory latency**: per-transaction latencies (after the cache hierarchy)
  divided by the memory-level parallelism that resident warps provide —
  this is the term warp interleaving attacks, and the one that dominates
  graph coloring (paper Fig. 3),
* **memory bandwidth**: DRAM bytes over peak bandwidth,
* **atomics**: serialized service at the per-partition atomic units,

plus additive synchronization cost.  The same structure produces the
paper's Fig. 3 profile (both utilizations < 60 %, memory-dependency stalls
dominant), Fig. 8 (occupancy-controlled latency hiding) and the
atomic-vs-prefix-sum gap (Fig. 5) without any per-figure tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..compiledsim import dispatch as _compiled
from .cache import (
    analytic_hits,
    reuse_distance_hits,
    SetAssociativeCache,
    CacheConfig,
    _stack_distance_threshold,
)
from .config import DeviceConfig
from .occupancy import Occupancy, compute_occupancy
from .trace import AccessKind, KernelTrace

__all__ = ["MemoryStats", "KernelProfile", "price_kernel"]

#: Cycles a block-wide barrier costs (pipeline drain + reconvergence).
_BARRIER_CYCLES = 40
#: Fraction of compute cycles stalled on in-register dependent chains.
_EXEC_DEP_FACTOR = 0.18
#: Small fixed profiler categories (fractions of total stall attribution).
_FIXED_STALLS = {"instruction_fetch": 0.03, "not_selected": 0.07, "other": 0.04}


@dataclass
class MemoryStats:
    """Cache-hierarchy outcome for one kernel launch."""

    transactions: int = 0
    ldg_accesses: int = 0
    ro_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    dram_transactions: int = 0
    dram_bytes: int = 0
    total_latency_cycles: float = 0.0

    @property
    def ro_hit_rate(self) -> float:
        return self.ro_hits / self.ldg_accesses if self.ldg_accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0


@dataclass
class KernelProfile:
    """Priced launch: duration, bottleneck, utilizations, stall breakdown."""

    name: str
    cycles: float
    time_us: float
    num_blocks: int
    block_size: int
    occupancy: float
    bound: str  # 'compute' | 'memory_latency' | 'memory_bandwidth' | 'atomic'
    terms: dict[str, float]  # resource-demand cycles per term
    stalls: dict[str, float]  # stall-reason fractions (sum to 1)
    memory: MemoryStats
    simd_efficiency: float
    compute_utilization: float  # fraction of peak issue bandwidth achieved
    bandwidth_utilization: float  # fraction of peak DRAM bandwidth achieved
    extra: dict = field(default_factory=dict)


def _walk_hierarchy(
    trace: KernelTrace,
    device: DeviceConfig,
    *,
    cache_model: str,
    rng: np.random.Generator,
) -> tuple[MemoryStats, float]:
    """Run the transaction stream through RO cache -> L2 -> DRAM.

    Returns the populated :class:`MemoryStats` and the summed *stalling*
    latency (stores are write-buffered and do not stall the pipeline, but
    their DRAM traffic still counts against bandwidth).
    """
    mem = trace.memory
    stats = MemoryStats(transactions=len(mem))
    if len(mem) == 0:
        return stats, 0.0

    if cache_model == "reuse_distance":
        fused = _compiled_hierarchy(mem, device, rng)
        if fused is not None:
            return fused

    order = mem.issue_order()
    kind = mem.kind[order]
    line = mem.line_id[order]
    sm = mem.sm_id[order]

    is_ldg = kind == AccessKind.LDG
    stats.ldg_accesses = int(np.count_nonzero(is_ldg))

    # --- Read-only (texture) cache: private per SM.  Simulate the busiest
    # SM's stream exactly and extrapolate its hit rate to the device: block
    # scheduling is round-robin, so per-SM streams are statistically alike.
    ro_hit = np.zeros(len(mem), dtype=bool)
    if stats.ldg_accesses:
        # bincount over the small SM-id range; argmax breaks count ties
        # toward the lowest id exactly as the sorted-unique version did.
        counts = np.bincount(sm[is_ldg], minlength=device.num_sms)
        rep_sm = int(np.argmax(counts))
        rep_mask = is_ldg & (sm == rep_sm)
        rep_lines = line[rep_mask]
        if cache_model == "exact":
            ro = SetAssociativeCache(
                CacheConfig(device.readonly_cache_bytes, device.cache_line_bytes,
                            device.readonly_cache_ways)
            )
            rep_hits = ro.run(rep_lines)
        elif cache_model == "analytic":
            n_uniq = int(np.unique(rep_lines).size)
            hits = analytic_hits(rep_lines.size, n_uniq, device.readonly_cache_lines)
            rep_hits = np.zeros(rep_lines.size, dtype=bool)
            rep_hits[: min(hits, rep_lines.size)] = True  # count-only placeholder
        else:
            rep_hits = reuse_distance_hits(rep_lines, device.readonly_cache_lines)
        rate = float(rep_hits.mean()) if rep_hits.size else 0.0
        ro_hit[rep_mask] = rep_hits
        other = is_ldg ^ rep_mask  # rep_mask ⊆ is_ldg: ldg on the other SMs
        # Other SMs: Bernoulli with the measured rate (deterministic rng).
        ro_hit[other] = rng.random(int(other.sum())) < rate
        stats.ro_hits = int(ro_hit.sum())

    # --- L2: device-wide, sees everything the RO cache did not absorb.
    to_l2 = ~ro_hit
    l2_lines = line[to_l2]
    stats.l2_accesses = int(l2_lines.size)
    if cache_model == "exact":
        l2 = SetAssociativeCache(
            CacheConfig(device.l2_cache_bytes, device.cache_line_bytes, device.l2_cache_ways)
        )
        l2_hit_sub = l2.run(l2_lines)
    elif cache_model == "analytic":
        n_uniq = int(np.unique(l2_lines).size)
        hits = analytic_hits(l2_lines.size, n_uniq, device.l2_cache_lines)
        l2_hit_sub = np.zeros(l2_lines.size, dtype=bool)
        if l2_lines.size:
            l2_hit_sub[rng.permutation(l2_lines.size)[:hits]] = True
    else:
        l2_hit_sub = reuse_distance_hits(l2_lines, device.l2_cache_lines)
    l2_hit = np.zeros(len(mem), dtype=bool)
    l2_hit[to_l2] = l2_hit_sub
    stats.l2_hits = int(l2_hit.sum())

    dram = to_l2 & ~l2_hit
    stats.dram_transactions = int(dram.sum())
    stats.dram_bytes = stats.dram_transactions * device.cache_line_bytes

    # --- stalling latency: loads and ldg block dependents; atomics return a
    # value (the paper's worklist push uses atomicAdd's return), so they
    # stall too; plain stores retire through the write buffer.  Every
    # access lands in exactly one of {ro_hit, l2_hit, dram}, so the total
    # is count x latency per level; latencies are integer cycles, so the
    # integer sum equals the old per-access float array's sum exactly.
    stalls = ~(kind == AccessKind.STORE)
    is_atomic = kind == AccessKind.ATOMIC
    total = (
        stats.ro_hits * device.readonly_hit_latency  # RO hits are ldg-only
        + int(np.count_nonzero(l2_hit & stalls)) * device.l2_hit_latency
        + int(np.count_nonzero(dram & stalls)) * device.dram_latency
        + int(np.count_nonzero(is_atomic)) * device.atomic_op_cycles
    )
    stats.total_latency_cycles = float(total)
    return stats, stats.total_latency_cycles


def _reuse_gap_hits(gap: np.ndarray, capacity_lines: int) -> np.ndarray:
    """Hit mask from substream reuse gaps (-1 = first touch).

    Exactly :func:`~repro.gpusim.cache.reuse_distance_hits` on the same
    substream: first touches are compulsory misses, re-touches hit when
    their gap clears the expected-stack-distance threshold.
    """
    if capacity_lines <= 0:
        return np.zeros(gap.size, dtype=bool)
    num_unique = int(np.count_nonzero(gap < 0))
    threshold = _stack_distance_threshold(num_unique, capacity_lines)
    if math.isinf(threshold):
        return gap >= 0
    return (gap >= 0) & (gap <= threshold)


def _compiled_hierarchy(
    mem, device: DeviceConfig, rng: np.random.Generator
) -> tuple[MemoryStats, float] | None:
    """Fused C-tier hierarchy walk; ``None`` declines.

    Two C passes over the transaction stream in issue order replace the
    vectorized path's permutation gathers, mask algebra, substream
    compactions and argsort-based reuse scans.  Every decision the
    vectorized path makes is reproduced bit-for-bit: the same
    representative-SM choice, the same substream reuse gaps against the
    same thresholds, and the same Bernoulli draws consumed in the same
    order — so this path must decline *before* the first RNG draw or
    not at all.
    """
    order = mem.issue_order()
    if not _compiled.walk_supported(order, mem.kind, mem.line_id, mem.sm_id):
        return None
    ldg = int(AccessKind.LDG)
    ldg_per_sm, num_atomics, max_line, max_sm = _compiled.walk_stats(
        mem.kind, mem.sm_id, mem.line_id, device.num_sms, ldg,
        int(AccessKind.ATOMIC),
    )
    if max_sm >= device.num_sms or max_line >= _compiled.WALK_LINE_CAP:
        return None

    stats = MemoryStats(transactions=len(mem))
    stats.ldg_accesses = int(ldg_per_sm.sum())
    if stats.ldg_accesses:
        rep_sm = int(np.argmax(ldg_per_sm))
        rep_gap = _compiled.walk_ro(
            order, mem.kind, mem.line_id, mem.sm_id, ldg, rep_sm,
            int(ldg_per_sm[rep_sm]), max_line,
        )
        rep_hits = _reuse_gap_hits(rep_gap, device.readonly_cache_lines)
        rate = float(rep_hits.mean()) if rep_hits.size else 0.0
        draws = rng.random(stats.ldg_accesses - rep_gap.size)
    else:
        rep_sm = -1
        rep_hits = np.zeros(0, dtype=bool)
        draws = np.zeros(0)
        rate = 0.0

    l2_gap, l2_stall, ro_hits = _compiled.walk_l2(
        order, mem.kind, mem.line_id, mem.sm_id, ldg,
        int(AccessKind.STORE), rep_sm, rep_hits, draws, rate, max_line,
    )
    stats.ro_hits = ro_hits
    stats.l2_accesses = int(l2_gap.size)
    l2_hit_sub = _reuse_gap_hits(l2_gap, device.l2_cache_lines)
    stats.l2_hits = int(np.count_nonzero(l2_hit_sub))
    stats.dram_transactions = stats.l2_accesses - stats.l2_hits
    stats.dram_bytes = stats.dram_transactions * device.cache_line_bytes

    stall_sub = l2_stall.view(bool)
    total = (
        stats.ro_hits * device.readonly_hit_latency
        + int(np.count_nonzero(l2_hit_sub & stall_sub)) * device.l2_hit_latency
        + int(np.count_nonzero(~l2_hit_sub & stall_sub)) * device.dram_latency
        + num_atomics * device.atomic_op_cycles
    )
    stats.total_latency_cycles = float(total)
    return stats, stats.total_latency_cycles


def _atomic_serialization(trace: KernelTrace, device: DeviceConfig) -> float:
    """Cycles the busiest atomic partition spends servicing this launch.

    Addresses map to memory partitions by line id; every atomic to the same
    partition serializes at its atomic unit, so one hot counter (the naive
    worklist tail pointer) lands its entire operation count on one unit.
    """
    addrs = trace.atomic_addresses
    if addrs.size == 0:
        return 0.0
    lines = addrs >> (int(device.cache_line_bytes).bit_length() - 1)
    partitions = lines % device.num_memory_partitions
    load = np.bincount(partitions.astype(np.int64), minlength=device.num_memory_partitions)
    return float(load.max()) * device.atomic_op_cycles


def price_kernel(
    trace: KernelTrace,
    device: DeviceConfig,
    *,
    occupancy: Occupancy | None = None,
    cache_model: str = "reuse_distance",
    seed: int = 0,
) -> KernelProfile:
    """Price one kernel launch; see module docstring for the model."""
    if occupancy is None:
        occupancy = compute_occupancy(device, trace.launch)
    rng = np.random.default_rng(seed)

    mem_stats, stall_latency = _walk_hierarchy(
        trace, device, cache_model=cache_model, rng=rng
    )

    # Resident parallelism: how many blocks actually run concurrently.  A
    # small grid cannot fill the device no matter the occupancy limit.
    resident_blocks = min(trace.num_blocks, occupancy.blocks_per_sm * device.num_sms)
    busy_sms = min(device.num_sms, trace.num_blocks)
    warps_per_sm = max(
        1.0, resident_blocks * occupancy.warps_per_block / max(busy_sms, 1)
    )

    # --- resource-demand terms (cycles) ------------------------------
    compute_cycles = (
        trace.compute.warp_instructions / device.issue_slots_per_cycle / max(busy_sms, 1)
    )
    mlp = warps_per_sm * device.max_outstanding_per_warp
    latency_cycles = (stall_latency / max(busy_sms, 1)) / mlp
    bandwidth_cycles = mem_stats.dram_bytes / device.dram_bytes_per_cycle
    atomic_cycles = _atomic_serialization(trace, device)
    sync_cycles = trace.compute.barriers * _BARRIER_CYCLES / max(busy_sms, 1)

    terms = {
        "compute": compute_cycles,
        "memory_latency": latency_cycles,
        "memory_bandwidth": bandwidth_cycles,
        "atomic": atomic_cycles,
        "synchronization": sync_cycles,
    }
    bound = max(
        ("compute", "memory_latency", "memory_bandwidth", "atomic"),
        key=lambda k: terms[k],
    )
    cycles = max(compute_cycles, latency_cycles, bandwidth_cycles, atomic_cycles)
    cycles += sync_cycles
    # Pipeline ramp: the first accesses of each wave cannot be overlapped.
    waves = max(1, -(-trace.num_blocks // max(resident_blocks, 1)))
    cycles += waves * device.dram_latency
    time_us = cycles / device.cycles_per_us

    # --- stall attribution (Fig. 3b categories) -----------------------
    stall_sources = {
        "memory_dependency": latency_cycles + bandwidth_cycles + atomic_cycles,
        "execution_dependency": compute_cycles * _EXEC_DEP_FACTOR,
        "synchronization": sync_cycles,
    }
    src_total = sum(stall_sources.values()) or 1.0
    variable = 1.0 - sum(_FIXED_STALLS.values())
    stalls = {k: variable * v / src_total for k, v in stall_sources.items()}
    stalls.update(_FIXED_STALLS)

    return KernelProfile(
        name=trace.name,
        cycles=cycles,
        time_us=time_us,
        num_blocks=trace.num_blocks,
        block_size=trace.launch.block_size,
        occupancy=occupancy.fraction(device),
        bound=bound,
        terms=terms,
        stalls=stalls,
        memory=mem_stats,
        simd_efficiency=trace.compute.simd_efficiency,
        compute_utilization=min(1.0, compute_cycles / cycles) if cycles else 0.0,
        bandwidth_utilization=min(1.0, bandwidth_cycles / cycles) if cycles else 0.0,
    )
