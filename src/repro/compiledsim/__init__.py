"""The C kernel tier of the simulated-GPU engine.

Every ``gpusim`` and ``cpusim`` run routes the hot functional loop
bodies — mex resolution, the fused wave coloring loop, conflict
detection, worklist compaction, and the integer pricing primitives
(reuse-distance scan, trace coalescing, issue ordering, the cache
hierarchy walk) — through C kernels built with the system compiler and
bound via ctypes (:mod:`.cc`).  The table is resolved once per process,
on first use.  Without a working compiler the hooks decline and the
pure-NumPy paths run instead, with a one-time warning (:mod:`.runtime`).

Results are byte-identical either way: the C kernels are exact integer
twins of the NumPy formulations, and the pricing half charges the same
descriptors either way.  See docs/PERFORMANCE.md.
"""

from .dispatch import active
from .runtime import current_tier, get_kernels, warmup

__all__ = [
    "active",
    "warmup",
    "get_kernels",
    "current_tier",
]
