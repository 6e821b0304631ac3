"""Compiled kernel tier for the simulated-GPU engine.

``backend='compiled'`` runs the same scheme recipes as ``gpusim`` but
routes the hot functional loop bodies — mex resolution, the fused wave
coloring loop, conflict detection, worklist compaction, and the
integer pricing primitives (reuse-distance scan, trace coalescing,
issue ordering) — through C kernels built with the system compiler and
bound via ctypes (:mod:`.cc`).  Without a working compiler the hooks
decline and the unchanged pure-NumPy paths run, with a one-time
warning (:mod:`.runtime`).

Results are byte-identical either way (and to ``backend='gpusim'``):
the C kernels are exact integer twins of the NumPy formulations, and
the pricing half charges the same descriptors either way.  See
docs/PERFORMANCE.md.
"""

from .dispatch import active, scope
from .runtime import current_tier, get_kernels, warmup

__all__ = [
    "scope",
    "active",
    "warmup",
    "get_kernels",
    "current_tier",
]
