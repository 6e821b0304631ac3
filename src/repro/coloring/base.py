"""Common result types and verification for all coloring schemes.

Colors are 1-based ``int32``; 0 means *uncolored*.  Every scheme returns a
:class:`ColoringResult` whose :meth:`validate` proves properness — the test
suite calls it on every scheme x graph combination, because speculative
algorithms are exactly the kind that can silently leave conflicts behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "ColoringError",
    "ColoringResult",
    "RESULT_SCHEMA_VERSION",
    "count_conflicts",
    "color_class_sizes",
    "save_result",
    "load_result",
]

COLOR_DTYPE = np.int32

#: Current (and only) ``ColoringResult.to_dict`` schema version.
RESULT_SCHEMA_VERSION = 1


class ColoringError(RuntimeError):
    """Raised when a produced coloring fails verification."""


#: ``extra`` keys migrated to the typed result surface.  Reading them
#: through the bag was deprecated (DeprecationWarning), escalated
#: (FutureWarning), and is now removed: the typed properties are the only
#: supported spelling.
_MIGRATED_EXTRA = {
    "observation": "result.observation",
    "cache_hit": "result.cache_hit",
    "shard_stats": "result.shard_stats",
    "robustness": "result.robustness",
}


def _removed_extra_message(key: str) -> str:
    return (
        f"result.extra[{key!r}] was removed; read {_MIGRATED_EXTRA[key]} "
        f"instead (or result.to_dict(schema_version=1) for the documented "
        f"mapping — see docs/API.md, 'Deprecations')"
    )


class _ExtraBag(dict):
    """Scheme-specific result outputs (``block_size``, ``fraction``, ...).

    The typed keys that used to live here — ``observation``,
    ``cache_hit``, ``shard_stats``, ``robustness`` — completed their
    deprecation cycle: reading them through the bag now raises with a
    pointer at the same-named :class:`ColoringResult` property.  Writes
    stay open (the engine still populates the bag), and scheme-specific
    keys read normally.
    """

    def __getitem__(self, key):
        if key in _MIGRATED_EXTRA:
            raise KeyError(_removed_extra_message(key))
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        if key in _MIGRATED_EXTRA:
            raise KeyError(_removed_extra_message(key))
        return dict.get(self, key, default)

    def peek(self, key, default=None):
        """Direct read, for the typed accessors themselves."""
        return dict.get(self, key, default)


def count_conflicts(graph: CSRGraph, colors: np.ndarray) -> int:
    """Number of undirected edges whose endpoints share a (positive) color."""
    u, v = graph.edge_endpoints()
    keep = u < v
    u, v = u[keep], v[keep]
    same = (colors[u] == colors[v]) & (colors[u] > 0)
    return int(same.sum())


def color_class_sizes(colors: np.ndarray) -> np.ndarray:
    """``sizes[c-1]`` = number of vertices with color ``c`` (1-based input)."""
    colors = np.asarray(colors)
    pos = colors[colors > 0]
    if pos.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(pos, minlength=int(pos.max()) + 1)[1:]


@dataclass
class ColoringResult:
    """Outcome of one coloring run.

    Attributes
    ----------
    colors:
        Per-vertex colors, 1-based; verified complete by :meth:`validate`.
    scheme:
        Scheme identifier (``sequential``, ``topo-base``, ``csrcolor``, ...).
    iterations:
        Outer (bulk-synchronous) rounds until convergence.
    gpu_time_us / cpu_time_us / transfer_time_us:
        Simulated time components; ``total_time_us`` is their sum and is
        what the paper's speedup figures compare.
    num_kernel_launches:
        Kernel launches issued (each also carries fixed launch overhead).
    profiles:
        Per-launch :class:`~repro.gpusim.timing.KernelProfile` objects, for
        the Fig. 3-style analyses.
    """

    colors: np.ndarray
    scheme: str
    iterations: int = 0
    gpu_time_us: float = 0.0
    cpu_time_us: float = 0.0
    transfer_time_us: float = 0.0
    num_kernel_launches: int = 0
    profiles: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.extra, _ExtraBag):
            self.extra = _ExtraBag(self.extra)

    @property
    def num_colors(self) -> int:
        """Number of distinct colors used."""
        return int(self.colors.max()) if self.colors.size else 0

    @property
    def total_time_us(self) -> float:
        return self.gpu_time_us + self.cpu_time_us + self.transfer_time_us

    # -- the typed surface over the legacy ``extra`` bag ----------------
    @property
    def observation(self):
        """The :class:`~repro.obs.tracer.Tracer` this run recorded into
        (``observe=`` was passed), or ``None``."""
        return self.extra.peek("observation")

    @property
    def cache_hit(self) -> bool:
        """True when this result was served from a result cache instead
        of executing the scheme (see :mod:`repro.parallel.cache`)."""
        return bool(self.extra.peek("cache_hit", False))

    @property
    def shard_stats(self) -> dict | None:
        """Per-shard and boundary-resolution statistics from
        partition-sharded coloring (:func:`repro.parallel.color_sharded`),
        or ``None`` for unsharded runs."""
        return self.extra.peek("shard_stats")

    @property
    def robustness(self) -> dict | None:
        """The fault/degradation report of this run (``faults=`` /
        ``health=`` was passed, or a resilience feature — deadline,
        checkpoint, breaker — was active; see :mod:`repro.faults` and
        :mod:`repro.resilience`), or ``None``.  Keys: ``plan``,
        ``seed``, ``fired``, ``degradations``, plus ``breaker`` /
        ``checkpoint`` / ``deadline`` / ``resumed`` when those features
        ran."""
        return self.extra.peek("robustness")

    def to_dict(self, schema_version: int = RESULT_SCHEMA_VERSION) -> dict:
        """The versioned, documented mapping view of this result.

        Schema version 1 keys:

        ==================== ==============================================
        ``schema_version``   the integer ``1``
        ``scheme``           scheme identifier string
        ``colors``           the per-vertex color array (``int32``, 1-based)
        ``num_colors``       distinct colors used
        ``iterations``       bulk-synchronous rounds to convergence
        ``gpu_time_us`` / ``cpu_time_us`` / ``transfer_time_us`` /
        ``total_time_us``    simulated time components and their sum
        ``num_kernel_launches``  kernel launches issued
        ``observation``      attached ``Tracer`` or ``None``
        ``cache_hit``        served from a result cache (bool)
        ``shard_stats``      sharded-run statistics dict or ``None``
        ``robustness``       fault/degradation/resilience report or ``None``
        ==================== ==============================================

        Downstream consumers read this (or the same-named typed
        properties); ``result.extra`` holds only scheme-specific outputs
        — the migrated keys above raise when keyed from the bag.
        """
        if schema_version != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unknown ColoringResult schema_version {schema_version!r}; "
                f"this build writes version {RESULT_SCHEMA_VERSION}"
            )
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "scheme": self.scheme,
            "colors": self.colors,
            "num_colors": self.num_colors,
            "iterations": self.iterations,
            "gpu_time_us": self.gpu_time_us,
            "cpu_time_us": self.cpu_time_us,
            "transfer_time_us": self.transfer_time_us,
            "total_time_us": self.total_time_us,
            "num_kernel_launches": self.num_kernel_launches,
            "observation": self.observation,
            "cache_hit": self.cache_hit,
            "shard_stats": self.shard_stats,
            "robustness": self.robustness,
        }

    def validate(self, graph: CSRGraph) -> None:
        """Raise :class:`ColoringError` unless complete and proper."""
        if self.colors.shape != (graph.num_vertices,):
            raise ColoringError(
                f"{self.scheme}: color array has shape {self.colors.shape}, "
                f"expected ({graph.num_vertices},)"
            )
        uncolored = int((self.colors <= 0).sum())
        if uncolored:
            raise ColoringError(f"{self.scheme}: {uncolored} vertices left uncolored")
        conflicts = count_conflicts(graph, self.colors)
        if conflicts:
            raise ColoringError(f"{self.scheme}: {conflicts} conflicting edges remain")

    def balance(self) -> float:
        """Color-class balance: max class size over mean class size (>= 1).

        1.0 is perfectly balanced; large values mean a few huge classes —
        relevant when colors schedule parallel work (a straggler class
        serializes the computation it gates).
        """
        sizes = color_class_sizes(self.colors)
        if sizes.size == 0:
            return 1.0
        return float(sizes.max() / sizes.mean())

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.scheme}: {self.num_colors} colors, "
            f"{self.iterations} iterations, "
            f"{self.total_time_us:.1f} us simulated "
            f"(gpu {self.gpu_time_us:.1f} + cpu {self.cpu_time_us:.1f} "
            f"+ pcie {self.transfer_time_us:.1f}), "
            f"{self.num_kernel_launches} launches"
        )


def save_result(result: "ColoringResult", path) -> None:
    """Persist a coloring result (colors + metadata) as ``.npz``.

    Profiles are summarized, not serialized — the colors, counts and
    timings are what experiments need to be reproducible.
    """
    from pathlib import Path

    np.savez_compressed(
        Path(path),
        colors=result.colors,
        scheme=np.array(result.scheme),
        iterations=np.array(result.iterations),
        gpu_time_us=np.array(result.gpu_time_us),
        cpu_time_us=np.array(result.cpu_time_us),
        transfer_time_us=np.array(result.transfer_time_us),
        num_kernel_launches=np.array(result.num_kernel_launches),
    )


def load_result(path) -> "ColoringResult":
    """Load a result previously written by :func:`save_result`."""
    from pathlib import Path

    with np.load(Path(path), allow_pickle=False) as data:
        return ColoringResult(
            colors=data["colors"].astype(COLOR_DTYPE),
            scheme=str(data["scheme"]),
            iterations=int(data["iterations"]),
            gpu_time_us=float(data["gpu_time_us"]),
            cpu_time_us=float(data["cpu_time_us"]),
            transfer_time_us=float(data["transfer_time_us"]),
            num_kernel_launches=int(data["num_kernel_launches"]),
        )
