"""Cache models for the simulated memory hierarchy.

Three fidelity levels, trading accuracy against speed:

1. :class:`SetAssociativeCache` — an exact sequential set-associative LRU
   simulator.  O(1) per access but Python-loop bound; used as the ground
   truth that the fast models are validated against in the test suite, and
   usable directly on small traces.
2. :func:`reuse_distance_hits` — the production model.  Fully vectorized:
   computes every access's reuse distance (accesses since the previous
   touch of the same line) and converts it to an expected *stack* distance
   (distinct lines in the window) under a uniform-popularity approximation,
   then thresholds against capacity.  This is the classical average-stack-
   distance approximation for fully-associative LRU.
3. :func:`analytic_hits` — no trace at all, just access and footprint
   counts; used by the ``analytic`` timing backend for very large graphs.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..compiledsim import dispatch as _compiled

__all__ = [
    "CacheConfig",
    "SetAssociativeCache",
    "reuse_distance_hits",
    "analytic_hits",
    "CacheModelChoice",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int = 128
    ways: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a whole number of lines")
        if self.num_lines % self.ways:
            raise ValueError("lines must divide evenly into ways")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


class SetAssociativeCache:
    """Exact set-associative LRU cache simulator (reference model).

    Per-set ``OrderedDict`` recency lists make each access O(1); this is
    the slow-but-exact baseline for validating the vectorized model.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, line_id: int) -> bool:
        """Touch ``line_id``; returns True on hit."""
        s = self._sets[line_id % self.config.num_sets]
        if line_id in s:
            s.move_to_end(line_id)
            self.hits += 1
            return True
        self.misses += 1
        if len(s) >= self.config.ways:
            s.popitem(last=False)
        s[line_id] = True
        return False

    def run(self, line_ids: np.ndarray) -> np.ndarray:
        """Simulate a whole stream; returns a boolean hit mask."""
        out = np.empty(len(line_ids), dtype=bool)
        for i, lid in enumerate(np.asarray(line_ids, dtype=np.int64)):
            out[i] = self.access(int(lid))
        return out

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _stack_distance_threshold(num_unique: int, capacity_lines: int) -> float:
    """Largest reuse distance that still hits, under uniform popularity.

    In a reference window of length ``L`` drawn from ``U`` equally likely
    lines, the expected number of distinct lines is ``U * (1 - (1-1/U)^L)``
    ≈ ``U * (1 - exp(-L/U))``.  An LRU cache of ``C`` lines hits when that
    count is below ``C``; inverting gives the threshold on ``L``.
    """
    if num_unique <= capacity_lines:
        return math.inf
    frac = capacity_lines / num_unique
    return -num_unique * math.log1p(-frac)


def reuse_distance_hits(line_ids: np.ndarray, capacity_lines: int) -> np.ndarray:
    """Vectorized LRU approximation: boolean hit mask for a line-id stream.

    Every access's reuse distance (index gap to the previous access of the
    same line) is computed with one stable argsort; the hit/miss decision
    thresholds the gap against the expected-stack-distance inversion above.
    First touches are compulsory misses.
    """
    # Keep the caller's (integer) dtype: the stable argsort below is a
    # radix sort, so int32 line-id streams sort in half the passes.
    line_ids = np.asarray(line_ids)
    n = line_ids.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    if capacity_lines <= 0:
        return np.zeros(n, dtype=bool)

    scanned = _compiled.reuse_prev(line_ids)
    if scanned is not None:
        # C tier: one O(n) last-seen hash scan. The (idx, prev)
        # pair set is exactly the argsort formulation's — the uses below
        # are a scatter and an elementwise gap test, both order-free.
        idx, prev, num_unique = scanned
    else:
        order = np.argsort(line_ids, kind="stable")
        sorted_ids = line_ids[order]
        same_as_prev = np.empty(n, dtype=bool)
        same_as_prev[0] = False
        np.equal(sorted_ids[1:], sorted_ids[:-1], out=same_as_prev[1:])

        # Work on the re-touch subset only: first touches are compulsory
        # misses, so there is no need to materialize full-size prev-index
        # and gap arrays just to mask them out again.
        repeat_pos = np.flatnonzero(same_as_prev)
        idx = order[repeat_pos]  # stream position of each re-touch
        prev = order[repeat_pos - 1]  # previous touch of the same line
        num_unique = n - repeat_pos.size

    threshold = _stack_distance_threshold(num_unique, capacity_lines)

    hits = np.zeros(n, dtype=bool)
    if math.isinf(threshold):
        hits[idx] = True
    else:
        hits[idx[(idx - prev) <= threshold]] = True
    return hits


def analytic_hits(num_accesses: int, num_unique_lines: int, capacity_lines: int) -> int:
    """Expected hit count without a trace (footprint model).

    If the working set fits, only compulsory misses remain.  Otherwise each
    re-access hits with probability ``capacity / footprint`` (steady-state
    LRU under uniform random access).
    """
    if num_accesses <= 0 or num_unique_lines <= 0:
        return 0
    reuses = max(0, num_accesses - num_unique_lines)
    if num_unique_lines <= capacity_lines:
        return reuses
    return int(round(reuses * capacity_lines / num_unique_lines))


#: Names accepted by timing backends for cache-model selection.
CacheModelChoice = ("reuse_distance", "exact", "analytic")
