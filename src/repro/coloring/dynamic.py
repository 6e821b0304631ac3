"""Incremental coloring maintenance under graph mutation.

Morph workloads (Nasre et al.'s other irregular-algorithm class) mutate
the graph while computing on it; recoloring from scratch per edit wastes
the existing coloring.  :class:`DynamicColoring` maintains a proper
coloring across edge insertions/deletions and vertex additions with
local repair:

* **insert(u, v)**: if the endpoints clash, the endpoint with the smaller
  saturated neighborhood recolors to its mex; colors only grow when the
  neighborhood truly forces it.
* **delete(u, v)**: never breaks properness; optionally *improves* the
  endpoints greedily, then re-examines the neighbors of any endpoint
  that actually shrank (its old color may have been the only thing
  keeping a neighbor high).
* **add_vertex()**: appends an isolated vertex with color 1.
* **apply(edits)**: batch edit application — topology changes land
  first, then one *dirty-neighborhood repair* pass fixes every clash at
  once using the engine's vectorized mex kernel
  (:func:`~repro.coloring.kernels.min_excluded_colors`) in speculative
  waves, exactly the paper's color/conflict round structure shrunk to
  the dirty frontier.

The typed surface (PR 8): the constructor accepts a
:class:`~repro.coloring.base.ColoringResult` (and a
:class:`~repro.engine.config.RunConfig` for full recolors); batch ops
and :meth:`result` return :class:`ColoringResult` with the same
versioned ``to_dict(schema_version=1)`` mapping as ``color_graph``.
Seeding or adopting a bare colors array raises :class:`TypeError`.

Quality drift: local repair can only grow the palette, so
``max_drift=k`` arms *compaction* — when the maintained palette exceeds
the last full recolor's by more than ``k`` colors, :meth:`recolor` runs
from scratch and resets the baseline.  The service session layer
(:mod:`repro.service`) drives the same policy through the engine pool.

The adjacency is held in per-vertex sorted arrays (amortized O(deg) per
edit); :meth:`to_graph` exports a CSRGraph snapshot for the static
algorithms and verification.
"""

from __future__ import annotations

import numpy as np

from ..graph.builder import from_edges
from ..graph.csr import CSRGraph
from .base import COLOR_DTYPE, ColoringError, ColoringResult

__all__ = ["DynamicColoring", "normalize_edits"]

#: Edit kinds accepted by :meth:`DynamicColoring.apply`.
EDIT_KINDS = ("insert", "delete", "add_vertex")


def _colors_of(coloring, where: str) -> np.ndarray:
    if not isinstance(coloring, ColoringResult):
        raise TypeError(
            f"{where} takes the ColoringResult a scheme returned, not "
            f"{type(coloring).__name__}"
        )
    return coloring.colors


def normalize_edits(edits) -> list[tuple]:
    """Validate an edit stream into ``(kind, ...)`` tuples.

    Accepted forms: ``("insert", u, v)``, ``("delete", u, v)``,
    ``("add_vertex",)``.  Malformed entries raise :class:`ValueError`
    up front, before any topology mutates.
    """
    out = []
    for edit in edits:
        edit = tuple(edit)
        if not edit or edit[0] not in EDIT_KINDS:
            raise ValueError(
                f"unknown edit {edit!r}; expected ('insert', u, v), "
                f"('delete', u, v), or ('add_vertex',)"
            )
        if edit[0] == "add_vertex":
            if len(edit) != 1:
                raise ValueError(f"add_vertex takes no operands: {edit!r}")
        elif len(edit) != 3:
            raise ValueError(f"{edit[0]} takes two endpoints: {edit!r}")
        else:
            edit = (edit[0], int(edit[1]), int(edit[2]))
        out.append(edit)
    return out


class DynamicColoring:
    """A proper coloring maintained across graph edits.

    Parameters
    ----------
    graph:
        Optional starting topology (a :class:`~repro.graph.csr.CSRGraph`);
        omit to grow a graph from nothing via :meth:`add_vertex`.
    coloring:
        Optional starting coloring: the :class:`ColoringResult` a scheme
        returned.  Default: a fresh coloring of ``graph`` via
        ``method``/``config``.
    method:
        Scheme used for fresh colorings and full recolors
        (:meth:`recolor`); the sequential greedy default skips the
        engine entirely.
    config:
        A :class:`~repro.engine.config.RunConfig` (or mapping) forwarded
        to ``color_graph`` for non-sequential fresh colorings and
        recolors.
    max_drift:
        Arm auto-compaction: after :meth:`apply`, if the palette exceeds
        the last full recolor's by more than this many colors, recolor
        from scratch.  ``None`` (default) never auto-compacts.
    """

    def __init__(
        self,
        graph: CSRGraph | None = None,
        coloring=None,
        *,
        method: str = "sequential",
        config=None,
        max_drift: int | None = None,
    ):
        from ..engine.config import resolve_run_config

        self._method = method
        self._config = resolve_run_config(config)
        self._max_drift = max_drift
        self._version = 0
        self._repaired = 0
        self._improved = 0
        self._compactions = 0
        if graph is None:
            self._adj: list[np.ndarray] = []
            self._colors = np.zeros(0, dtype=COLOR_DTYPE)
        else:
            self._adj = [graph.neighbors(v).astype(np.int64).copy()
                         for v in range(graph.num_vertices)]
            if coloring is None:
                arr = self._fresh_colors(graph)
            else:
                arr = _colors_of(coloring, "DynamicColoring(graph, coloring)")
            if arr.shape != (graph.num_vertices,):
                raise ValueError("colors must have one entry per vertex")
            self._colors = arr.astype(COLOR_DTYPE).copy()
            self._check_proper(graph)
        self._baseline = self.num_colors

    def _fresh_colors(self, graph: CSRGraph) -> np.ndarray:
        if self._method == "sequential" and self._config is None:
            from .sequential import greedy_colors_only

            return greedy_colors_only(graph)
        from .api import color_graph

        return color_graph(
            graph, self._method, config=self._config, validate=False
        ).colors

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_colors(self) -> int:
        return int(self._colors.max()) if self._colors.size else 0

    @property
    def version(self) -> int:
        """Monotone edit-batch counter (bumps once per mutating call)."""
        return self._version

    @property
    def baseline_colors(self) -> int:
        """Palette size at the last full (re)coloring — the drift anchor."""
        return self._baseline

    def color_of(self, v: int) -> int:
        return int(self._colors[v])

    def colors(self) -> np.ndarray:
        return self._colors.copy()

    def degree(self, v: int) -> int:
        return int(self._adj[v].size)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_ids(u, v)
        idx = np.searchsorted(self._adj[u], v)
        return idx < self._adj[u].size and self._adj[u][idx] == v

    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id."""
        vid = self._add_vertex_raw()
        self._version += 1
        return vid

    def _add_vertex_raw(self) -> int:
        self._adj.append(np.empty(0, dtype=np.int64))
        self._colors = np.append(self._colors, COLOR_DTYPE(1))
        return len(self._adj) - 1

    def insert(self, u: int, v: int) -> int | None:
        """Insert edge (u, v); returns the recolored endpoint, if any."""
        self._version += 1
        if not self._insert_raw(u, v):
            return None
        if self._colors[u] != self._colors[v]:
            return None
        # Repair: recolor the endpoint whose neighborhood leaves the
        # smallest mex (ties toward the lower degree — cheaper rescan).
        cand = min((u, v), key=lambda x: (self._mex(x), self.degree(x)))
        self._colors[cand] = self._mex(cand)
        self._repaired += 1
        return cand

    def _insert_raw(self, u: int, v: int) -> bool:
        """Topology-only insert; True when the edge is new."""
        self._check_ids(u, v)
        if u == v:
            raise ValueError("self-loops are not colorable")
        if self.has_edge(u, v):
            return False
        self._adj[u] = np.insert(self._adj[u], np.searchsorted(self._adj[u], v), v)
        self._adj[v] = np.insert(self._adj[v], np.searchsorted(self._adj[v], u), u)
        return True

    def delete(self, u: int, v: int, *, improve: bool = True) -> None:
        """Remove edge (u, v); optionally shrink colors nearby.

        With ``improve=True`` both endpoints greedily take their mex when
        it shrank, and the *neighbors* of any endpoint that improved are
        re-examined too: the endpoint's old color may have been the only
        color pinning a neighbor above its own mex.  (Historical bug:
        only the endpoints were examined, leaving reachable one-hop
        improvements on the table.)
        """
        self._version += 1
        self._delete_raw(u, v)
        if improve:
            self._improve_pass((u, v))

    def _delete_raw(self, u: int, v: int) -> None:
        self._check_ids(u, v)
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not present")
        self._adj[u] = np.delete(self._adj[u], np.searchsorted(self._adj[u], v))
        self._adj[v] = np.delete(self._adj[v], np.searchsorted(self._adj[v], u))

    def _improve_pass(self, candidates) -> int:
        """Greedy color shrinking, one neighbor level deep.

        Sequential on purpose: two adjacent vertices improved from the
        same snapshot could both claim the same smaller color.  Returns
        the number of vertices whose color shrank.
        """
        improved = []
        for x in dict.fromkeys(int(c) for c in candidates):
            m = self._mex(x)
            if m < self._colors[x]:
                self._colors[x] = m
                improved.append(x)
        # One level out: freeing x's old color can unlock its neighbors.
        for x in list(improved):
            for w in self._adj[x]:
                w = int(w)
                m = self._mex(w)
                if m < self._colors[w]:
                    self._colors[w] = m
                    improved.append(w)
        self._improved += len(improved)
        return len(improved)

    # ------------------------------------------------------------- batch
    def apply(self, edits, *, improve: bool = True) -> ColoringResult:
        """Apply an edit batch, then repair the dirty neighborhood once.

        Topology changes land first; clashing insert endpoints seed a
        dirty worklist that the engine-kernel repair loop
        (:meth:`_repair`) recolors in speculative waves; deleted-edge
        endpoints get the greedy improvement pass.  Auto-compaction runs
        afterwards when armed (``max_drift``).  Returns the versioned
        typed result snapshot (``extra["dynamic"]`` carries the batch
        report: counts of repaired/improved vertices, added vertex ids,
        whether compaction fired).
        """
        edits = normalize_edits(edits)
        dirty: set[int] = set()
        shrink: set[int] = set()
        added: list[int] = []
        for edit in edits:
            if edit[0] == "add_vertex":
                added.append(self._add_vertex_raw())
            elif edit[0] == "insert":
                _, u, v = edit
                if self._insert_raw(u, v) and self._colors[u] == self._colors[v]:
                    # Seed the cheaper endpoint, like the single-op path.
                    dirty.add(min((u, v),
                                  key=lambda x: (self._mex(x), self.degree(x))))
            else:
                _, u, v = edit
                self._delete_raw(u, v)
                if improve:
                    shrink.update((u, v))
        repaired = self._repair(dirty)
        improved = self._improve_pass(shrink) if shrink else 0
        self._version += 1
        compacted = self._maybe_compact()
        return self.result(
            op="apply", edits=len(edits), repaired=repaired,
            improved=improved, added=added, compacted=compacted,
        )

    def _repair(self, dirty) -> int:
        """Speculative dirty-neighborhood repair (engine-kernel rounds).

        Each round expands the worklist's adjacency into one CSR-shaped
        segment stream, takes the vectorized
        :func:`~repro.coloring.kernels.min_excluded_colors` per segment,
        and commits every clashing vertex at once.  Two adjacent dirty
        vertices can speculatively pick the same color — the paper's
        conflict rule (lower id keeps, higher id requeues) feeds the
        next round, so each conflict component settles its minimum per
        round and the loop terminates.
        """
        if not dirty:
            return 0
        from .kernels import min_excluded_colors

        work = np.fromiter(sorted(dirty), count=len(dirty), dtype=np.int64)
        repaired = 0
        while work.size:
            lens = np.fromiter(
                (self._adj[v].size for v in work), count=work.size,
                dtype=np.int64,
            )
            nbrs = (
                np.concatenate([self._adj[v] for v in work])
                if int(lens.sum()) else np.empty(0, dtype=np.int64)
            )
            seg = np.repeat(np.arange(work.size, dtype=np.int64), lens)
            nbr_colors = self._colors[nbrs]
            own = self._colors[work]
            clash = np.zeros(work.size, dtype=bool)
            np.logical_or.at(clash, seg, nbr_colors == own[seg])
            if not clash.any():
                break
            mex = min_excluded_colors(
                seg, nbr_colors, work.size, assume_sorted=True
            )
            self._colors[work[clash]] = mex[clash]
            repaired += int(clash.sum())
            # Conflict detection, dirty-frontier scale: a vertex requeues
            # only when it still clashes with a *lower-id* neighbor (the
            # keeper); everyone else is settled.
            work = np.array(
                [
                    int(v) for v in work[clash]
                    if np.any(
                        (self._colors[self._adj[v]] == self._colors[v])
                        & (self._adj[v] < v)
                    )
                ],
                dtype=np.int64,
            )
        self._repaired += repaired
        return repaired

    # ------------------------------------------------------- compaction
    def _maybe_compact(self) -> bool:
        if self._max_drift is None:
            return False
        if self.num_colors <= self._baseline + self._max_drift:
            return False
        self.recolor()
        return True

    def recolor(self, *, method: str | None = None, config=None) -> ColoringResult:
        """Full from-scratch recolor of the current topology (compaction).

        Resets the drift baseline; ``method``/``config`` default to the
        constructor's.  Returns the typed snapshot.
        """
        from ..engine.config import resolve_run_config

        saved = (self._method, self._config)
        if method is not None:
            self._method = method
        if config is not None:
            self._config = resolve_run_config(config)
        try:
            fresh = self._fresh_colors(self.to_graph())
        finally:
            self._method, self._config = saved if method is None and config is None else (
                self._method, self._config
            )
        self._colors = fresh.astype(COLOR_DTYPE).copy()
        self._version += 1
        self._compactions += 1
        self._baseline = self.num_colors
        return self.result(op="recolor")

    def adopt(self, coloring) -> None:
        """Replace the maintained colors with a full-recolor result.

        The service session layer routes compaction through the engine
        pool and hands the :class:`ColoringResult` back here; the drift
        baseline resets to the adopted palette.
        """
        arr = _colors_of(coloring, "DynamicColoring.adopt()")
        if arr.shape != (self.num_vertices,):
            raise ValueError("adopted colors must have one entry per vertex")
        self._colors = arr.astype(COLOR_DTYPE).copy()
        self._check_proper()
        self._version += 1
        self._compactions += 1
        self._baseline = self.num_colors

    # ------------------------------------------------------------------
    def result(self, *, op: str = "snapshot", **report) -> ColoringResult:
        """The versioned typed snapshot of the maintained coloring.

        Same surface as ``color_graph``: a :class:`ColoringResult` whose
        ``to_dict(schema_version=1)`` carries the documented mapping;
        ``iterations`` is the edit-batch version, ``extra["dynamic"]``
        the maintenance report.
        """
        res = ColoringResult(
            colors=self.colors(),
            scheme=f"dynamic:{self._method}",
            iterations=self._version,
        )
        res.extra["dynamic"] = {
            "op": op,
            "version": self._version,
            "num_vertices": self.num_vertices,
            "num_colors": self.num_colors,
            "baseline_colors": self._baseline,
            "repaired": self._repaired,
            "improved": self._improved,
            "compactions": self._compactions,
            **report,
        }
        return res

    # ------------------------------------------------------------------
    def _mex(self, v: int) -> int:
        nbr = self._colors[self._adj[v]]
        nbr = nbr[nbr > 0]
        if nbr.size == 0:
            return 1
        seen = np.zeros(int(nbr.max()) + 2, dtype=bool)
        seen[nbr] = True
        return int(np.argmin(seen[1:])) + 1

    def _check_ids(self, *ids: int) -> None:
        for x in ids:
            if not 0 <= x < len(self._adj):
                raise IndexError(f"vertex {x} out of range")

    def _check_proper(self, graph: CSRGraph | None = None) -> None:
        from .base import count_conflicts

        graph = graph if graph is not None else self.to_graph()
        conflicts = count_conflicts(graph, self._colors)
        if conflicts:
            raise ColoringError(
                f"input coloring is improper: {conflicts} conflicting edge(s)"
            )

    # ------------------------------------------------------------------
    def to_graph(self, *, name: str = "dynamic") -> CSRGraph:
        """Snapshot the current topology as an immutable CSRGraph."""
        us, vs = [], []
        for v, nbrs in enumerate(self._adj):
            if nbrs.size:
                us.append(np.full(nbrs.size, v, dtype=np.int64))
                vs.append(nbrs)
        if us:
            u = np.concatenate(us)
            w = np.concatenate(vs)
        else:
            u = w = np.empty(0, dtype=np.int64)
        return from_edges(
            u, w, num_vertices=len(self._adj), symmetrize=False, name=name
        )

    def validate(self) -> None:
        """Raise unless the maintained coloring is proper and complete."""
        if bool((self._colors <= 0).any()):
            raise ColoringError("uncolored vertex in dynamic coloring")
        self._check_proper()
