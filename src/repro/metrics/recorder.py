"""Experiment records: structured results the benchmark harness emits.

Each benchmark produces :class:`ExperimentRecord` rows; the recorder keeps
them, renders the paper-matching table, and can persist JSON so
EXPERIMENTS.md numbers are regenerable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .table import format_table

__all__ = ["ExperimentRecord", "Recorder"]


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured cell of a paper table/figure."""

    experiment: str  # e.g. "fig7"
    graph: str
    scheme: str
    metric: str  # e.g. "speedup", "colors", "time_us"
    value: float
    extra: dict = field(default_factory=dict)


@dataclass
class Recorder:
    """Accumulates records for one experiment run."""

    records: list[ExperimentRecord] = field(default_factory=list)

    def add(
        self,
        experiment: str,
        graph: str,
        scheme: str,
        metric: str,
        value: float,
        **extra,
    ) -> ExperimentRecord:
        rec = ExperimentRecord(experiment, graph, scheme, metric, float(value), extra)
        self.records.append(rec)
        return rec

    def values(self, *, experiment=None, graph=None, scheme=None, metric=None):
        """Filtered record list (None matches everything)."""
        out = self.records
        if experiment is not None:
            out = [r for r in out if r.experiment == experiment]
        if graph is not None:
            out = [r for r in out if r.graph == graph]
        if scheme is not None:
            out = [r for r in out if r.scheme == scheme]
        if metric is not None:
            out = [r for r in out if r.metric == metric]
        return out

    def pivot(self, metric: str, *, experiment: str | None = None) -> str:
        """Graphs-by-scheme table of one metric, like the paper's figures."""
        recs = self.values(metric=metric, experiment=experiment)
        graphs = list(dict.fromkeys(r.graph for r in recs))
        schemes = list(dict.fromkeys(r.scheme for r in recs))
        cell = {(r.graph, r.scheme): r.value for r in recs}
        rows = [
            [g] + [cell.get((g, s), float("nan")) for s in schemes] for g in graphs
        ]
        return format_table(["graph"] + schemes, rows, title=f"{metric}:")

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps([asdict(r) for r in self.records], indent=1), encoding="utf-8"
        )

    @classmethod
    def load_json(cls, path: str | Path) -> "Recorder":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(records=[ExperimentRecord(**d) for d in data])
