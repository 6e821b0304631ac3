"""The unified ``observe=`` surface.

Every entry point that executes schemes — ``color_graph``,
``color_many``, ``ExecutionContext``, ``run_scheme`` — takes one
``observe=`` argument instead of ad-hoc ``recorder=`` / tracer threading:

=====================  ====================================================
``observe=None``       no observation (the default; zero overhead)
``observe="trace"``    attach a fresh :class:`~repro.obs.tracer.Tracer`
``observe="profile"``  a tracer plus kernel-profile retention for
                       :func:`~repro.gpusim.profiler.profile_report`
``observe="rounds"``   attach a fresh :class:`~repro.metrics.recorder.
                       Recorder` collecting per-round records
``observe=Tracer()``   your tracer (shared across calls)
``observe=Recorder()`` your recorder (shared across calls)
=====================  ====================================================

All forms resolve to an :class:`Observation` — the handle the caller
reads afterwards (it is also attached to ``result.observation`` so
shorthand users can reach the data they asked for).  The legacy
``recorder=`` keyword is gone: entry points reject it like any other
unknown option.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.recorder import Recorder
from .export import chrome_trace, flame_summary, write_chrome_trace, write_jsonl
from .tracer import Tracer

__all__ = ["Observation", "resolve_observe"]

#: Accepted string shorthands (kept in one place for error messages).
SHORTHANDS = ("trace", "profile", "rounds")


@dataclass
class Observation:
    """Resolved observation bundle: what (if anything) is watching a run.

    ``tracer`` and ``recorder`` are independently optional; ``mode``
    remembers the shorthand that built this bundle (``None`` for
    explicitly constructed ones).
    """

    tracer: Tracer | None = None
    recorder: Recorder | None = None
    mode: str | None = field(default=None)

    @property
    def active(self) -> bool:
        return self.tracer is not None or self.recorder is not None

    # -- convenience views over the collected data ----------------------
    def chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` JSON object (requires a tracer)."""
        self._require_tracer()
        return chrome_trace(self.tracer)

    def write_chrome_trace(self, path):
        self._require_tracer()
        return write_chrome_trace(self.tracer, path)

    def write_jsonl(self, path):
        self._require_tracer()
        return write_jsonl(self.tracer, path)

    def flame_summary(self, *, top: int | None = None) -> str:
        self._require_tracer()
        return flame_summary(self.tracer, top=top)

    def _require_tracer(self) -> None:
        if self.tracer is None:
            raise ValueError(
                "this observation has no tracer; use observe='trace' "
                "(or pass a Tracer) to collect spans"
            )


def resolve_observe(observe=None) -> Observation:
    """Normalize any accepted ``observe=`` value into an :class:`Observation`."""
    if observe is None:
        return Observation()
    if isinstance(observe, Observation):
        return observe
    if isinstance(observe, Tracer):
        return Observation(tracer=observe, mode="trace")
    if isinstance(observe, Recorder) or (
        not isinstance(observe, str) and hasattr(observe, "add_round")
    ):
        return Observation(recorder=observe, mode="rounds")
    if isinstance(observe, str):
        if observe == "trace":
            return Observation(tracer=Tracer(), mode="trace")
        if observe == "profile":
            return Observation(tracer=Tracer(), mode="profile")
        if observe == "rounds":
            return Observation(recorder=Recorder(), mode="rounds")
        raise ValueError(
            f"unknown observe shorthand {observe!r}; "
            f"choose from {SHORTHANDS} or pass a Tracer/Recorder"
        )
    raise TypeError(
        f"cannot interpret {observe!r} as an observation: expected None, "
        f"one of {SHORTHANDS}, a Tracer, a Recorder, or an Observation"
    )
