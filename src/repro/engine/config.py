"""The unified typed run-configuration surface.

Every execution entry point — :func:`~repro.coloring.api.color_graph`,
:func:`~repro.engine.context.color_many`,
:func:`~repro.parallel.sharded.color_sharded`,
:func:`~repro.parallel.streaming.color_streamed`,
:func:`~repro.parallel.scheduler.run_jobs` and
:class:`~repro.engine.context.ExecutionContext` — accepts the same
execution keywords (``backend=``, ``cache=``, ``faults=``, ...).  Before
this module they were threaded ad hoc; :class:`RunConfig` bundles them
into one frozen, reusable value::

    cfg = RunConfig(backend="cpusim", cache="memory", health="strict")
    color_graph(g, "data-ldg", config=cfg)
    color_many(graphs, "data-ldg", config=cfg.replace(workers=4))

``config=`` and the legacy explicit keywords normalize through one
shared path (:func:`normalize_config`): a field set *both* ways is a
:class:`TypeError` (conflict), a field the entry point does not support
is a :class:`TypeError` naming the entry point, and mapping inputs get
did-you-mean suggestions for misspelled field names.  Because
normalization resolves to exactly the values the legacy keywords would
have carried, downstream behavior — including result-cache keys
(:mod:`repro.parallel.cache`) — is byte-identical between the two
spellings.

``observe``/``faults``/``health`` never enter cache keys — a config
differing only in observation or robustness still hits the same cached
results.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["RunConfig", "normalize_config", "resolve_run_config"]


def _field(doc: str):
    return dataclasses.field(default=None, metadata={"doc": doc})


@dataclass(frozen=True)
class RunConfig:
    """Frozen bundle of the scheme-independent execution options.

    Every field defaults to ``None`` (= "entry point's default"); only
    non-``None`` fields take effect.  Instances are immutable — derive
    variants with :meth:`replace`.
    """

    backend: Any = _field(
        "execution substrate for device schemes: 'gpusim' (default), "
        "'cpusim', or a backend/device instance; 'compiled' is a "
        "deprecated alias of 'gpusim' (every run uses the C kernel tier "
        "when a compiler builds it)"
    )
    backend_opts: Any = _field(
        "constructor keywords for a string backend= spec, e.g. "
        "{'seed': 3} or {'cache_model': 'hit_rate'}; rejected alongside "
        "a backend instance"
    )
    store: Any = _field(
        "graph arena for worker processes: 'heap' (pickle, default), "
        "'shm', 'mmap'/'mmap:<dir>', or a GraphStore instance "
        "(see docs/STORAGE.md)"
    )
    workers: Any = _field(
        "process-pool size for batched runs (None/0/1 = serial)"
    )
    scheduler: Any = _field(
        "'serial', 'process', or a Scheduler instance "
        "(default inferred from workers)"
    )
    cache: Any = _field(
        "content-addressed result cache: 'memory', a directory path, "
        "or a ResultCache"
    )
    faults: Any = _field(
        "fault-injection plan: a FaultPlan, a plan spec string "
        "('seed=7; site: k=v, ...'), or a Robustness bundle "
        "(see docs/ROBUSTNESS.md)"
    )
    health: Any = _field(
        "guard-rail policy: 'strict', 'off', or a HealthPolicy "
        "(watchdog, invariants, audit, degradation chains)"
    )
    observe: Any = _field("observation surface: 'trace' or a Tracer")
    devices: Any = _field(
        "simulated device count for color_distributed (one contiguous "
        "shard per device; colors identical across counts)"
    )
    topology: Any = _field(
        "interconnect model pricing halo exchange: 'pcie', 'nvlink', "
        "'ring', or a Topology instance (never enters cache keys)"
    )
    deadline_ms: Any = _field(
        "wall-clock budget for the run in milliseconds, checked at "
        "round boundaries; a RunControl carries a service-stamped "
        "deadline + cancel token (never enters cache keys)"
    )

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (``None`` clears a field)."""
        bad = [k for k in changes if k not in _FIELDS]
        if bad:
            raise TypeError(_unknown_fields_message("RunConfig.replace", bad))
        return dataclasses.replace(self, **changes)

    def as_kwargs(self) -> dict:
        """The non-``None`` fields as a plain keyword mapping."""
        return {
            name: getattr(self, name)
            for name in _FIELDS
            if getattr(self, name) is not None
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "RunConfig":
        """Build from a plain mapping, with did-you-mean validation."""
        bad = [k for k in mapping if k not in _FIELDS]
        if bad:
            raise TypeError(_unknown_fields_message("RunConfig", bad))
        return cls(**dict(mapping))


_FIELDS: tuple[str, ...] = tuple(f.name for f in dataclasses.fields(RunConfig))


def _unknown_fields_message(where: str, bad: list) -> str:
    suggestions = []
    for key in sorted(str(k) for k in bad):
        close = difflib.get_close_matches(key, _FIELDS, n=1)
        if close:
            suggestions.append(f"did you mean {close[0]!r} instead of {key!r}?")
    hint = (" " + " ".join(suggestions)) if suggestions else ""
    return (
        f"{where} got unknown field(s) {sorted(str(k) for k in bad)}.{hint} "
        f"Valid RunConfig fields: {', '.join(_FIELDS)}"
    )


def resolve_run_config(config) -> RunConfig | None:
    """Coerce a ``config=`` argument: None, RunConfig, or a mapping."""
    if config is None or isinstance(config, RunConfig):
        return config
    if isinstance(config, Mapping):
        return RunConfig.from_mapping(config)
    raise TypeError(
        f"config= takes a RunConfig or a mapping of its fields, "
        f"not {type(config).__name__}"
    )


def normalize_config(
    entry_point: str, config, explicit: dict[str, Any]
) -> dict[str, Any]:
    """Merge ``config=`` with the entry point's explicit keywords.

    ``explicit`` maps each RunConfig field the entry point supports to
    the value its legacy keyword carried (``None`` = not passed).
    Returns the merged mapping over exactly those keys.  Raises
    :class:`TypeError` when a field is set both ways (ambiguous), or when
    the config sets a field this entry point has no equivalent for.
    """
    cfg = resolve_run_config(config)
    if cfg is None:
        return dict(explicit)
    merged = dict(explicit)
    unsupported = []
    for name in _FIELDS:
        value = getattr(cfg, name)
        if value is None:
            continue
        if name not in explicit:
            unsupported.append(name)
            continue
        if explicit[name] is not None:
            raise TypeError(
                f"{entry_point}() got {name!r} both ways: config.{name}="
                f"{value!r} and {name}={explicit[name]!r}; pass one "
                f"(config.replace({name}=None) drops the config copy)"
            )
        merged[name] = value
    if unsupported:
        raise TypeError(
            f"{entry_point}() does not take "
            f"{', '.join(sorted(unsupported))} — clear the field(s) with "
            f"config.replace({unsupported[0]}=None) or use an entry point "
            f"that supports them (supported here: "
            f"{', '.join(sorted(explicit))})"
        )
    return merged
