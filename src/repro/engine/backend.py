"""Execution backends: the substrate a scheme recipe runs against.

A *backend* owns the simulated hardware a recipe's kernels are priced on
and exposes the narrow device surface the engine needs:

* memory — ``alloc`` / ``register`` / ``release`` returning
  :class:`~repro.gpusim.device.DeviceArray` handles with stable simulated
  addresses, plus ``upload_graph`` for the CSR + color state bundle;
* kernels — ``builder`` / ``commit`` (the trace-record-then-price cycle);
* host traffic — ``htod`` / ``dtoh`` (PCIe on the GPU, a no-op on the
  unified-memory CPU model);
* accounting — ``mark`` / ``timing_since`` so one long-lived backend can
  serve many runs and still report per-run timings (the
  :class:`~repro.engine.context.ExecutionContext` batching contract).

Two implementations ship: :class:`GpuSimBackend` wraps the simulated K20c
(:class:`~repro.gpusim.device.Device`) and is the default;
:class:`CpuSimBackend` prices the *same* recipes on the multicore Xeon
model (Çatalyürek-style speculative coloring on CPUs), demonstrating that
the recipe layer is substrate-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..cpusim.model import CPU, MulticoreCPU
from ..faults import TransientKernelError
from ..faults.runtime import active_fire
from ..gpusim.config import DeviceConfig, LaunchConfig
from ..gpusim.device import Device, DeviceArray

__all__ = [
    "TimingDelta",
    "Mark",
    "Backend",
    "GpuSimBackend",
    "CpuSimBackend",
    "resolve_backend",
    "BACKENDS",
    "BACKEND_ALIASES",
]

_ALIGNMENT = 256  # matches gpusim.device alignment

#: Simulated bytes a ``clock-stall`` fault charges when no param is given
#: (a 1 MiB phantom readback — enough to visibly skew a run's timeline).
_DEFAULT_STALL_BYTES = 1 << 20


def _commit_gate(name: str, stall=None) -> None:
    """Consult the ambient fault bundle before pricing a kernel.

    ``kernel-transient`` raises a retryable :class:`TransientKernelError`;
    ``clock-stall`` calls ``stall(nbytes)`` (when the backend provides
    one) to charge idle simulated time — timings skew, colors do not.
    """
    spec = active_fire("kernel-transient", kernel=name)
    if spec is not None:
        raise TransientKernelError(
            f"injected transient failure in kernel {name!r}"
        )
    if stall is not None:
        spec = active_fire("clock-stall", kernel=name)
        if spec is not None:
            stall(int(spec.param) if spec.param else _DEFAULT_STALL_BYTES)


@dataclass(frozen=True)
class Mark:
    """Opaque position in a backend's event history (see ``timing_since``)."""

    events: int = 0
    cpu_events: int = 0


@dataclass(frozen=True)
class TimingDelta:
    """Per-run timing totals between a :class:`Mark` and now."""

    gpu_time_us: float = 0.0
    cpu_time_us: float = 0.0
    transfer_time_us: float = 0.0
    num_launches: int = 0


@runtime_checkable
class Backend(Protocol):
    """Duck type every execution backend satisfies (see module docstring)."""

    name: str

    def alloc(self, shape, dtype, *, name: str = "buf", fill=None) -> DeviceArray: ...

    def register(self, host_array: np.ndarray, *, name: str = "buf") -> DeviceArray: ...

    def release(self, buf: DeviceArray) -> None: ...

    def upload_graph(self, graph): ...

    def builder(self, num_threads: int, launch=None, *, name: str = "kernel"): ...

    def commit(self, builder): ...

    def commit_pair(self, first, second): ...

    def htod(self, nbytes: int) -> None: ...

    def dtoh(self, nbytes: int) -> None: ...

    def race_window(self, launch) -> int: ...

    def attach_tracer(self, tracer) -> None: ...

    def mark(self) -> Mark: ...

    def timing_since(self, mark: Mark) -> TimingDelta: ...


class GpuSimBackend:
    """The simulated Kepler-class GPU (the paper's K20c by default).

    Thin delegation onto :class:`~repro.gpusim.device.Device` with the
    device's allocation pool enabled, so worklists and scratch buffers are
    recycled across runs instead of consuming fresh address space.
    """

    name = "gpusim"

    def __init__(
        self,
        device: Device | None = None,
        *,
        config: DeviceConfig | None = None,
        cache_model: str = "reuse_distance",
        seed: int = 0,
    ) -> None:
        if device is None:
            kwargs = {"cache_model": cache_model, "seed": seed}
            device = Device(config, **kwargs) if config is not None else Device(**kwargs)
        self.device = device
        self.device.enable_pool()
        self._host_cpu: CPU | None = None

    # -- memory ---------------------------------------------------------
    def alloc(self, shape, dtype, *, name: str = "buf", fill=None) -> DeviceArray:
        return self.device.alloc(shape, dtype, name=name, fill=fill)

    def register(self, host_array: np.ndarray, *, name: str = "buf") -> DeviceArray:
        return self.device.register(host_array, name=name)

    def release(self, buf: DeviceArray) -> None:
        self.device.release(buf)

    def upload_graph(self, graph):
        """Place CSR + color state on the device, charging one HtoD burst.

        The R/C arrays are charged as a single PCIe transfer event (one
        per graph per context — the reuse the batching API eliminates);
        per-run timings exclude it because the engine marks its timing
        span *after* the upload, matching the paper's I/O exclusion.
        """
        from ..coloring.kernels import upload_graph

        bufs = upload_graph(self.device, graph)
        self.device.htod(bufs.R.nbytes + bufs.C.nbytes)
        return bufs

    # -- kernels --------------------------------------------------------
    def builder(self, num_threads: int, launch=None, *, name: str = "kernel"):
        return self.device.builder(num_threads, launch, name=name)

    def commit(self, builder):
        _commit_gate(builder.name, stall=self.device.dtoh)
        return self.device.commit(builder)

    def commit_pair(self, first, second):
        _commit_gate(first.name, stall=self.device.dtoh)
        _commit_gate(second.name, stall=self.device.dtoh)
        return self.device.commit_pair(first, second)

    # -- transfers ------------------------------------------------------
    def htod(self, nbytes: int) -> None:
        self.device.htod(nbytes)

    def dtoh(self, nbytes: int) -> None:
        self.device.dtoh(nbytes)

    # -- geometry -------------------------------------------------------
    def race_window(self, launch) -> int:
        """Threads that truly race (see ``kernels.race_window_threads``)."""
        return self.device.config.warp_size

    @property
    def warp_size(self) -> int:
        return self.device.config.warp_size

    def host_cpu(self) -> CPU:
        """The host-side sequential CPU model (3-step GM's step 3)."""
        if self._host_cpu is None:
            self._host_cpu = CPU()
        return self._host_cpu

    # -- observation ----------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Mirror every priced device event into ``tracer`` (None detaches)."""
        self.device.tracer = tracer

    @property
    def tracer(self):
        return self.device.tracer

    # -- accounting -----------------------------------------------------
    def mark(self) -> Mark:
        return Mark(events=len(self.device.timeline.events))

    def timing_since(self, mark: Mark) -> TimingDelta:
        span = self.device.timeline.since(mark.events)
        return TimingDelta(
            gpu_time_us=span.kernel_time_us()
            + span.launch_overhead_us(self.device.config),
            transfer_time_us=span.transfer_time_us(),
            num_launches=span.num_launches(),
        )


@dataclass
class _CoreGeometry:
    """Stands in for ``DeviceConfig`` where charge helpers read geometry."""

    warp_size: int


class CpuTraceBuilder:
    """Collects a kernel's work as a flat instruction + address stream.

    Implements the recording surface of
    :class:`~repro.gpusim.trace.TraceBuilder` (``load``/``store``/
    ``atomic``/``instructions``/``uniform_overhead``/``barrier``/
    ``activate``) so the same charge helpers drive both substrates; on
    commit the totals are priced as one OpenMP-style parallel region.
    """

    _INSTR_PER_ATOMIC = 6  # lock-prefixed RMW + retry check

    def __init__(self, geometry: _CoreGeometry, launch: LaunchConfig, num_threads: int, name: str) -> None:
        self.device = geometry
        self.launch = launch
        self.num_threads = num_threads
        self.name = name
        self.total_instructions = 0
        self.addresses: list[np.ndarray] = []
        self.num_active = 0

    def _record(self, addresses) -> None:
        addrs = np.asarray(addresses, dtype=np.int64).ravel()
        if addrs.size:
            self.addresses.append(addrs)

    def load(self, thread_ids, addresses, *, ldg: bool = False, step=0, memo=None) -> None:
        self._record(addresses)

    def store(self, thread_ids, addresses, *, step=0, memo=None) -> None:
        self._record(addresses)

    def atomic(self, thread_ids, addresses, *, step=0) -> None:
        addrs = np.asarray(addresses, dtype=np.int64).ravel()
        self._record(addrs)
        self.total_instructions += self._INSTR_PER_ATOMIC * addrs.size

    def instructions(self, thread_ids, counts, *, note: str = "") -> None:
        counts = np.asarray(counts)
        if counts.ndim == 0:
            self.total_instructions += int(counts) * int(np.size(thread_ids))
        else:
            self.total_instructions += int(counts.sum())

    def uniform_overhead(self, per_thread_instr: int) -> None:
        self.total_instructions += int(per_thread_instr) * self.num_threads

    def barrier(self, times: int = 1) -> None:
        pass  # fork/join cost is charged per region by the multicore model

    def activate(self, num_active: int) -> None:
        self.num_active = int(num_active)


class CpuSimBackend:
    """Price scheme recipes on the multicore Xeon model instead of the GPU.

    Each committed "kernel" becomes one parallel region on a
    :class:`~repro.cpusim.model.MulticoreCPU`: total dynamic instructions
    split across cores, the gather address stream run through the CPU
    cache hierarchy.  Memory is unified, so ``htod``/``dtoh`` are free and
    ``release`` is a no-op.  The functional results differ from the GPU
    backend only through the race window (``cores`` threads race instead
    of a 32-wide warp).
    """

    name = "cpusim"

    def __init__(self, cpu: MulticoreCPU | None = None, *, cores: int = 8) -> None:
        self.cpu = cpu if cpu is not None else MulticoreCPU(cores=cores)
        self._geometry = _CoreGeometry(warp_size=self.cpu.cores)
        self._next_addr = _ALIGNMENT
        self._host_cpu: CPU | None = None
        self.tracer = None

    # -- memory ---------------------------------------------------------
    def _place(self, arr: np.ndarray, name: str) -> DeviceArray:
        base = self._next_addr
        self._next_addr += (arr.nbytes + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        if self.tracer is not None:
            self.tracer.event(f"alloc:{name}", "alloc", nbytes=arr.nbytes, pooled=0)
        return DeviceArray(data=arr, base=base, name=name)

    def alloc(self, shape, dtype, *, name: str = "buf", fill=None) -> DeviceArray:
        arr = np.empty(shape, dtype=dtype)
        if fill is not None:
            arr.fill(fill)
        return self._place(arr, name)

    def register(self, host_array: np.ndarray, *, name: str = "buf") -> DeviceArray:
        return self._place(np.array(host_array, copy=True), name)

    def upload(self, host_array: np.ndarray, *, name: str = "buf") -> DeviceArray:
        return self.register(host_array, name=name)  # unified memory: free

    def release(self, buf: DeviceArray) -> None:
        pass  # host memory; nothing to pool

    def upload_graph(self, graph):
        from ..coloring.kernels import upload_graph

        return upload_graph(self, graph)

    # -- kernels --------------------------------------------------------
    def builder(self, num_threads: int, launch=None, *, name: str = "kernel"):
        return CpuTraceBuilder(self._geometry, launch or LaunchConfig(), num_threads, name)

    def commit(self, builder: CpuTraceBuilder):
        _commit_gate(builder.name)  # unified memory: no stall surface
        addrs = (
            np.concatenate(builder.addresses) if builder.addresses else None
        )
        event = self.cpu.run_parallel(
            builder.name,
            instructions=builder.total_instructions,
            addresses=addrs,
        )
        if self.tracer is not None:
            self.tracer.event(
                event.name,
                "kernel",
                duration_us=event.time_us,
                kernel_us=event.time_us,
                launches=1,
                instructions=event.instructions,
                dram_bytes=0,
                transactions=event.accesses,
            )
        return event

    def commit_pair(self, first, second):
        # The multicore model is stateful and cheap to price; sequential
        # commits already match the GPU backend's ordering contract.
        return self.commit(first), self.commit(second)

    # -- transfers: unified memory --------------------------------------
    def htod(self, nbytes: int) -> None:
        pass

    def dtoh(self, nbytes: int) -> None:
        pass

    # -- geometry -------------------------------------------------------
    def race_window(self, launch) -> int:
        return self.cpu.cores

    @property
    def warp_size(self) -> int:
        return self.cpu.cores

    def host_cpu(self) -> CPU:
        if self._host_cpu is None:
            self._host_cpu = CPU(config=self.cpu.config)
        return self._host_cpu

    # -- observation ----------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Mirror priced parallel regions into ``tracer`` (None detaches)."""
        self.tracer = tracer

    # -- accounting -----------------------------------------------------
    def mark(self) -> Mark:
        return Mark(cpu_events=len(self.cpu.events))

    def timing_since(self, mark: Mark) -> TimingDelta:
        events = self.cpu.events[mark.cpu_events:]
        return TimingDelta(
            cpu_time_us=sum(e.time_us for e in events),
            num_launches=len(events),
        )


#: Registry of constructible backends, keyed by their ``name``.
BACKENDS: dict[str, type] = {
    GpuSimBackend.name: GpuSimBackend,
    CpuSimBackend.name: CpuSimBackend,
}

#: Accepted backend names that mean another backend.  ``"compiled"``
#: once opted into the C kernel tier, which every run now uses.
BACKEND_ALIASES: dict[str, str] = {"compiled": GpuSimBackend.name}


def resolve_backend(spec, **kwargs):
    """Turn a backend spec into a backend instance.

    Accepts a backend instance (returned as-is), a name from
    :data:`BACKENDS` or :data:`BACKEND_ALIASES` (constructed with
    ``**kwargs``), or a raw
    :class:`~repro.gpusim.device.Device` (wrapped in a
    :class:`GpuSimBackend` — the legacy ``device=`` path).
    """
    if spec is None:
        return GpuSimBackend(**kwargs)
    if isinstance(spec, str):
        try:
            cls = BACKENDS[BACKEND_ALIASES.get(spec, spec)]
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; choose from "
                f"{sorted([*BACKENDS, *BACKEND_ALIASES])}"
            ) from None
        return cls(**kwargs)
    if isinstance(spec, Device):
        return GpuSimBackend(spec, **kwargs)
    if isinstance(spec, Backend):
        return spec
    raise TypeError(f"cannot interpret {spec!r} as an execution backend")
