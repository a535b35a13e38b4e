"""The abstract ``Kernel`` application base class (paper Table II).

The paper's framework defines an abstract C++ ``Kernel`` class whose virtual
methods encapsulate the CUDA API calls of one application's lifecycle.  The
test harness drives any application through this interface without binding
to the derived class.  This module is the Python port: :class:`KernelApp`
exposes the same seven-method interface (snake_case; the mapping to the
paper's names is :data:`TABLE_II`), and a declarative :class:`AppProfile`
describes the application's *execution pattern* — the ordered transfer and
kernel phases the simulator replays.

Phases
------
The canonical Rodinia pattern is ``HtoD transfers -> kernel launches -> DtoH
transfers`` (the paper's "general" pattern in Section IV).  Applications
like srad interleave transfers inside their iteration loop; profiles express
that by listing phases in order, so the base-class machinery needs no
app-specific branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Tuple

from ..gpu.commands import CopyDirection
from ..gpu.kernels import KernelDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from .app_thread import AppContext

__all__ = [
    "Buffer",
    "Phase",
    "TransferPhase",
    "KernelPhase",
    "SyncPhase",
    "HostComputePhase",
    "AppProfile",
    "KernelApp",
    "TABLE_II",
]

#: Mapping from this port's method names to the paper's Table II interface.
TABLE_II = {
    "allocate_host_memory": "allocateHostMemory (cudaMallocHost)",
    "allocate_device_memory": "allocateDeviceMemory (cudaMalloc)",
    "initialize_host_memory": "initializeHostMemory (load/init host data)",
    "transfer_memory": "transferMemory (cudaMemcpyAsync)",
    "execute_kernel": "executeKernel (grid/block dims + kernel launch)",
    "free_host_memory": "freeHostMemory (cudaFreeHost)",
    "free_device_memory": "freeDeviceMemory (cudaFree)",
}


@dataclass(frozen=True)
class Buffer:
    """A named host/device buffer moved by one ``cudaMemcpyAsync``."""

    name: str
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"buffer {self.name!r} has {self.nbytes} bytes")


class Phase:
    """Base class for execution-pattern phases (marker only)."""

    __slots__ = ()


@dataclass(frozen=True)
class TransferPhase(Phase):
    """Move ``buffers`` in ``direction``, one memcpy command per buffer.

    ``synchronized`` marks HtoD phases that the paper's transfer mutex
    should wrap when memory synchronization is enabled.
    """

    direction: CopyDirection
    buffers: Tuple[Buffer, ...]
    synchronized: bool = True

    def __post_init__(self) -> None:
        if not self.buffers:
            raise ValueError("TransferPhase needs at least one buffer")

    @property
    def total_bytes(self) -> int:
        """Total payload of the phase."""
        return sum(b.nbytes for b in self.buffers)


@dataclass(frozen=True)
class KernelPhase(Phase):
    """Launch ``descriptors`` in order on the application's stream."""

    descriptors: Tuple[KernelDescriptor, ...]

    def __post_init__(self) -> None:
        if not self.descriptors:
            raise ValueError("KernelPhase needs at least one launch")

    @property
    def total_blocks(self) -> int:
        """Total thread blocks across the phase's launches."""
        return sum(k.num_blocks for k in self.descriptors)


@dataclass(frozen=True)
class SyncPhase(Phase):
    """``cudaStreamSynchronize``: host blocks until the stream drains."""


@dataclass(frozen=True)
class HostComputePhase(Phase):
    """Host-side CPU work of fixed duration (e.g. convergence checks)."""

    duration: float
    label: str = "host-compute"

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("negative host compute duration")


@dataclass(frozen=True)
class AppProfile:
    """Declarative description of one application's GPU behaviour.

    Attributes
    ----------
    name:
        Application name (Table I's "Kernel Name", e.g. ``"gaussian"``).
    data_dim:
        Human-readable problem size (Table III's "Data dim").
    host_allocs / device_allocs:
        Buffers created by the allocation methods; sizes drive the host
        cost model and the device memory allocator.
    phases:
        Ordered, fully unrolled execution pattern.
    init_cost:
        Host seconds spent in ``initialize_host_memory``.
    """

    name: str
    data_dim: str
    host_allocs: Tuple[Buffer, ...]
    device_allocs: Tuple[Buffer, ...]
    phases: Tuple[Phase, ...]
    init_cost: float = 100e-6

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"profile {self.name!r} has no phases")

    # -- derived workload statistics (used by reports and tests) ----------

    @property
    def htod_bytes(self) -> int:
        """Total host-to-device payload."""
        return sum(
            p.total_bytes
            for p in self.phases
            if isinstance(p, TransferPhase) and p.direction is CopyDirection.HTOD
        )

    @property
    def dtoh_bytes(self) -> int:
        """Total device-to-host payload."""
        return sum(
            p.total_bytes
            for p in self.phases
            if isinstance(p, TransferPhase) and p.direction is CopyDirection.DTOH
        )

    @property
    def kernel_launches(self) -> int:
        """Total kernel launches (Table III's "Calls", summed)."""
        return sum(
            len(p.descriptors) for p in self.phases if isinstance(p, KernelPhase)
        )

    @property
    def total_blocks(self) -> int:
        """Total thread blocks launched over the app's lifetime."""
        return sum(
            p.total_blocks for p in self.phases if isinstance(p, KernelPhase)
        )

    @property
    def compute_time_lower_bound(self) -> float:
        """Sum over launches of one block duration (infinite-GPU bound)."""
        total = 0.0
        for p in self.phases:
            if isinstance(p, KernelPhase):
                for k in p.descriptors:
                    total += k.block_duration
        return total


class KernelApp:
    """Base class for applications driven by the test harness.

    Subclasses provide an :class:`AppProfile` (usually via
    :meth:`build_profile`) and may override any lifecycle method.  All
    lifecycle methods are *simulation coroutines*: they ``yield`` events
    and are driven inside the application's host thread process (see
    :mod:`repro.framework.app_thread`).

    The class deliberately mirrors the paper's Table II: the harness calls
    only these methods and never inspects the concrete subclass.
    """

    def __init__(self, profile: AppProfile, instance: int = 0) -> None:
        self.profile = profile
        self.instance = instance
        self.app_id = f"{profile.name}#{instance}"

    def __repr__(self) -> str:
        return f"<KernelApp {self.app_id}>"

    # -- Table II interface ------------------------------------------------

    def allocate_host_memory(self, ctx: "AppContext") -> Generator:
        """``cudaMallocHost`` for every host buffer (pinned, so costly)."""
        host = ctx.host_spec
        total = sum(b.nbytes for b in self.profile.host_allocs)
        cost = host.malloc_host_base + host.malloc_host_per_byte * total
        yield ctx.env.timeout(cost)

    def allocate_device_memory(self, ctx: "AppContext") -> Generator:
        """``cudaMalloc`` for every device buffer."""
        for buf in self.profile.device_allocs:
            ctx.device_allocations[buf.name] = ctx.device.memory.alloc(buf.nbytes)
            yield ctx.env.timeout(ctx.host_spec.malloc_device_base)

    def initialize_host_memory(self, ctx: "AppContext") -> Generator:
        """Load/initialize host data (CPU time only)."""
        yield ctx.env.timeout(self.profile.init_cost)

    def transfer_memory(
        self, ctx: "AppContext", phase: TransferPhase, start: int = 0
    ) -> Generator:
        """Enqueue one ``cudaMemcpyAsync`` per buffer of ``phase``.

        Does *not* wait for completion (CUDA async semantics); the caller
        decides whether to synchronize (the transfer mutex does).  A
        migrated app resumes at buffer ``start``, skipping copies that
        already landed.
        """
        for buf in phase.buffers[start:]:
            yield ctx.env.timeout(ctx.host_spec.api_call_overhead)
            cmd = ctx.stream.enqueue_memcpy(
                phase.direction, buf.nbytes, buffer=buf.name, app_id=self.app_id
            )
            ctx.note_transfer(cmd)

    def execute_kernel(
        self, ctx: "AppContext", phase: KernelPhase, start: int = 0
    ) -> Generator:
        """Enqueue the phase's kernel launches in order (async), from
        launch ``start`` on (non-zero only when a migrated app resumes)."""
        host = ctx.host_spec
        launch_cost = host.api_call_overhead + host.kernel_launch_overhead
        for descriptor in phase.descriptors[start:]:
            yield ctx.env.timeout(launch_cost)
            cmd = ctx.stream.enqueue_kernel(descriptor, app_id=self.app_id)
            ctx.note_kernel(cmd)

    def free_host_memory(self, ctx: "AppContext") -> Generator:
        """``cudaFreeHost`` for all host buffers."""
        yield ctx.env.timeout(ctx.host_spec.free_base)

    def free_device_memory(self, ctx: "AppContext") -> Generator:
        """``cudaFree`` for all device buffers."""
        for name in list(ctx.device_allocations):
            ctx.device.memory.free(ctx.device_allocations.pop(name))
        yield ctx.env.timeout(ctx.host_spec.free_base)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build_profile(cls, **kwargs) -> AppProfile:  # pragma: no cover - abstract
        """Build the app's :class:`AppProfile` (overridden by subclasses)."""
        raise NotImplementedError

    @classmethod
    def create(cls, instance: int = 0, **kwargs) -> "KernelApp":
        """Instantiate with a freshly built profile."""
        return cls(cls.build_profile(**kwargs), instance=instance)
