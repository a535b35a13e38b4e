"""Python port of the paper's Hyper-Q Management Framework (Section III-E).

The C++ original encapsulates the CUDA API behind a ``Stream`` class, a
``StreamManager``, a ``PowerMonitor`` linked to NVML, and an abstract
``Kernel`` base class whose virtual methods (Table II) let the test harness
drive any application without knowing its concrete type.  This package is
the same architecture over the simulated device:

* :class:`~repro.framework.kernel.KernelApp` + :class:`AppProfile` — the
  Table II interface and the declarative execution pattern.
* :class:`~repro.framework.stream.Stream` /
  :class:`~repro.framework.stream_manager.StreamManager` — stream pool and
  dynamic assignment.
* :class:`~repro.framework.sync.TransferSynchronizer` — the Section III-B
  HtoD transfer mutex ("pseudo-burst" transfers).
* :mod:`~repro.scheduling.orders` — the five launch orders of Figure 3
  (re-exported here).
* :class:`~repro.framework.power_monitor.PowerMonitor` — NVML-style power
  sampling.
* :class:`~repro.framework.world.DeviceWorld` — builds one device with its
  stream pool, transfer mutex, power monitor and fault injector.
* :class:`~repro.framework.harness.TestHarness` — runs one configured
  schedule end to end and measures everything.
"""

from .app_thread import AppContext, AppThread
from .harness import HarnessConfig, HarnessResult, TestHarness
from .kernel import (
    TABLE_II,
    AppProfile,
    Buffer,
    HostComputePhase,
    KernelApp,
    KernelPhase,
    Phase,
    SyncPhase,
    TransferPhase,
)
from .metrics import (
    AppRecord,
    KernelEvent,
    TransferEvent,
    average_effective_latency,
    effective_latency,
    improvement_pct,
    makespan,
)
from .power_monitor import DEFAULT_INTERVAL, PowerMonitor, PowerSample
from ..scheduling.orders import SchedulingOrder, all_orders, make_schedule, schedule_signature
from .stream import Stream
from .stream_manager import StreamManager
from .sync import NullSynchronizer, TransferSynchronizer, make_synchronizer

__all__ = [
    "KernelApp",
    "AppProfile",
    "Buffer",
    "Phase",
    "TransferPhase",
    "KernelPhase",
    "SyncPhase",
    "HostComputePhase",
    "TABLE_II",
    "Stream",
    "StreamManager",
    "TransferSynchronizer",
    "NullSynchronizer",
    "make_synchronizer",
    "SchedulingOrder",
    "make_schedule",
    "schedule_signature",
    "all_orders",
    "PowerMonitor",
    "PowerSample",
    "DEFAULT_INTERVAL",
    "AppThread",
    "AppContext",
    "TestHarness",
    "HarnessConfig",
    "HarnessResult",
    "AppRecord",
    "TransferEvent",
    "KernelEvent",
    "average_effective_latency",
    "effective_latency",
    "improvement_pct",
    "makespan",
]
