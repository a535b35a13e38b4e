"""The simulated GPU device: streams, queue fabric, engines and power.

:class:`GPUDevice` is the hub of the hardware model.  Host-side code (the
framework layer) creates :class:`DeviceStream` objects and enqueues
commands; the device wires each command's ordering dependencies (in-stream
FIFO plus hardware work-queue FIFO, per :mod:`repro.gpu.hyperq`), routes
ready commands to the right engine (DMA per direction, grid engine for
kernels) and keeps the power model informed of every activity change.

The device knows nothing about applications, scheduling policies or the
paper's experiments — it is the substrate those layers run on.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from typing import Dict, List, Optional, Tuple

from ..sim.engine import Environment
from ..sim.events import AllOf, Event
from ..sim.trace import TraceRecorder
from .block_scheduler import GridEngine
from .commands import (
    Command,
    CopyDirection,
    KernelLaunchCommand,
    MarkerCommand,
    MemcpyCommand,
)
from .dma import CopyEngine
from .hyperq import QueueFabric
from .kernels import KernelDescriptor
from .memory import MemoryAllocator
from .power import PowerModel, PowerState
from .smx import SMXArray
from .specs import DeviceSpec, tesla_k20

__all__ = ["DeviceStream", "GPUDevice"]


class DeviceStream:
    """A CUDA stream: an in-order command queue owned by a device.

    Create through :meth:`GPUDevice.create_stream`.  All ``enqueue_*``
    methods are asynchronous in the CUDA sense: they return the command
    immediately; wait on ``command.done`` (or :meth:`synchronize_event`)
    for completion.
    """

    def __init__(self, device: "GPUDevice", sid: int, name: str = "") -> None:
        self.device = device
        self.sid = sid
        self.name = name or f"stream-{sid}"
        self._tail: Optional[Event] = None
        self.commands_enqueued: int = 0

    def __repr__(self) -> str:
        return f"<DeviceStream {self.sid} ({self.name})>"

    # -- enqueue API ---------------------------------------------------------

    def enqueue_memcpy(
        self,
        direction: CopyDirection,
        nbytes: int,
        buffer: str = "",
        app_id: Optional[str] = None,
    ) -> MemcpyCommand:
        """Enqueue an async memcpy; returns immediately."""
        cmd = MemcpyCommand(
            self.device.env, direction, nbytes, buffer=buffer, app_id=app_id
        )
        self.device._enqueue(self, cmd)
        return cmd

    def enqueue_kernel(
        self, descriptor: KernelDescriptor, app_id: Optional[str] = None
    ) -> KernelLaunchCommand:
        """Enqueue a kernel launch; returns immediately."""
        cmd = KernelLaunchCommand(self.device.env, descriptor, app_id=app_id)
        self.device._enqueue(self, cmd)
        return cmd

    def enqueue_marker(
        self, name: str = "event", app_id: Optional[str] = None
    ) -> MarkerCommand:
        """Enqueue an ordering marker (``cudaEventRecord`` equivalent)."""
        cmd = MarkerCommand(self.device.env, name=name, app_id=app_id)
        self.device._enqueue(self, cmd)
        return cmd

    def synchronize_event(self) -> Event:
        """Event that triggers when all currently enqueued work completes.

        Equivalent to ``cudaStreamSynchronize``: host processes do
        ``yield stream.synchronize_event()``.
        """
        if self._tail is None or self._tail.callbacks is None:
            # Nothing pending (or tail already processed): complete now.
            evt = Event(self.device.env)
            evt.succeed()
            return evt
        return self._tail

    def _push_tail(self, cmd: Command) -> Optional[Event]:
        prev = self._tail
        self._tail = cmd.done
        self.commands_enqueued += 1
        return prev


class GPUDevice:
    """One simulated GPU.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Hardware description (default: the paper's Tesla K20).
    trace:
        Optional :class:`TraceRecorder`; when given, every memcpy and
        kernel produces timeline spans.
    copy_policy:
        Copy-queue service discipline (``"interleave"`` or ``"fifo"``).
    admission:
        Optional admission-control hook forwarded to the grid engine
        (used by the symbiosis baseline; ``None`` = LEFTOVER policy).
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` forwarded
        to the grid engine (launch failures, kernel hangs) and both copy
        engines (DMA stalls); ``None`` keeps the device fault-free.
    """

    def __init__(
        self,
        env: Environment,
        spec: Optional[DeviceSpec] = None,
        trace: Optional[TraceRecorder] = None,
        copy_policy: str = "interleave",
        admission=None,
        injector=None,
    ) -> None:
        self.env = env
        self.spec = spec or tesla_k20()
        self.trace = trace
        self.smx = SMXArray(self.spec.num_smx, self.spec.smx)
        self.power = PowerModel(env, self.spec.power)
        self.injector = injector
        self.grid_engine = GridEngine(
            env,
            self.smx,
            trace=trace,
            on_change=self._power_changed,
            admission=admission,
            injector=injector,
        )
        # The hot path holds the copy engines as plain attributes: an
        # enum-keyed lookup hashes the enum in Python on every call.
        self._htod = CopyEngine(
            env,
            CopyDirection.HTOD,
            self.spec.dma_htod,
            policy=copy_policy,
            trace=trace,
            on_change=self._power_changed,
            injector=injector,
        )
        self._dtoh = CopyEngine(
            env,
            CopyDirection.DTOH,
            self.spec.dma_dtoh,
            policy=copy_policy,
            trace=trace,
            on_change=self._power_changed,
            injector=injector,
        )
        self.dma = {CopyDirection.HTOD: self._htod, CopyDirection.DTOH: self._dtoh}
        self.fabric = QueueFabric(env, self.spec.hardware_queues)
        self.memory = MemoryAllocator(self.spec.global_memory)
        self._stream_ids = count(0)
        self.streams: Dict[int, DeviceStream] = {}
        self._inflight: int = 0
        # Per-stream in-flight command counts (for the power model's
        # active-stream term).
        self._stream_inflight: Dict[int, int] = {}
        self._active_streams: int = 0
        # Board power for each input seen so far, keyed by (resident
        # threads, busy copy engines, any command in flight, active
        # streams).  A key's PowerState is built, validated and evaluated
        # once; only the watts of a valid state are ever stored.
        self._power_watts: Dict[Tuple[int, int, bool, int], float] = {}
        # Statistics
        self.commands_issued: int = 0

    def __repr__(self) -> str:
        return f"<GPUDevice {self.spec.name} streams={len(self.streams)}>"

    # -- streams ----------------------------------------------------------

    def create_stream(self, name: str = "") -> DeviceStream:
        """Create a new stream (``cudaStreamCreate``)."""
        sid = next(self._stream_ids)
        stream = DeviceStream(self, sid, name=name)
        self.streams[sid] = stream
        return stream

    def destroy_stream(self, stream: DeviceStream) -> None:
        """Destroy a stream (host must have synchronized it first)."""
        self.streams.pop(stream.sid, None)

    # -- command plumbing ----------------------------------------------------

    def _enqueue(self, stream: DeviceStream, cmd: Command) -> None:
        cmd.stream_id = stream.sid
        cmd.enqueue_time = self.env.now
        self.commands_issued += 1
        queue = self.fabric.queue_for_stream(stream.sid)
        cmd.queue_id = queue.index

        deps: List[Event] = []
        prev_stream = stream._push_tail(cmd)
        if prev_stream is not None and prev_stream.callbacks is not None:
            deps.append(prev_stream)
        prev_queue = queue.push(cmd)
        if (
            prev_queue is not None
            and prev_queue is not prev_stream
            and prev_queue.callbacks is not None
        ):
            deps.append(prev_queue)

        if not deps:
            self._dispatch(cmd)
        elif len(deps) == 1:
            deps[0].callbacks.append(partial(self._dispatch, cmd))
        else:
            gate = AllOf(self.env, deps)
            gate.callbacks.append(partial(self._dispatch, cmd))

    def _dispatch(self, cmd: Command, _dep: Optional[Event] = None) -> None:
        """Route a dependency-free command to its engine (``_dep`` is the
        dependency whose completion released it, if any)."""
        now = self.env.now
        cmd.mark_ready(now)
        self._inflight += 1
        sid = cmd.stream_id
        prev = self._stream_inflight.get(sid, 0)
        self._stream_inflight[sid] = prev + 1
        if prev == 0:
            self._active_streams += 1
        cmd.done.callbacks.append(partial(self._command_retired, sid))
        if isinstance(cmd, MemcpyCommand):
            if cmd.direction is CopyDirection.HTOD:
                self._htod.submit(cmd)
            else:
                self._dtoh.submit(cmd)
        elif isinstance(cmd, KernelLaunchCommand):
            self.grid_engine.submit(cmd)
        elif isinstance(cmd, MarkerCommand):
            cmd.mark_started(now)
            cmd.done.succeed(now)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot dispatch {cmd!r}")
        if prev == 0:
            self._power_changed()

    def _command_retired(
        self, stream_id: Optional[int], _done: Optional[Event] = None
    ) -> None:
        self._inflight -= 1
        remaining = self._stream_inflight.get(stream_id, 0) - 1
        self._stream_inflight[stream_id] = remaining
        if remaining == 0:
            self._active_streams -= 1
        self._power_changed()

    # -- power ------------------------------------------------------------------

    def _power_changed(self) -> None:
        key = (
            self.smx._resident_threads,
            self._htod.busy + self._dtoh.busy,
            self._inflight > 0,
            self._active_streams,
        )
        watts = self._power_watts.get(key)
        if watts is None:
            watts = self._power_watts[key] = self.power.evaluate(
                PowerState(
                    occupancy=min(self.smx.thread_occupancy, 1.0),
                    dma_busy=key[1],
                    any_active=key[2],
                    active_streams=key[3],
                )
            )
        self.power.update(watts=watts)

    # -- global sync ---------------------------------------------------------

    def synchronize_event(self) -> Event:
        """Event completing when every stream's enqueued work is done
        (``cudaDeviceSynchronize``)."""
        tails = [
            s._tail
            for s in self.streams.values()
            if s._tail is not None and s._tail.callbacks is not None
        ]
        if not tails:
            evt = Event(self.env)
            evt.succeed()
            return evt
        if len(tails) == 1:
            return tails[0]
        return AllOf(self.env, tails)
