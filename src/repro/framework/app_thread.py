"""The simulated host thread that runs one application instance.

The paper's harness launches each application class instance "on its own
independent child thread"; within the thread the instance runs its execution
pattern (in general HtoD transfers -> kernel execution -> DtoH transfers).
:class:`AppThread` is that child thread as a simulation process.  It drives
the application's :class:`~repro.framework.kernel.KernelApp` lifecycle
(Table II methods) and implements the two policies under study:

* **stream sharing** — the thread occupies its assigned framework stream
  for the whole GPU section, serializing co-resident applications;
* **memory-transfer synchronization** — when enabled, every HtoD transfer
  phase runs inside the global transfer mutex and the thread waits for the
  phase's copies to *complete* before releasing (the pseudo-burst of
  Section III-B).  When disabled, copies are enqueued asynchronously and
  the thread runs ahead, exactly like stock CUDA code.

It is the only implementation of an app's GPU section: every entry point
(harness, streaming, serving, traffic, fleet, hedging) runs the same phase
loop.  The multi-device fleet subclasses it
(:class:`~repro.fleet.thread.FleetAppThread`) to add checkpointing and
re-binding through the hooks at the bottom of the class; on one device
every hook is inert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..gpu.commands import (
    CopyDirection,
    KernelLaunchCommand,
    MemcpyCommand,
)
from ..gpu.device import GPUDevice
from ..gpu.specs import HostSpec
from ..sim.errors import EventError
from ..sim.events import AllOf
from .kernel import (
    HostComputePhase,
    KernelApp,
    KernelPhase,
    SyncPhase,
    TransferPhase,
)
from .metrics import AppRecord, KernelEvent, TransferEvent
from .stream import Stream

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment

__all__ = ["AppContext", "AppThread", "close_traces"]


@dataclass
class AppContext:
    """Per-application state handed to every Table II method.

    ``stream`` is the *device* stream; it is ``None`` until the harness
    assigns one at child-thread launch time (allocation and initialization
    do not need a stream).  ``device`` and ``host_spec`` are ``None`` until
    a fleet thread is first bound to a device.
    """

    env: "Environment"
    device: GPUDevice
    stream: Optional[object]
    host_spec: HostSpec
    app_id: str
    device_allocations: Dict[str, object] = field(default_factory=dict)
    memcpy_commands: List[MemcpyCommand] = field(default_factory=list)
    kernel_commands: List[KernelLaunchCommand] = field(default_factory=list)
    #: Commands issued since the last :meth:`drain_new_transfers` call —
    #: the synchronizer waits on exactly these.
    _new_transfers: List[MemcpyCommand] = field(default_factory=list)
    #: Called with each command as it is noted, before it can complete
    #: (the fleet's checkpoint watchers; ``None`` on a single device).
    watch_transfer: Optional[Callable[[MemcpyCommand], None]] = None
    watch_kernel: Optional[Callable[[KernelLaunchCommand], None]] = None

    def note_transfer(self, cmd: MemcpyCommand) -> None:
        """Record an enqueued memcpy (called by ``transfer_memory``)."""
        if self.watch_transfer is not None:
            self.watch_transfer(cmd)
        self.memcpy_commands.append(cmd)
        self._new_transfers.append(cmd)

    def note_kernel(self, cmd: KernelLaunchCommand) -> None:
        """Record an enqueued kernel launch."""
        if self.watch_kernel is not None:
            self.watch_kernel(cmd)
        self.kernel_commands.append(cmd)

    def drain_new_transfers(self) -> List[MemcpyCommand]:
        """Commands enqueued since the last drain (and reset the list)."""
        new, self._new_transfers = self._new_transfers, []
        return new


class AppThread:
    """One child thread executing one :class:`KernelApp` instance.

    Mirrors the paper's harness structure: the *parent* thread allocates
    and initializes every application's memory up front (:meth:`prepare`)
    and frees it after all children complete (:meth:`cleanup`); the child
    thread (:meth:`run`) executes only the application's GPU section —
    "in general, HtoD memory transfer -- kernel execution -- DtoH memory
    transfer".  Every copy and launch goes through the app's Table II
    ``transfer_memory``/``execute_kernel``, so an app that overrides one
    behaves the same on every entry point.

    Parameters
    ----------
    env, device:
        Simulation environment and target GPU (``None`` for a fleet thread,
        which is bound to a device later).
    app:
        The application instance to run.
    synchronizer:
        Transfer synchronizer (real or null, see
        :mod:`repro.framework.sync`).
    record:
        The :class:`~repro.framework.metrics.AppRecord` to fill in.
    """

    def __init__(
        self,
        env: "Environment",
        device: Optional[GPUDevice],
        app: KernelApp,
        synchronizer,
        record: AppRecord,
    ) -> None:
        self.env = env
        self.device = device
        self.app = app
        self.stream: Optional[Stream] = None
        self.synchronizer = synchronizer
        self.record = record
        #: Causal-tracing context for this app, set by the engine that
        #: admitted it (None in untraced runs: every site below is one
        #: attribute check and results stay byte-identical).
        self.trace_ctx = None
        #: Sim time :meth:`prepare` finished: where the app's admission
        #: wait (spawn stagger, ready queue) starts.
        self.ready_at: Optional[float] = None
        self.ctx = AppContext(
            env=env,
            device=device,
            stream=None,
            host_spec=device.spec.host if device is not None else None,
            app_id=app.app_id,
        )

    def open_trace(self, tracer, at: float, trace_ctxs: Dict[int, object]) -> None:
        """Start this app's root causal trace at ``at``, keyed by launch index."""
        record = self.record
        self.trace_ctx = trace_ctxs[record.launch_index] = tracer.start_trace(
            record.app_id, at, type=record.type_name, index=record.launch_index
        )

    # -- parent-thread phases ---------------------------------------------------

    def prepare(self):
        """Allocate host + device memory and initialize host data.

        Run by the harness *parent* before any child thread starts ("The
        execution flow ... begins with ... allocating all host and device
        memory, and initializing host memory").
        """
        prepare_from = self.env.now
        yield from self.app.allocate_host_memory(self.ctx)
        yield from self.app.allocate_device_memory(self.ctx)
        yield from self.app.initialize_host_memory(self.ctx)
        if self.trace_ctx is not None and self.env.tracer is not None:
            self._trace("host.prepare", "prepare", prepare_from)
        self.ready_at = self.env.now

    def cleanup(self):
        """Free all memory (parent thread, after every child completes)."""
        yield from self.app.free_device_memory(self.ctx)
        yield from self.app.free_host_memory(self.ctx)

    def assign_stream(self, stream: Stream) -> None:
        """Bind the framework stream (done at child-thread launch time)."""
        self.stream = stream
        self.ctx.stream = stream.device_stream

    # -- the child-thread body ----------------------------------------------------

    def run(self):
        """Process generator: the application's GPU section.

        ``record.gpu_start`` is stamped only while unset, so it keeps the
        first attempt's start unless :meth:`reset_for_retry` cleared it.
        """
        if self.stream is None:
            raise RuntimeError(f"{self.app.app_id}: no stream assigned")
        env = self.env
        app = self.app
        ctx = self.ctx
        record = self.record

        traced = self.trace_ctx is not None and env.tracer is not None

        # Serialize with other applications sharing this stream.
        occupy_from = env.now
        lock_request = yield from self.stream.occupy(app.app_id)
        if record.gpu_start == 0.0:
            record.gpu_start = env.now
        if traced:
            self._trace("stream.occupy", "stream-occupy", occupy_from)
        try:
            yield from self._restore()
            phases = app.profile.phases
            for index in range(self._resume_phase(), len(phases)):
                phase = phases[index]
                if isinstance(phase, TransferPhase):
                    yield from self._run_transfer_phase(phase)
                elif isinstance(phase, KernelPhase):
                    yield from app.execute_kernel(
                        ctx, phase, self._first_kernel()
                    )
                elif isinstance(phase, SyncPhase):
                    yield from self._sync("stream.sync")
                elif isinstance(phase, HostComputePhase):
                    host_from = env.now
                    yield env.timeout(phase.duration)
                    if traced:
                        self._trace("host.compute", "host-compute", host_from)
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown phase {phase!r}")
                yield from self._phase_done()

            # Final cudaStreamSynchronize: wait for everything enqueued.
            yield from self._sync("stream.sync.final")
            # A failed command that was not the stream tail completes the
            # sync successfully; surface it the way a CUDA error code
            # returned by cudaStreamSynchronize would be.
            self._check_faults()
        finally:
            record.complete_time = env.now
            self._release(lock_request)

    def reset_for_retry(self) -> None:
        """Discard one attempt's command/metric state before re-running.

        Called by the resilience supervisor between attempts.  Device and
        host allocations persist (the retry reuses them, like a server
        re-issuing the same request); only the enqueued-command bookkeeping,
        the per-attempt measured events and ``gpu_start`` are cleared, so
        the record reports the last attempt's GPU section.
        """
        self._clear_commands()
        self.record.transfers.clear()
        self.record.kernels.clear()
        self.record.gpu_start = 0.0

    def _clear_commands(self) -> None:
        ctx = self.ctx
        ctx.memcpy_commands.clear()
        ctx.kernel_commands.clear()
        ctx._new_transfers.clear()

    def _check_faults(self) -> None:
        """Raise the first recorded command failure of this attempt."""
        for cmd in self.ctx.kernel_commands:
            if cmd.done.triggered and not cmd.done.ok:
                raise cmd.done.value
        for cmd in self.ctx.memcpy_commands:
            if cmd.done.triggered and not cmd.done.ok:
                raise cmd.done.value

    def _sync(self, name: str):
        """``cudaStreamSynchronize``, traced as a sync wait."""
        sync_from = self.env.now
        yield self.ctx.stream.synchronize_event()
        if self.trace_ctx is not None and self.env.tracer is not None:
            self._trace(name, "sync-wait", sync_from)

    def _run_transfer_phase(self, phase: TransferPhase):
        """One transfer phase, with or without the paper's mutex."""
        app = self.app
        ctx = self.ctx
        start = self._first_copy()
        if start == len(phase.buffers):
            return  # every copy landed before the app was re-bound
        use_mutex = (
            self.synchronizer.enabled
            and phase.direction is CopyDirection.HTOD
            and phase.synchronized
        )
        traced = self.trace_ctx is not None and self.env.tracer is not None
        if use_mutex:
            mutex_from = self.env.now
            token = yield from self.synchronizer.acquire(app.app_id)
            if traced:
                self._trace("transfer.mutex", "transfer-mutex", mutex_from)
            try:
                yield from app.transfer_memory(ctx, phase, start)
                pending = [c.done for c in ctx.drain_new_transfers()]
                if pending:
                    # Hold the mutex until this app's burst fully lands.
                    burst_from = self.env.now
                    yield AllOf(self.env, pending)
                    if traced:
                        self._trace("transfer.burst", "dma-burst", burst_from)
            finally:
                self.synchronizer.release(app.app_id, token)
        else:
            yield from app.transfer_memory(ctx, phase, start)
            ctx.drain_new_transfers()

    # -- hooks: the fleet thread overrides these; inert on one device ---------

    def _restore(self):
        """Re-create device state before the first phase; ``yield from``
        target, empty on one device."""
        return ()

    def _resume_phase(self) -> int:
        """Index of the first phase this attempt runs."""
        return 0

    def _first_copy(self) -> int:
        """Index of the first buffer of a transfer phase to copy."""
        return 0

    def _first_kernel(self) -> int:
        """Index of the first launch of a kernel phase to enqueue."""
        return 0

    def _phase_done(self):
        """Phase-boundary work; ``yield from`` target, empty on one
        device (only the fleet syncs and snapshots here)."""
        return ()

    def _release(self, lock_request) -> None:
        """End of the attempt, however it ended: harvest every command that
        completed successfully, then free the stream."""
        ctx = self.ctx
        self._harvest(
            [c for c in ctx.memcpy_commands if c.done.triggered and c.done.ok],
            [c for c in ctx.kernel_commands if c.done.triggered and c.done.ok],
        )
        self.stream.vacate(self.app.app_id, lock_request)

    # -- measurement ------------------------------------------------------------

    def _trace(self, name: str, category: str, start: float) -> None:
        """Record one wait span ending now on this app's trace.

        Skips empty intervals so untouched waits (an already-free mutex,
        an already-drained stream) do not clutter the tree.
        """
        if self.env.now > start:
            self.env.tracer.record_leaf(
                self.trace_ctx, name, category, start, self.env.now
            )

    def _harvest(self, copies, kernels) -> None:
        """Convert completed commands into metric events and, when traced,
        engine-level leaf spans — so each command must be harvested once.

        Kernel enqueue->start is Hyper-Q slot wait, start->complete is
        SMX execution; copy enqueue->start is DMA queueing, start->
        complete is DMA service.  The critical-path extractor uses these
        to sub-attribute time spent inside synchronization waits.
        """
        record = self.record
        # Bind the fast-path recorder locally: it runs twice per command.
        traced = self.trace_ctx is not None and self.env.tracer is not None
        leaf = self.env.tracer.record_leaf if traced else None
        ctx = self.trace_ctx
        for cmd in copies:
            ev = TransferEvent(
                direction=cmd.direction,
                nbytes=cmd.nbytes,
                buffer=cmd.buffer,
                enqueued=cmd.enqueue_time,
                started=_start_time(cmd),
                completed=cmd.done.value,
            )
            record.transfers.append(ev)
            if traced:
                if ev.started > ev.enqueued:
                    leaf(
                        ctx, "dma.queue", "dma-queue", ev.enqueued,
                        ev.started,
                    )
                if ev.completed > ev.started:
                    # Direction rides in the span name (an interned
                    # string, not a per-span meta dict): copy identity
                    # lives in record.transfers, the span only needs the
                    # wait category.
                    leaf(
                        ctx,
                        "dma.service.htod"
                        if ev.direction is CopyDirection.HTOD
                        else "dma.service.dtoh",
                        "dma-service", ev.started, ev.completed,
                    )
        for cmd in kernels:
            ev = KernelEvent(
                name=cmd.descriptor.name,
                num_blocks=cmd.descriptor.num_blocks,
                enqueued=cmd.enqueue_time,
                started=_start_time(cmd),
                completed=cmd.done.value,
                waves=cmd.waves,
            )
            record.kernels.append(ev)
            if traced:
                if ev.started > ev.enqueued:
                    leaf(
                        ctx, "hyperq.slot", "hyperq-slot", ev.enqueued,
                        ev.started,
                    )
                if ev.completed > ev.started:
                    leaf(ctx, ev.name, "smx-exec", ev.started, ev.completed)


def _start_time(cmd) -> float:
    """A harvested command's start instant; like ``Event.value``, it
    raises while the instant is still unset."""
    start = cmd.start_time
    if start is None:
        raise EventError(f"start of {cmd!r} is not yet available")
    return start


def close_traces(tracer, trace_ctxs: Dict[int, object], records) -> None:
    """End each record's root trace at its completion, with its outcome."""
    for record in records:
        ctx = trace_ctxs.get(record.launch_index)
        if ctx is not None:
            tracer.end_trace(ctx, record.complete_time, outcome=record.outcome)
