"""The fleet-aware application thread: checkpointed, migratable execution.

:class:`FleetAppThread` is the framework :class:`~repro.framework.
app_thread.AppThread` plus what a fleet adds through its hooks:

* **completion tracking** — each command gets a watcher that knows its
  in-phase sequence number; FIFO streams make the watchers extend a
  *contiguous completed prefix* in the app's :class:`~repro.fleet.
  checkpoint.AppCheckpoint`.  Completions on a lost device are ignored.
* **phase-boundary snapshots** — sync, fault check, harvest of the counted
  prefix and a checkpoint snapshot after every phase.
* **re-binding** — on a new device the attempt re-allocates, re-uploads
  the checkpoint's cumulative HtoD payload in one burst and resumes from
  the checkpointed indices: at most the one in-flight kernel re-executes.

An attempt acquires its own stream, keeps the first attempt's
``gpu_start``, and abandons a lost device's stream and memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..framework.app_thread import AppThread
from ..framework.kernel import KernelApp
from ..framework.metrics import AppRecord
from ..gpu.commands import CopyDirection
from .checkpoint import AppCheckpoint
from .registry import FleetDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment

__all__ = ["FleetAppThread"]

#: Buffer name of the migration re-upload transfer.
RESTORE_BUFFER = "checkpoint-restore"


class FleetAppThread(AppThread):
    """One application's host thread in a multi-device fleet."""

    def __init__(
        self,
        env: "Environment",
        app: KernelApp,
        record: AppRecord,
        checkpoint: AppCheckpoint,
        on_checkpoint: Optional[Callable[["FleetAppThread"], None]] = None,
    ) -> None:
        super().__init__(env, None, app, None, record)
        self.checkpoint = checkpoint
        self.on_checkpoint = on_checkpoint
        self.fdev: Optional[FleetDevice] = None
        #: Bind-time fencing token (see :mod:`repro.integrity.fencing`):
        #: checkpoint writes present it so stale writes are rejected.
        self.fence_token = None
        #: Device index holding the app's device allocations; ``None``
        #: forces re-allocation and restore at the next attempt.
        self.bound_device: Optional[int] = None
        #: Optional :class:`~repro.resilience.gray.StragglerDetector` fed
        #: a latency stretch per completed command.
        self.detector = None
        self._kernel_observe = self._dma_observe = None  # per binding
        #: Prefix commands not yet harvested (only these become events).
        self._counted = set()
        self._next_seq = 0  # in-phase sequence number of the next command
        self.ctx.watch_transfer = self._watch_copy
        self.ctx.watch_kernel = self._watch_kernel

    def bind(self, fdev: FleetDevice) -> None:
        """Point the thread at a (possibly new) fleet device."""
        self.fdev = fdev
        self.device = self.ctx.device = fdev.gpu
        self.ctx.host_spec = fdev.gpu.spec.host
        self.synchronizer = fdev.synchronizer
        self._kernel_observe = self._dma_observe = None

    # -- parent-thread phases ----------------------------------------------

    def prepare(self):
        yield from super().prepare()
        self.bound_device = self.fdev.index

    def cleanup(self):
        yield from self.release_device()
        yield from self.app.free_host_memory(self.ctx)

    def release_device(self):
        """Free device memory — or drop it on a lost device, where
        ``cudaFree`` would just error."""
        if self.bound_device is None or self.fdev.lost:
            self.ctx.device_allocations.clear()
        else:
            yield from self.app.free_device_memory(self.ctx)

    # -- the attempt body --------------------------------------------------

    def run_attempt(self):
        """Run (or resume) the GPU section on the currently bound device.

        Raises :class:`~repro.sim.errors.FaultError` when a command of
        this attempt failed, or lets the coordinator's
        ``Interrupt(DeviceLost)`` propagate when the device dies
        mid-attempt.
        """
        fdev = self.fdev
        ckpt = self.checkpoint
        stream = fdev.manager.acquire(self.app.app_id)
        self.assign_stream(stream)
        self.record.stream_index = ckpt.stream_index = stream.index
        self.record.device_index = ckpt.device_index = fdev.index
        yield from self.run()
        self._harvest_counted()  # a restore with no phase left after it

    def _restore(self):
        # After a (re-)bind: re-allocate, then re-upload the completed
        # HtoD payload in one burst, so recovery cost shows up in the
        # same transfer metrics as regular work.
        ctx = self.ctx
        if self.bound_device == self.fdev.index:
            return
        ctx.device_allocations.clear()
        yield from self.app.allocate_device_memory(ctx)
        self.bound_device = self.fdev.index
        if self.checkpoint.restore_bytes > 0:
            yield ctx.env.timeout(ctx.host_spec.api_call_overhead)
            cmd = ctx.stream.enqueue_memcpy(
                CopyDirection.HTOD, self.checkpoint.restore_bytes,
                buffer=RESTORE_BUFFER, app_id=self.app.app_id,
            )
            ctx.memcpy_commands.append(cmd)
            yield from self._sync("checkpoint.restore")
            self._check_faults()
            if not self.fdev.lost:
                self._counted.add(cmd)  # harvested, but not progress

    def _resume_phase(self) -> int:
        return self.checkpoint.phase_index

    def _first_copy(self) -> int:
        self._next_seq = self.checkpoint.copy_index
        return self._next_seq

    def _first_kernel(self) -> int:
        self._next_seq = self.checkpoint.kernel_index
        return self._next_seq

    def _phase_done(self):
        yield from self._sync("stream.sync.phase")
        self._check_faults()
        self._harvest_counted()
        ckpt = self.checkpoint
        ckpt.phase_index += 1
        ckpt.copy_index = ckpt.kernel_index = 0
        ckpt.time = self.env.now
        if self.on_checkpoint is not None:
            self.on_checkpoint(self)

    def _release(self, lock_request) -> None:
        # No harvest here: a primary cut short by a hedge win must not add
        # its partial phase to the record (boundaries and the failure
        # bookkeeping harvest).  A lost device's stream is abandoned, not
        # vacated: every app holding or waiting on it is migrating off.
        if not self.fdev.lost:
            self.stream.vacate(self.app.app_id, lock_request)

    # -- failure bookkeeping ----------------------------------------------

    def note_device_lost(self, cause) -> int:
        """Account the loss and return the re-executed-kernel count.

        A kernel is *re-executed* iff it started on the lost device at or
        before the loss instant and never entered the completed prefix.
        Uncounted commands are dropped and the binding cleared, so the
        next attempt re-allocates and restores.
        """
        loss_time = getattr(cause, "time", self.env.now)
        reexec = sum(
            1 for cmd in self.ctx.kernel_commands
            if cmd.start_time is not None and cmd.start_time <= loss_time
            and cmd not in self._counted
        )
        self.reset_attempt()
        self.bound_device = None
        return reexec

    def reset_attempt(self) -> None:
        """Drop one failed attempt's uncompleted commands; the retry
        resumes from the checkpointed prefix, not from scratch."""
        self._harvest_counted()
        self._clear_commands()

    def restart_from_scratch(self) -> int:
        """Forget all checkpointed progress (checkpointing disabled) and
        return the completed kernels wiped, all re-executed work."""
        self._clear_commands()
        ckpt = self.checkpoint
        wiped = ckpt.completed_kernels
        ckpt.phase_index = ckpt.copy_index = ckpt.kernel_index = 0
        ckpt.completed_copies = ckpt.completed_kernels = ckpt.restore_bytes = 0
        ckpt.time = 0.0
        self.record.transfers.clear()
        self.record.kernels.clear()
        return wiped

    def _harvest_counted(self) -> None:
        counted = self._counted
        if not counted:
            return
        ctx = self.ctx
        copies, kernels = [], []
        for cmds, done in (
            (ctx.memcpy_commands, copies),
            (ctx.kernel_commands, kernels),
        ):
            keep = []
            for cmd in cmds:
                (done if cmd in counted else keep).append(cmd)
            cmds[:] = keep
        counted.clear()  # the rest was dropped with an earlier attempt
        self._harvest(copies, kernels)

    # -- completion tracking -----------------------------------------------

    # The watchers bind everything a completion needs as default
    # arguments: one tuple per command, no closure cells, no attribute
    # chasing when the callback fires.

    def _watch_kernel(self, cmd) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        if self._kernel_observe is None and self.detector is not None:
            self._kernel_observe = self.detector.kernel_observer(
                self.fdev.index
            )

        def note(
            event, cmd=cmd, seq=seq, fdev=self.fdev, ckpt=self.checkpoint,
            counted=self._counted, observe=self._kernel_observe,
            block_duration=cmd.descriptor.block_duration,
        ):
            # A phantom completion, a failed launch, or one past a gap in
            # the prefix (a failed command ahead of it) is not progress.
            if fdev.lost or not cmd.done.ok or seq != ckpt.kernel_index:
                return
            ckpt.kernel_index += 1
            ckpt.completed_kernels += 1
            counted.add(cmd)
            if observe is not None:
                # Latency stretch over the ideal time at spec clocks (one
                # block_duration per wave).  ``done`` has triggered, so
                # read its raw slot, not the guarded property.
                ideal = (cmd.waves or 1) * block_duration
                if ideal > 0:
                    observe((event._value - cmd.start_time) / ideal)

        cmd.done.callbacks.append(note)

    def _watch_copy(self, cmd) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        fdev = self.fdev
        if self._dma_observe is None and self.detector is not None:
            self._dma_observe = self.detector.dma_observer(fdev.index)
        htod = cmd.direction is CopyDirection.HTOD
        wire = 0.0  # ideal wire time: fixed by direction and payload
        if self._dma_observe is not None:
            dma = fdev.gpu.spec.dma_htod if htod else fdev.gpu.spec.dma_dtoh
            wire = dma.transfer_time(cmd.nbytes)

        def note(
            event, cmd=cmd, seq=seq, fdev=fdev, ckpt=self.checkpoint,
            counted=self._counted, htod=htod, observe=self._dma_observe,
            wire=wire,
        ):
            if fdev.lost or not cmd.done.ok or seq != ckpt.copy_index:
                return
            ckpt.copy_index += 1
            ckpt.completed_copies += 1
            if htod:
                ckpt.restore_bytes += cmd.nbytes
            counted.add(cmd)
            if observe is not None and wire > 0:
                observe((event._value - cmd.start_time) / wire)

        cmd.done.callbacks.append(note)
