"""The device grid engine: thread-block scheduling under the LEFTOVER policy.

The paper's "lazy resource utilization policy" (Section III-A) relies on the
Kepler GigaThread engine's behaviour, called LEFTOVER in Pai et al.: thread
blocks are scheduled *in the order their grids arrived* until some SMX
resource is exhausted; whenever an application's kernel leaves resources
unused, blocks from a *later* grid (possibly from a different stream) are
packed into the leftover space.  This is what lets five kernels requesting
1203 thread blocks overlap on a device with a 208-block ceiling (Figure 5).

Implementation notes
--------------------
* Blocks of one grid placed in the same scheduling pass form a *cohort*
  that shares a single completion event — this keeps the event count
  proportional to scheduling waves rather than thread blocks, which is what
  makes 32-application experiments tractable in pure Python.
* Scheduling passes are deferred to a NORMAL-priority event at the current
  time, so all same-time cohort retirements release their resources before
  the next pass runs (and multiple triggers coalesce into one pass).
* An optional ``admission`` hook lets :mod:`repro.core.baselines` implement
  the symbiosis-style admission control the paper compares against (a grid
  is held back until the hook admits it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..resilience.faults import FaultInjector, FaultKind
from ..sim.engine import Environment
from ..sim.errors import FaultError
from ..sim.events import NORMAL, Event
from ..sim.trace import TraceRecorder
from .commands import KernelLaunchCommand
from .kernels import KernelDescriptor
from .smx import Placement, SMXArray

__all__ = ["GridEngine", "GridState"]


@dataclass(slots=True)
class GridState:
    """Book-keeping for one in-flight kernel launch."""

    cmd: KernelLaunchCommand
    to_place: int          # blocks not yet given to an SMX
    outstanding: int = 0   # blocks currently resident
    waves: int = 0         # scheduling passes that placed >= 1 block
    admitted: bool = True  # admission-control gate (LEFTOVER: always True)
    hang_factor: float = 1.0  # injected slowdown (1.0 = healthy grid)

    @property
    def kernel(self) -> KernelDescriptor:
        """The launch's kernel descriptor."""
        return self.cmd.descriptor

    @property
    def finished(self) -> bool:
        """All blocks placed and retired."""
        return self.to_place == 0 and self.outstanding == 0


class _Cohort(Event):
    """The retirement of the blocks of one grid placed in one pass.

    Created already triggered, to be scheduled at the retirement instant.
    It carries what :meth:`GridEngine._retire` releases, so no closure is
    built per cohort.
    """

    __slots__ = ("grid", "placements", "placed")

    def __init__(
        self,
        env: Environment,
        retire: Callable[["_Cohort"], None],
        grid: GridState,
        placements: List[Placement],
        placed: int,
    ) -> None:
        self.env = env
        self.callbacks = [retire]
        self._ok = True
        self._defused = False
        self._value = None
        self.grid = grid
        self.placements = placements
        self.placed = placed


class GridEngine:
    """Schedules kernel grids onto an :class:`SMXArray`.

    Parameters
    ----------
    env:
        Simulation environment.
    smx_array:
        The device's SMX resources.
    trace:
        Optional recorder; one ``kernel`` span per launch command.
    on_change:
        Callback invoked after every occupancy change (power model hook).
    admission:
        Optional ``(GridState, List[GridState]) -> bool`` called before a
        *new* grid may receive blocks while other grids are active.  The
        default (``None``) is the LEFTOVER policy: everything is admitted.
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` consulted
        at every launch submission.  An armed ``launch_fail`` fails the
        command immediately (transient ``cudaLaunchKernel`` error); an
        armed ``kernel_hang`` inflates the grid's block retirement time by
        the fault's factor.  ``None`` (the default) keeps the engine
        byte-identical to a build without fault injection.
    max_concurrent_grids:
        Hardware limit on simultaneously executing grids (32 on CC 3.5).
    retire_quantum:
        Cohort retirements are rounded *up* to a multiple of this many
        seconds (default 1 us).  Without it, slightly staggered cohorts
        retire at distinct instants, each retirement triggers its own
        scheduling pass placing a slightly smaller cohort, and scheduling
        degenerates toward per-block granularity (quadratic event blowup
        under heavy contention).  The quantum bounds the timing error of
        any single block at ``retire_quantum`` while keeping the event
        count proportional to true scheduling waves.  Set to 0 to disable.
    """

    def __init__(
        self,
        env: Environment,
        smx_array: SMXArray,
        trace: Optional[TraceRecorder] = None,
        on_change: Optional[Callable[[], None]] = None,
        admission: Optional[Callable[[GridState, List["GridState"]], bool]] = None,
        injector: Optional[FaultInjector] = None,
        max_concurrent_grids: int = 32,
        retire_quantum: float = 1e-6,
    ) -> None:
        if retire_quantum < 0:
            raise ValueError("retire_quantum must be >= 0")
        self.env = env
        self.smx = smx_array
        self.trace = trace
        self.on_change = on_change
        self.admission = admission
        self.injector = injector
        self.max_concurrent_grids = max_concurrent_grids
        self.retire_quantum = retire_quantum
        self._pending: List[GridState] = []
        # Pending grids with resident blocks, kept in step with every
        # change of ``GridState.outstanding`` to or from zero.
        self._executing = 0
        self._pass_scheduled = False
        # Statistics
        self.grids_completed: int = 0
        self.total_waves: int = 0

    # -- submission --------------------------------------------------------

    def submit(self, cmd: KernelLaunchCommand) -> Optional[GridState]:
        """Accept a ready kernel launch command for scheduling.

        Returns ``None`` when an injected launch failure rejected the
        command (its ``done`` event fails with a
        :class:`~repro.sim.errors.FaultError`; ``start_time`` stays
        ``None``).
        """
        hang_factor = 1.0
        if self.injector is not None:
            fault = self.injector.kernel_fault(cmd.app_id, self.env.now)
            if fault is not None:
                if fault.kind is FaultKind.LAUNCH_FAIL:
                    error = FaultError(
                        f"injected launch failure for {cmd.descriptor.name} "
                        f"({cmd.app_id or 'unknown app'})",
                        kind=FaultKind.LAUNCH_FAIL.value,
                        target=cmd.app_id,
                    )
                    # Defuse: stream/queue gates and retirement callbacks
                    # still fire on a failed event, but an unwaited failure
                    # must not abort the engine — the app thread detects it
                    # at its next synchronize.
                    cmd.done.fail(error)
                    cmd.done.defuse()
                    return None
                hang_factor = fault.factor
            throttle = self.injector.throttle_factor(self.env.now)
            if throttle != 1.0:
                hang_factor *= throttle
            jitter = self.injector.clock_jitter(cmd.app_id, self.env.now)
            if jitter != 1.0:
                hang_factor *= jitter
        nblocks = cmd.descriptor.num_blocks
        grid = GridState(cmd=cmd, to_place=nblocks, hang_factor=hang_factor)
        if self.admission is not None:
            grid.admitted = False
        self._pending.append(grid)
        self._request_pass()
        return grid

    @property
    def active_grids(self) -> int:
        """Grids currently holding or awaiting SMX resources."""
        return len(self._pending)

    # -- scheduling --------------------------------------------------------

    def _request_pass(self) -> None:
        """Schedule a scheduling pass at the current time (coalesced)."""
        if self._pass_scheduled:
            return
        self._pass_scheduled = True
        evt = Event(self.env)
        evt.callbacks.append(self._run_pass)
        # NORMAL priority: runs after all already-queued same-time cohort
        # retirements, so released resources are visible to this pass.
        evt.succeed(priority=NORMAL)

    def _run_pass(self, _evt: Event) -> None:
        self._pass_scheduled = False
        now = self.env._now
        smx = self.smx
        changed = False
        executing = self._executing
        # Fast path: with no free block slot anywhere, no kernel can place.
        free_block_slots = smx.free_block_slots

        for grid in self._pending:
            if free_block_slots == 0:
                break
            if grid.to_place == 0:
                continue
            if self.admission is not None and not grid.admitted:
                active = [g for g in self._pending if g is not grid and g.outstanding > 0]
                if not self.admission(grid, active):
                    # Admission control holds this grid back; LEFTOVER mode
                    # never takes this branch.  In-order semantics: later
                    # grids must not jump a held-back grid, mirroring a
                    # software scheduler that launches sequentially.
                    break
                grid.admitted = True
            if grid.outstanding == 0:
                if executing >= self.max_concurrent_grids:
                    continue
            kernel = grid.cmd.descriptor
            placements = smx.place(kernel, grid.to_place)
            placed = sum(p.nblocks for p in placements)
            if placed == 0:
                continue
            if grid.outstanding == 0:
                self._executing += 1
                if grid.to_place == kernel._num_blocks:
                    # First blocks of this launch.
                    grid.cmd.mark_started(now)
                    grid.cmd.first_block_time = now
                    executing += 1
            grid.to_place -= placed
            grid.outstanding += placed
            grid.waves += 1
            self.total_waves += 1
            free_block_slots -= placed
            changed = True
            self._schedule_retirement(grid, placements, placed)

        if changed and self.on_change is not None:
            self.on_change()

    def _schedule_retirement(
        self, grid: GridState, placements: List[Placement], placed: int
    ) -> None:
        """Arrange for a cohort to retire after the kernel's block duration."""
        duration = grid.cmd.descriptor.block_duration * grid.hang_factor
        if self.injector is not None:
            # Gray SMX slowdown acts per *cohort*, not per launch: a
            # window opening mid-kernel slows its remaining waves, which
            # is what makes the degradation visible to latency stretch
            # while DEVICE_THROTTLE stays a submit-time property.
            slow = self.injector.smx_slowdown(self.env.now)
            self.smx.speed_scale = slow
            if slow != 1.0:
                duration *= slow
        q = self.retire_quantum
        if q > 0:
            # Round the absolute retirement instant up to the quantum so
            # near-simultaneous cohorts coalesce into one scheduling pass.
            now = self.env._now
            target = now + duration
            quantized = -(-target // q) * q  # ceil to the grid
            duration = quantized - now
        cohort = _Cohort(self.env, self._retire, grid, placements, placed)
        self.env.schedule(cohort, delay=duration, priority=NORMAL)

    def _retire(self, cohort: _Cohort) -> None:
        grid = cohort.grid
        self.smx.release(grid.cmd.descriptor, cohort.placements)
        grid.outstanding -= cohort.placed
        if grid.outstanding == 0:
            self._executing -= 1
            if grid.to_place == 0:
                self._finish(grid)
        if self.on_change is not None:
            self.on_change()
        self._request_pass()

    def _finish(self, grid: GridState) -> None:
        now = self.env.now
        self._pending.remove(grid)
        self.grids_completed += 1
        cmd = grid.cmd
        cmd.waves = grid.waves
        cmd.last_block_time = now
        if self.trace is not None and cmd.first_block_time is not None:
            self.trace.record(
                track=f"stream-{cmd.stream_id}",
                category="kernel",
                name=cmd.descriptor.name,
                start=cmd.first_block_time,
                end=now,
                app=cmd.app_id,
                blocks=cmd.descriptor.num_blocks,
                waves=grid.waves,
            )
        cmd.done.succeed(now)
