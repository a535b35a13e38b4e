"""One simulated device and the host machinery the paper's harness puts
around it (Section IV): the GPU, its stream pool, the HtoD transfer mutex
and the power-monitor thread, plus the fault injector fed by the run's
plan.

:class:`DeviceWorld` is the only place that builds that bundle.  The batch
harness and the streaming engine build one; the fleet registry builds one
per device (:class:`~repro.fleet.registry.FleetDevice` adds health state
on top).  :func:`run_parent` is the run loop they share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..gpu.device import GPUDevice
from ..gpu.specs import DeviceSpec
from ..resilience.faults import FaultInjector, FaultPlan
from ..sim.errors import HarnessCrash
from .power_monitor import DEFAULT_INTERVAL, PowerMonitor
from .stream_manager import StreamManager
from .sync import make_synchronizer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment
    from ..sim.process import Process

__all__ = ["DeviceWorld", "run_parent", "start_crash"]


class DeviceWorld:
    """A GPU with its stream pool, transfer synchronizer and power monitor.

    The fault injector exists only for a non-empty ``plan``: with none the
    engines stay on their fault-free code paths.  The injector arms due
    faults lazily, on every query, so nothing needs to be attached to the
    environment.
    """

    def __init__(
        self,
        env: "Environment",
        *,
        spec: DeviceSpec,
        num_streams: int,
        memory_sync: bool,
        copy_policy: str = "interleave",
        power_interval: float = DEFAULT_INTERVAL,
        plan: Optional[FaultPlan] = None,
        trace=None,
        admission=None,
        index: int = 0,
    ) -> None:
        self.env = env
        self.index = index
        self.injector: Optional[FaultInjector] = None
        if plan is not None and not plan.empty:
            self.injector = FaultInjector(env, plan, trace=trace)
        self.gpu = GPUDevice(
            env,
            spec=spec,
            trace=trace,
            copy_policy=copy_policy,
            admission=admission,
            injector=self.injector,
        )
        self.manager = StreamManager(env, self.gpu, num_streams)
        self.synchronizer = make_synchronizer(env, memory_sync)
        self.monitor = PowerMonitor(
            env, self.gpu, interval=power_interval, injector=self.injector
        )

    def energy_between(self, t0: float, t1: float) -> float:
        """Exact energy over ``[t0, t1]`` (zero for an empty window)."""
        if t1 <= t0:
            return 0.0
        return self.gpu.power.energy(t1) - self.gpu.power.energy(t0)


def start_crash(env: "Environment", at: float, name: str) -> "Process":
    """Start a process that raises :class:`HarnessCrash` at time ``at``."""

    def body():
        yield env.timeout(at)
        raise HarnessCrash(env.now)

    return env.process(body(), name=name)


def run_parent(
    env: "Environment",
    body: Generator,
    name: str,
    *,
    crash_at: Optional[float] = None,
    crash_name: str = "harness-crash",
) -> None:
    """Start the parent process, run until it is done, then settle.

    The settle pass drains the same-time trailing events (power segment
    closes).  ``crash_at`` starts a :func:`start_crash` process right
    after the parent; its place in the calendar sets same-time tie order,
    so a caller that needs the crash earlier starts it itself.
    """
    done = env.process(body, name=name)
    if crash_at is not None:
        start_crash(env, crash_at, crash_name)
    env.run(until=done)
    env.run()
