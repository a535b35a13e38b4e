"""The fleet's device registry: N simulated GPUs with health state.

Each :class:`FleetDevice` is one :class:`~repro.framework.world.DeviceWorld`
(a GPU with its own stream pool, transfer synchronizer, power monitor and
fault injector, fed the per-device slice of the run's fault plan) plus
health state.  The registry owns ground-truth liveness: a ``DEVICE_LOSS``
spec spawns a tiny process that marks the device lost at the planned
instant and notifies the failover coordinator — *detection* (and therefore
migration) happens later, when the health monitor's missed-heartbeat
budget runs out.

A lost device is never torn down mid-run: commands already on its queues
may keep retiring in the simulation, but their completions are ignored by
the checkpoint layer, its power integral is cut off at the loss instant,
and nothing new is placed on it.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..framework.world import DeviceWorld
from ..gpu.specs import DeviceSpec, tesla_k20
from ..resilience.faults import GRAY_KINDS, FaultPlan
from .config import FleetConfig
from .topology import FleetTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment

__all__ = ["DeviceState", "FleetDevice", "DeviceRegistry"]


class DeviceState(str, Enum):
    """Health classification of one fleet device."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"   # throttle window open; still usable
    LOST = "lost"           # off the bus; nothing placed on it

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class FleetDevice(DeviceWorld):
    """One registry slot: a device world plus its health state."""

    def __init__(
        self, env: "Environment", index: int, plan: FaultPlan, **world
    ) -> None:
        super().__init__(env, plan=plan, index=index, **world)
        self.state = DeviceState.HEALTHY
        self.loss_time: Optional[float] = None
        self.detected_time: Optional[float] = None
        #: Throttle windows from the plan, for health classification:
        #: ``(start, end, factor)`` — known schedule, observed degradation.
        self.throttle_windows: List[Tuple[float, float, float]] = [
            (f.time, f.time + f.duration, f.factor)
            for f in plan
            if f.kind.value == "device_throttle"
        ]
        #: Gray-degradation windows from the plan (``(start, end,
        #: factor)``).  Ground truth for tests and benchmarks only: the
        #: health monitor deliberately does *not* read these — a gray
        #: failure is exactly the degradation the plan knows about but
        #: the heartbeat path cannot see, so classification must come
        #: from the straggler detector's observed latency stretch.
        self.gray_windows: List[Tuple[float, float, float]] = [
            (f.time, f.time + f.duration, f.factor)
            for f in plan
            if f.kind in GRAY_KINDS
        ]

    def __repr__(self) -> str:
        return f"<FleetDevice {self.index} {self.state.value}>"

    @property
    def lost(self) -> bool:
        """Ground-truth liveness (set at the loss instant, not detection)."""
        return self.state is DeviceState.LOST

    def heartbeat(self, now: float) -> dict:
        """One health-monitor reading: liveness + board power."""
        return {
            "time": now,
            "device": self.index,
            "alive": not self.lost,
            "power": 0.0 if self.lost else self.gpu.power.current_power,
        }

    def throttled_at(self, now: float) -> bool:
        """Whether a planned throttle window is open at ``now``."""
        return any(t0 <= now < t1 for t0, t1, _ in self.throttle_windows)

    def energy_between(self, t0: float, t1: float) -> float:
        """Exact energy over ``[t0, t1]``, cut off at the loss instant."""
        if self.loss_time is not None:
            t1 = min(t1, self.loss_time)
        return super().energy_between(t0, t1)


class DeviceRegistry:
    """Owns the fleet's devices and their ground-truth lifecycle."""

    def __init__(
        self,
        env: "Environment",
        fleet: FleetConfig,
        *,
        num_streams: int,
        memory_sync: bool = False,
        spec: Optional[DeviceSpec] = None,
        copy_policy: str = "interleave",
        power_interval: float = 15e-3,
        plan: Optional[FaultPlan] = None,
        trace=None,
    ) -> None:
        self.env = env
        self.fleet = fleet
        self.plan = plan if plan is not None else FaultPlan()
        spec = spec or tesla_k20()
        self.spec = spec
        #: Fault-domain structure (rail/switch/rack), or ``None`` for the
        #: historical flat fleet.  Pure bookkeeping: build-time only.
        self.topology: Optional[FleetTopology] = (
            FleetTopology(fleet.num_devices, fleet.topology)
            if fleet.topology is not None
            else None
        )
        self.devices: List[FleetDevice] = [
            FleetDevice(
                env,
                index,
                self.plan.for_device(index),
                spec=spec,
                num_streams=num_streams,
                memory_sync=memory_sync,
                copy_policy=copy_policy,
                power_interval=power_interval,
                trace=trace,
            )
            for index in range(fleet.num_devices)
        ]
        #: Called as ``on_down(index, now)`` the instant a device is lost
        #: (ground truth) — wired to the failover coordinator.
        self.on_down: Optional[Callable[[int, float], None]] = None

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.devices)

    def healthy(self) -> List[FleetDevice]:
        """Devices apps may be placed on (degraded counts as usable)."""
        return [d for d in self.devices if not d.lost]

    @property
    def lost_devices(self) -> List[FleetDevice]:
        """Devices that have fallen off the bus."""
        return [d for d in self.devices if d.lost]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start power monitors and schedule the planned device losses."""
        for device in self.devices:
            device.monitor.start()
        for spec in self.plan.loss_specs():
            index = spec.effective_device % len(self.devices)
            self.env.process(
                self._loss_body(index, spec.time),
                name=f"device-loss-{index}",
            )

    def stop(self) -> None:
        """Stop every (still-running) power monitor."""
        for device in self.devices:
            device.monitor.stop()

    def mark_lost(self, index: int) -> None:
        """Ground truth: the device just fell off the bus."""
        device = self.devices[index]
        if device.lost:
            return
        device.state = DeviceState.LOST
        device.loss_time = self.env.now
        device.monitor.stop()
        if self.on_down is not None:
            self.on_down(index, self.env.now)

    def _loss_body(self, index: int, at: float):
        # Fault times are absolute simulation time, like every other
        # FaultKind; a loss planned before start() fires immediately.
        delay = at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.mark_lost(index)
