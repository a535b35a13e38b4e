"""Lazy command instants against an eager oracle.

A command's ``ready`` and ``started`` instants are timestamps; an
:class:`~repro.sim.events.Event` for one exists only when something waits
on it.  The oracle subscribes to both instants of every command at
enqueue, which puts each of them on the calendar exactly as an eager
implementation would.  Calendar entry ids are monotonic, so dropping the
entries nobody waits on must leave every result equal to the bit: only
the number of popped events may differ.
"""

import cProfile
import pstats

import pytest

from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.fleet import FleetHarness, HedgeConfig
from repro.gpu.device import GPUDevice
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.scheduling.orders import SchedulingOrder
from repro.sim.engine import Environment

from ..fleet.conftest import fast_fleet, make_apps

#: Calendar pops of the cost-counter scenario with every instant eager.
EAGER_EVENTS = 3008


def _ignore(_event):
    pass


@pytest.fixture
def eager(monkeypatch):
    """Subscribe to every command's ready and started instant at enqueue."""
    enqueue = GPUDevice._enqueue

    def subscribed(self, stream, cmd):
        cmd.ready.callbacks.append(_ignore)
        cmd.started.callbacks.append(_ignore)
        enqueue(self, stream, cmd)

    def arm():
        monkeypatch.setattr(GPUDevice, "_enqueue", subscribed)

    return arm


def _cost_counter_run():
    """The scenario ``test_cost_counters.py`` pins, with its pop count."""
    config = RunConfig(
        workload=Workload.heterogeneous_pair("gaussian", "needle", 8, scale="tiny"),
        num_streams=4,
        order=SchedulingOrder.ROUND_ROBIN,
        memory_sync=True,
        seed=7,
    )
    profile = cProfile.Profile()
    profile.enable()
    harness = ExperimentRunner().run(config).harness
    profile.disable()
    code = Environment.step.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    stats = pstats.Stats(profile).stats
    outputs = (
        harness.records,
        float.hex(harness.makespan),
        float.hex(harness.energy),
        float.hex(harness.peak_power),
    )
    return outputs, stats[key][1]


def _failover_run():
    """A 4-device fleet losing device 0 while an srad kernel runs on it,
    with straggler detection on so both stretch observers read the start
    instants."""
    plan = FaultPlan([FaultSpec(FaultKind.DEVICE_LOSS, 5.8e-3, device=0)])
    return FleetHarness(
        make_apps(8, kinds=("srad", "gaussian", "needle", "nn")),
        fast_fleet(num_devices=4, hedging=HedgeConfig()),
        num_streams=2,
        seed=0,
        plan=plan,
    ).run()


def test_cost_counter_scenario_matches_eager(eager):
    lazy, lazy_events = _cost_counter_run()
    eager()
    oracle, oracle_events = _cost_counter_run()
    assert lazy == oracle
    assert oracle_events == EAGER_EVENTS
    assert lazy_events < oracle_events


def test_fleet_failover_matches_eager(eager):
    lazy = _failover_run()
    eager()
    oracle = _failover_run()
    assert lazy.migrations > 0 and lazy.reexecuted_kernels > 0
    assert lazy.records == oracle.records
    assert float.hex(lazy.makespan) == float.hex(oracle.makespan)
    assert float.hex(lazy.energy) == float.hex(oracle.energy)
    assert float.hex(lazy.peak_power) == float.hex(oracle.peak_power)
    assert lazy.reexecuted_kernels == oracle.reexecuted_kernels
    assert lazy.devices == oracle.devices
    assert lazy.recoveries == oracle.recoveries
