"""Exact cost counters and outputs of one fixed tiny scenario.

Wall clock cannot see one event more or less; these integers can.  The
scenario is deterministic, so each count is pinned exactly: a change that
adds or drops an event, a process resumption, a power re-evaluation, a
block-scheduler pass or a command fails here.  The counters are calls into
the same functions ``perfbench/layers.py`` counts, read the same way (from
a cProfile run).  The outputs are pinned to the bit, so a one-ULP change
to the power model or the clock fails here too.

A deliberate change to the simulated work updates the numbers below and
says why in CHANGES.md.
"""

import cProfile
import pstats

import pytest

from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.gpu.block_scheduler import GridEngine
from repro.gpu.commands import Command
from repro.gpu.power import PowerModel
from repro.scheduling.orders import SchedulingOrder
from repro.sim.engine import Environment
from repro.sim.process import Process

COUNTED = {
    "events": Environment.step,
    "process_resumes": Process._resume,
    "power_updates": PowerModel.update,
    "block_passes": GridEngine._run_pass,
    "commands": Command.__init__,
}

EXPECTED_COUNTS = {
    "events": 2168,
    "process_resumes": 590,
    "power_updates": 1672,
    "block_passes": 768,
    "commands": 420,
}

EXPECTED_OUTPUTS = {
    "makespan": "0x1.15acf376e33e8p-9",
    "energy": "0x1.2b9ad3d5a1d0cp-3",
    "peak_power": "0x1.1f8949c689457p+7",
}


def _key(func):
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


@pytest.fixture(scope="module")
def measured():
    config = RunConfig(
        workload=Workload.heterogeneous_pair("gaussian", "needle", 8, scale="tiny"),
        num_streams=4,
        order=SchedulingOrder.ROUND_ROBIN,
        memory_sync=True,
        seed=7,
    )
    profile = cProfile.Profile()
    profile.enable()
    result = ExperimentRunner().run(config)
    profile.disable()
    stats = pstats.Stats(profile).stats
    counts = {
        name: stats[_key(func)][1] if _key(func) in stats else 0
        for name, func in COUNTED.items()
    }
    harness = result.harness
    outputs = {
        name: float.hex(getattr(harness, name)) for name in EXPECTED_OUTPUTS
    }
    return counts, outputs


def test_cost_counters_are_exact(measured):
    counts, _ = measured
    assert counts == EXPECTED_COUNTS


def test_outputs_are_bit_exact(measured):
    _, outputs = measured
    assert outputs == EXPECTED_OUTPUTS
