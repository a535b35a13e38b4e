"""Property-based SMX occupancy invariants (hypothesis).

Whatever random kernel mix is thrown at the device — including
DEVICE_THROTTLE windows stretching block runtimes mid-flight — every
SMX's free-resource counters must stay inside ``[0, spec ceiling]`` at
every observable instant, the array-level resident counters must agree
with the per-SMX ones, and everything must drain back to a fully free
array at quiesce.  A violation means blocks were double-placed or
double-released somewhere in the scheduler.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sim.engine import Environment

pytestmark = pytest.mark.fleet

# One kernel recipe: (blocks, threads-per-block, registers, shared mem).
kernels = st.tuples(
    st.integers(min_value=1, max_value=400),
    st.sampled_from([32, 64, 128, 256, 512, 1024]),
    st.sampled_from([8, 16, 32, 64]),
    st.sampled_from([0, 1 << 10, 8 << 10, 24 << 10]),
)

throttles = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2e-4),   # window start
        st.floats(min_value=1e-6, max_value=2e-4),  # window length
        st.floats(min_value=1.5, max_value=16.0),   # slowdown factor
    ),
    min_size=0,
    max_size=3,
)


@st.composite
def workloads(draw):
    num_streams = draw(st.integers(min_value=1, max_value=6))
    per_stream = draw(
        st.lists(
            st.lists(kernels, min_size=1, max_size=5),
            min_size=num_streams,
            max_size=num_streams,
        )
    )
    return per_stream, draw(throttles)


def _check_occupancy(device):
    spec = device.smx.spec
    resident_blocks = 0
    resident_threads = 0
    for smx in device.smx:
        assert 0 <= smx.free_blocks <= spec.max_blocks
        assert 0 <= smx.free_threads <= spec.max_threads
        assert 0 <= smx.free_shared_mem <= spec.shared_memory
        assert 0 <= smx.free_registers <= spec.registers
        resident_blocks += spec.max_blocks - smx.free_blocks
        resident_threads += smx.resident_threads
    # The O(1) array-level counters must agree with the per-SMX truth.
    assert device.smx.resident_blocks == resident_blocks
    assert device.smx.resident_threads == resident_threads


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_smx_occupancy_invariants_under_throttle(workload):
    per_stream, throttle_windows = workload
    env = Environment()
    plan = FaultPlan(
        [
            FaultSpec(
                FaultKind.DEVICE_THROTTLE,
                start,
                duration=length,
                factor=factor,
            )
            for start, length, factor in throttle_windows
        ]
    )
    injector = FaultInjector(env, plan)
    device = GPUDevice(env, injector=injector)
    issued = []

    for stream_cmds in per_stream:
        stream = device.create_stream()
        for i, (blocks, tpb, regs, smem) in enumerate(stream_cmds):
            kd = KernelDescriptor(
                f"k{i}", Dim3(blocks), Dim3(tpb),
                registers_per_thread=regs,
                shared_mem_per_block=smem,
                block_duration=2e-6,
            )
            issued.append(stream.enqueue_kernel(kd))

    # Sample the invariants at every command start/finish — the instants
    # the block scheduler mutates occupancy around.
    for cmd in issued:
        cmd.started.callbacks.append(lambda _e: _check_occupancy(device))
        cmd.done.callbacks.append(lambda _e: _check_occupancy(device))
    env.run()

    for cmd in issued:
        assert cmd.done.triggered and cmd.done.ok, cmd

    # Quiesce: every SMX back to fully free.
    _check_occupancy(device)
    spec = device.smx.spec
    for smx in device.smx:
        assert smx.free_blocks == spec.max_blocks
        assert smx.free_threads == spec.max_threads
        assert smx.free_shared_mem == spec.shared_memory
        assert smx.free_registers == spec.registers
    assert device.smx.resident_blocks == 0
    assert device.smx.resident_threads == 0
    # Only the planned throttles can have been applied.
    assert all(r.kind is FaultKind.DEVICE_THROTTLE for r in injector.records)
    assert len(injector.records) <= len(plan)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=1000),
    st.sampled_from([32, 128, 1024]),
    st.floats(min_value=1.5, max_value=30.0),
)
def test_throttle_only_stretches_time_not_occupancy(blocks, tpb, factor):
    """A throttled run places the same waves, just slower."""
    plan = FaultPlan(
        [FaultSpec(FaultKind.DEVICE_THROTTLE, 0.0, duration=1.0, factor=factor)]
    )

    def run(throttle):
        env = Environment()
        injector = FaultInjector(env, plan) if throttle else None
        device = GPUDevice(env, injector=injector)
        stream = device.create_stream()
        kd = KernelDescriptor(
            "k", Dim3(blocks), Dim3(tpb),
            registers_per_thread=16, block_duration=2e-6,
        )
        cmd = stream.enqueue_kernel(kd)
        env.run()
        assert cmd.done.ok
        _check_occupancy(device)
        return cmd.done.value - cmd.started.value, injector

    clean, _ = run(False)
    throttled, injector = run(True)
    assert throttled > clean
    assert injector.applied_counts() == {"device_throttle": 1}
