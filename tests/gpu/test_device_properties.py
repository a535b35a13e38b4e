"""Property-based tests of the whole device model (hypothesis).

Random command mixes across random stream counts must always satisfy the
hardware invariants: everything completes, per-stream FIFO semantics hold,
copies never overlap within a direction, kernels never exceed the device's
resident-thread capacity, and the device returns to idle power.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.commands import CopyDirection
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.power import PowerModel, PowerState
from repro.sim.engine import Environment
from repro.sim.trace import TraceRecorder

# One command recipe: (kind, size parameter).
commands = st.one_of(
    st.tuples(st.just("htod"), st.integers(min_value=1, max_value=1 << 20)),
    st.tuples(st.just("dtoh"), st.integers(min_value=1, max_value=1 << 20)),
    st.tuples(st.just("kernel"), st.integers(min_value=1, max_value=300)),
)


@st.composite
def workloads(draw):
    num_streams = draw(st.integers(min_value=1, max_value=6))
    per_stream = draw(
        st.lists(
            st.lists(commands, min_size=0, max_size=6),
            min_size=num_streams,
            max_size=num_streams,
        )
    )
    tpb = draw(st.sampled_from([32, 64, 128, 256, 512, 1024]))
    return per_stream, tpb


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_device_invariants(workload):
    per_stream, tpb = workload
    env = Environment()
    trace = TraceRecorder()
    device = GPUDevice(env, trace=trace)
    issued = []

    for stream_cmds in per_stream:
        stream = device.create_stream()
        for i, (kind, size) in enumerate(stream_cmds):
            if kind == "htod":
                cmd = stream.enqueue_memcpy(CopyDirection.HTOD, size)
            elif kind == "dtoh":
                cmd = stream.enqueue_memcpy(CopyDirection.DTOH, size)
            else:
                kd = KernelDescriptor(
                    f"k{i}", Dim3(size), Dim3(tpb),
                    registers_per_thread=16, block_duration=2e-6,
                )
                cmd = stream.enqueue_kernel(kd)
            issued.append((stream.sid, cmd))
    env.run()

    # 1. Everything completes, in order per stream.
    last_done = {}
    for sid, cmd in issued:
        assert cmd.done.triggered, cmd
        start, end = cmd.started.value, cmd.done.value
        assert start <= end
        if sid in last_done:
            # In-stream FIFO: a command never starts before its predecessor
            # finished.
            assert start >= last_done[sid] - 1e-15
        last_done[sid] = end

    # 2. Single engine per copy direction.
    assert trace.max_concurrency("memcpy_htod") <= 1
    assert trace.max_concurrency("memcpy_dtoh") <= 1

    # 3. SMX resources fully returned; occupancy bounded during the run.
    assert device.smx.resident_blocks == 0
    assert device.smx.resident_threads == 0

    # 4. Device quiesces: power back to idle, nothing in flight.
    assert device._inflight == 0
    assert device.power.current_power == device.spec.power.idle

    # 5. Energy is consistent: at least idle * elapsed, at most TDP * elapsed.
    if env.now > 0:
        energy = device.power.energy()
        assert energy >= device.spec.power.idle * env.now - 1e-9
        assert energy <= device.spec.power.tdp * env.now + 1e-9


# -- memoised power path ------------------------------------------------------

# One power input: (delay before it, resident-thread eighths of capacity,
# HtoD busy, DtoH busy, commands in flight, active streams).  Few distinct
# values and zero delays, so inputs repeat and same-instant changes occur.
power_inputs = st.tuples(
    st.sampled_from([0.0, 0.0, 1e-6, 2.5e-6, 1e-3]),
    st.integers(min_value=0, max_value=8),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
)


class FreshEvaluation:
    """The power integral, re-deriving ``evaluate(PowerState(...))`` on
    every change: the reference the memoised device path must equal."""

    def __init__(self, env, spec):
        self.env = env
        self.formula = PowerModel(env, spec)
        self.current = self.formula.evaluate(
            PowerState(occupancy=0.0, dma_busy=0, any_active=False)
        )
        self.peak = self.current
        self.last_change = env.now
        self.closed = []
        self.energy_before = 0.0

    def update(self, **inputs):
        watts = self.formula.evaluate(PowerState(**inputs))
        if watts == self.current:
            return
        dt = self.env.now - self.last_change
        if dt > 0:
            self.closed.append((self.last_change, self.current))
            self.energy_before += self.current * dt
        self.current, self.last_change = watts, self.env.now
        self.peak = max(self.peak, watts)

    def energy(self):
        return self.energy_before + self.current * (self.env.now - self.last_change)

    def segments(self):
        return self.closed + [(self.last_change, self.current)]


def set_power_inputs(device, eighths, htod, dtoh, inflight, streams):
    capacity = device.spec.num_smx * device.spec.smx.max_threads
    device.smx._resident_threads = eighths * capacity // 8
    device.dma[CopyDirection.HTOD].busy = htod
    device.dma[CopyDirection.DTOH].busy = dtoh
    device._inflight = inflight
    device._active_streams = streams
    return dict(
        occupancy=min(device.smx.thread_occupancy, 1.0),
        dma_busy=int(htod) + int(dtoh),
        any_active=inflight > 0,
        active_streams=streams,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(power_inputs, min_size=1, max_size=60))
def test_memoised_power_path_is_bit_exact(sequence):
    env = Environment()
    device = GPUDevice(env)
    reference = FreshEvaluation(env, device.spec.power)

    def feed():
        for delay, *inputs in sequence:
            yield env.timeout(delay)
            state = set_power_inputs(device, *inputs)
            device._power_changed()
            reference.update(**state)
        yield env.timeout(1e-3)

    env.process(feed())
    env.run()
    power = device.power
    assert power.energy() == reference.energy()
    assert power.peak_power == reference.peak
    assert power.segments() == reference.segments()

    # An invalid input is never memoised: it raises every time, even
    # after valid keys are cached.
    device._active_streams = -1
    for _ in range(2):
        with pytest.raises(ValueError):
            device._power_changed()
