"""Unit tests for stream-level commands (:mod:`repro.gpu.commands`)."""

import pytest

from repro.gpu.commands import (
    Command,
    CopyDirection,
    KernelLaunchCommand,
    MarkerCommand,
    MemcpyCommand,
)
from repro.gpu.device import GPUDevice
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sim.errors import EventError


class TestCommandIdentity:
    def test_ids_monotone(self, env):
        a = MarkerCommand(env)
        b = MarkerCommand(env)
        assert b.cid > a.cid

    def test_events_created_pending(self, env):
        cmd = MarkerCommand(env)
        assert not cmd.ready.triggered
        assert not cmd.started.triggered
        assert not cmd.done.triggered

    def test_commands_are_slotted(self, env):
        kd = KernelDescriptor("k", Dim3(1), Dim3(32), block_duration=1e-6)
        for cmd in (
            MarkerCommand(env),
            MemcpyCommand(env, CopyDirection.HTOD, 64),
            KernelLaunchCommand(env, kd),
        ):
            assert not hasattr(cmd, "__dict__")
            with pytest.raises(AttributeError):
                cmd.meta = {}

    def test_repr_contains_identity(self, env):
        cmd = MemcpyCommand(env, CopyDirection.HTOD, 64, app_id="nn#0")
        cmd.stream_id = 3
        text = repr(cmd)
        assert "nn#0" in text and "stream=3" in text


class TestMemcpy:
    def test_label_prefers_buffer_name(self, env):
        named = MemcpyCommand(env, CopyDirection.HTOD, 64, buffer="matrix")
        unnamed = MemcpyCommand(env, CopyDirection.DTOH, 64)
        assert "matrix" in named.label
        assert "64" in unnamed.label
        assert "DtoH" in unnamed.label

    def test_direction_str(self):
        assert str(CopyDirection.HTOD) == "HtoD"
        assert str(CopyDirection.DTOH) == "DtoH"

    def test_negative_size_rejected(self, env):
        with pytest.raises(ValueError):
            MemcpyCommand(env, CopyDirection.HTOD, -5)


class TestKernelLaunch:
    def test_label_is_kernel_name(self, env):
        kd = KernelDescriptor("Fan2", Dim3(4), Dim3(64), block_duration=1e-6)
        cmd = KernelLaunchCommand(env, kd)
        assert cmd.label == "Fan2"
        assert cmd.waves == 0
        assert cmd.first_block_time is None


class TestMarker:
    def test_label(self, env):
        assert MarkerCommand(env, name="sync-point").label == "marker(sync-point)"


def _kernel(duration=10e-6):
    return KernelDescriptor("k", Dim3(4), Dim3(64), block_duration=duration)


class TestLazyInstants:
    """``ready`` and ``started`` are timestamps; an Event exists only
    for a caller that asks for one."""

    def test_pending_before_dispatch(self, env, device):
        stream = device.create_stream()
        first = stream.enqueue_kernel(_kernel())
        second = stream.enqueue_kernel(_kernel())
        # ``second`` waits on ``first`` in-stream: neither instant is set.
        assert second.ready_time is None and second.start_time is None
        assert not second.ready.triggered
        assert not second.started.triggered
        # ``first`` had no dependency: ready at enqueue, started later by
        # the grid engine's pass.
        assert first.ready_time == 0.0 and first.start_time is None
        env.run()
        assert second.ready_time == first.done.value
        assert second.start_time == second.ready_time

    def test_early_subscriber_fires_at_the_instant(self, env, device):
        stream = device.create_stream()
        first = stream.enqueue_kernel(_kernel())
        second = stream.enqueue_kernel(_kernel())
        seen = []
        second.ready.callbacks.append(lambda e: seen.append(("ready", env.now, e.value)))
        second.started.callbacks.append(
            lambda e: seen.append(("started", env.now, e.value))
        )
        env.run()
        t = first.done.value
        assert seen == [("ready", t, t), ("started", t, t)]
        assert second.ready_time == second.start_time == t

    def test_late_reader_gets_processed_event(self, env, device):
        stream = device.create_stream()
        cmd = stream.enqueue_kernel(_kernel())
        env.run()
        queued = env.queue_size
        started = cmd.started
        assert started.processed and started.ok
        assert started.value == cmd.start_time
        assert cmd.started is started  # built once
        assert cmd.ready.processed and cmd.ready.value == cmd.ready_time
        assert env.queue_size == queued  # reading pushed no entry

        resumed = []

        def waiter():
            resumed.append((yield cmd.started))

        env.process(waiter())
        popped = env.events_processed
        env.run()
        assert resumed == [cmd.start_time]
        # Process start and process end only: the started event itself
        # is never on the calendar.
        assert env.events_processed - popped == 2

    def test_marker_instants_equal_completion(self, env, device):
        marker = device.create_stream().enqueue_marker()
        assert marker.ready_time == marker.start_time == 0.0
        env.run()
        assert marker.done.value == 0.0

    def test_instant_marked_once(self, env):
        cmd = MarkerCommand(env)
        cmd.mark_ready(0.0)
        cmd.mark_started(0.0)
        with pytest.raises(EventError):
            cmd.mark_ready(1.0)
        with pytest.raises(EventError):
            cmd.mark_started(1.0)

    def test_failed_launch_never_starts(self, env, trace, k20):
        plan = FaultPlan([FaultSpec(FaultKind.LAUNCH_FAIL, 0.0)])
        device = GPUDevice(
            env, spec=k20, trace=trace, injector=FaultInjector(env, plan)
        )
        cmd = device.create_stream().enqueue_kernel(_kernel())
        env.run()
        assert not cmd.done.ok
        assert cmd.ready_time == 0.0
        assert cmd.start_time is None
        assert not cmd.started.triggered
