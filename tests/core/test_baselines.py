"""Tests for the related-work comparators."""

import pytest

from repro.core.baselines import chunk_profile, symbiosis_admission, wende_schedule
from repro.framework.kernel import TransferPhase
from repro.scheduling.orders import SchedulingOrder, make_schedule
from repro.gpu.block_scheduler import GridState
from repro.gpu.commands import KernelLaunchCommand
from repro.gpu.kernels import Dim3, KernelDescriptor
from repro.gpu.specs import tesla_k20
from repro.sim.engine import Environment


def grid_state(env, blocks, tpb=64):
    kd = KernelDescriptor("k", Dim3(blocks), Dim3(tpb), block_duration=1e-6,
                          registers_per_thread=0)
    cmd = KernelLaunchCommand(env, kd)
    return GridState(cmd=cmd, to_place=blocks, outstanding=1)


class TestSymbiosisAdmission:
    def test_admits_when_sum_fits(self):
        env = Environment()
        admit = symbiosis_admission(tesla_k20())
        candidate = grid_state(env, 100)
        active = [grid_state(env, 100)]
        assert admit(candidate, active)

    def test_rejects_block_oversubscription(self):
        env = Environment()
        admit = symbiosis_admission(tesla_k20())
        # 150 + 100 = 250 > 208 device blocks.
        assert not admit(grid_state(env, 150), [grid_state(env, 100)])

    def test_rejects_thread_oversubscription(self):
        env = Environment()
        admit = symbiosis_admission(tesla_k20())
        # 2 x 100 blocks x 256 threads = 51200 > 26624 device threads.
        a = grid_state(env, 100, tpb=256)
        b = grid_state(env, 100, tpb=256)
        assert not admit(a, [b])

    def test_admits_alone(self):
        env = Environment()
        admit = symbiosis_admission(tesla_k20())
        # Even an oversubscribing kernel runs alone (it just takes waves).
        assert admit(grid_state(env, 150), [])


class TestChunkProfile:
    def test_buffers_split_to_chunk_size(self):
        from repro.apps.nn import NNApp

        profile = NNApp.build_profile(records=42764)
        chunked = chunk_profile(profile, chunk_bytes=64 * 1024)
        phase = next(p for p in chunked.phases if isinstance(p, TransferPhase))
        assert all(b.nbytes <= 64 * 1024 for b in phase.buffers)
        assert phase.total_bytes == profile.phases[0].total_bytes
        assert len(phase.buffers) > len(profile.phases[0].buffers)

    def test_chunk_names_indexed(self):
        from repro.apps.nn import NNApp

        profile = NNApp.build_profile(records=42764)
        chunked = chunk_profile(profile, chunk_bytes=128 * 1024)
        phase = next(p for p in chunked.phases if isinstance(p, TransferPhase))
        assert phase.buffers[0].name.endswith("[0]")
        assert phase.buffers[1].name.endswith("[1]")

    def test_non_transfer_phases_untouched(self):
        from repro.apps.srad import SradApp

        profile = SradApp.build_profile(n=64, iterations=2)
        chunked = chunk_profile(profile, chunk_bytes=1024)
        assert profile.kernel_launches == chunked.kernel_launches
        assert len(profile.phases) == len(chunked.phases)

    def test_validation(self):
        from repro.apps.nn import NNApp

        with pytest.raises(ValueError):
            chunk_profile(NNApp.build_profile(records=64), chunk_bytes=0)


class TestWendeSchedule:
    def test_equals_round_robin_order(self):
        types = ["X"] * 3 + ["Y"] * 3
        assert wende_schedule(types) == make_schedule(
            types, SchedulingOrder.ROUND_ROBIN
        )
